// Precision-tier serving bench: ONE logical model (the tuned synthetic
// SST-2 engine) served at several weight bit-widths from one router,
// measuring what each tier costs and what it gives up:
//
//  * per-tier closed-loop serving latency (p50/p95) and throughput;
//  * per-tier resident weight bytes (every tier must sit at exactly
//    Σ padded(out)·padded(in) bytes — all bit-widths share one int8
//    tile layout, so the int8 parent costs what an int4 tier costs);
//  * per-tier synthetic-task accuracy (tier derivation trades accuracy
//    for memory; the table shows the trade explicitly);
//  * zero-copy page sharing: two processes load_mapped() the SAME
//    FQBERT03 file, fault in every weight page, and read their own
//    /proc/self/smaps for the mapping — with both alive, each sees
//    Pss ~= Rss/2, the kernel's own statement that the weight pages
//    are physically shared.
//
//   ./build/bench/bench_precision_tiers [--fast]
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "serve/loadgen.h"
#include "serve/router/model_router.h"

namespace {

using namespace fqbert;
using namespace fqbert::bench;

struct Pct {
  double p50_ms = 0, p95_ms = 0;
};

Pct summarize(std::vector<double>& ms) {
  std::sort(ms.begin(), ms.end());
  Pct r;
  if (ms.empty()) return r;
  r.p50_ms = ms[ms.size() / 2];
  r.p95_ms = ms[std::min(ms.size() - 1, ms.size() * 95 / 100)];
  return r;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Rss/Pss (kB) of every /proc/self/smaps mapping whose path contains
/// `needle`. Pss is proportional: a page mapped by N processes
/// contributes size/N — the kernel's own sharing accounting.
struct MapUsage {
  long rss_kb = 0, pss_kb = 0;
};

MapUsage smaps_usage(const std::string& needle) {
  MapUsage usage;
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool in_target = false;
  while (std::getline(smaps, line)) {
    // Mapping headers look like "addr-addr perms off dev inode path";
    // field lines like "Rss:   123 kB". Headers always contain '-'
    // before the first space, field lines a ':'.
    const bool header = line.find('-') != std::string::npos &&
                        line.find('-') < line.find(' ');
    if (header) {
      in_target = line.find(needle) != std::string::npos;
      continue;
    }
    if (!in_target) continue;
    long kb = 0;
    if (std::sscanf(line.c_str(), "Rss: %ld kB", &kb) == 1)
      usage.rss_kb += kb;
    else if (std::sscanf(line.c_str(), "Pss: %ld kB", &kb) == 1)
      usage.pss_kb += kb;
  }
  return usage;
}

/// Fork `n` children that each mmap-load `path`, fault in every weight
/// page (full forwards), rendezvous so ALL mappings are alive at once,
/// then report their own Rss/Pss for the mapping. Returns one usage
/// row per child.
std::vector<MapUsage> measure_shared_mapping(const std::string& path,
                                             const nn::BertConfig& config,
                                             int n) {
  struct Child {
    pid_t pid = -1;
    int ready_fd = -1, go_fd = -1, result_fd = -1;
  };
  std::vector<Child> children(static_cast<size_t>(n));
  for (Child& child : children) {
    int ready[2], go[2], result[2];
    if (pipe(ready) != 0 || pipe(go) != 0 || pipe(result) != 0) return {};
    const pid_t pid = fork();
    if (pid < 0) return {};
    if (pid == 0) {
      close(ready[0]);
      close(go[1]);
      close(result[0]);
      {
        const core::FqBertModel engine = core::FqBertModel::load_mapped(path);
        // Touch every weight page: forwards sweep all layer weights.
        Rng rng(99);
        for (int i = 0; i < 3; ++i)
          (void)engine.forward(serve::synth_example(rng, 12, config));
        char token = 'r';
        if (write(ready[1], &token, 1) != 1) _exit(2);
        if (read(go[0], &token, 1) != 1) _exit(3);
        const MapUsage usage = smaps_usage(path);
        if (write(result[1], &usage, sizeof(usage)) != sizeof(usage))
          _exit(4);
        // Hold the mapping until EVERY sibling has measured — exiting
        // here would unmap and hand the survivor sole ownership of the
        // pages (Pss == Rss), erasing the evidence.
        if (read(go[0], &token, 1) != 1) _exit(5);
      }
      _exit(0);
    }
    close(ready[1]);
    close(go[0]);
    close(result[1]);
    child.pid = pid;
    child.ready_fd = ready[0];
    child.go_fd = go[1];
    child.result_fd = result[0];
  }
  // Barrier: every child has mapped + touched before anyone measures,
  // so Pss reflects the fully shared state.
  for (Child& child : children) {
    char token = 0;
    if (read(child.ready_fd, &token, 1) != 1) return {};
  }
  for (Child& child : children) {
    char token = 'g';
    if (write(child.go_fd, &token, 1) != 1) return {};
  }
  std::vector<MapUsage> rows;
  for (Child& child : children) {
    MapUsage usage;
    if (read(child.result_fd, &usage, sizeof(usage)) == sizeof(usage))
      rows.push_back(usage);
  }
  // All measured: release the mappings and reap.
  for (Child& child : children) {
    char token = 'x';
    (void)!write(child.go_fd, &token, 1);
    close(child.ready_fd);
    close(child.go_fd);
    close(child.result_fd);
    int status = 0;
    waitpid(child.pid, &status, 0);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = fast_mode(argc, argv);
  const int per_tier = fast ? 200 : 1000;
  constexpr int kClients = 2;
  const std::vector<int> kTiers = {8, 4, 2};

  std::printf("training + quantizing the int8 parent (sst2%s)...\n",
              fast ? ", fast" : "");
  TaskData task = make_sst2_task(fast);
  auto float_model = train_float(task, fast);
  FqQuantConfig qcfg = FqQuantConfig::full();
  qcfg.weight_bits = 8;
  auto parent = std::make_shared<const core::FqBertModel>(
      quantize_pipeline(*float_model, task, qcfg, fast));
  const nn::BertConfig config = parent->config();

  // Every lower tier is DERIVED from the int8 parent — quantizer range
  // math on the resident codes, exactly what the registry mints.
  struct TierRow {
    int bits = 0;
    std::shared_ptr<const core::FqBertModel> engine;
    double accuracy = 0;
    size_t weight_bytes = 0;
    Pct latency;
    uint64_t ok = 0;
  };
  std::vector<TierRow> rows;
  for (const int bits : kTiers) {
    TierRow row;
    row.bits = bits;
    row.engine = bits == 8 ? parent
                           : std::make_shared<const core::FqBertModel>(
                                 parent->derive_tier(bits));
    row.accuracy = row.engine->accuracy(task.eval);
    row.weight_bytes = row.engine->resident_weight_bytes();
    rows.push_back(std::move(row));
  }

  // One router, one model name, one lane per tier.
  serve::EngineRegistry registry;
  registry.register_model("sst2", parent);
  for (const int bits : kTiers)
    if (bits != 8 && !registry.register_derived("sst2", bits)) return 1;
  serve::RouterConfig rcfg;
  rcfg.num_workers = 2;
  rcfg.max_batch = 8;
  serve::ModelRouter router(registry, rcfg);
  if (!router.add_model("sst2") || !router.start()) return 1;

  // Identical pre-generated workload per tier: the latency delta
  // between rows is the tier, nothing else.
  std::vector<nn::Example> workload;
  {
    Rng rng(424);
    for (int i = 0; i < per_tier; ++i)
      workload.push_back(serve::synth_example(
          rng, 4 + rng.randint(0, config.max_seq_len - 4), config));
  }
  std::atomic<uint64_t> wrong_tier{0};
  for (TierRow& row : rows) {
    std::vector<double> ms;
    ms.reserve(workload.size());
    std::mutex ms_mu;
    std::atomic<uint64_t> ok{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = static_cast<size_t>(c); i < workload.size();
             i += kClients) {
          const double s = now_s();
          const serve::ServeResponse resp =
              router.submit("sst2", workload[i], std::nullopt, nullptr, 0,
                            row.bits)
                  .get();
          const double wall = (now_s() - s) * 1e3;
          if (resp.status == serve::RequestStatus::kOk) {
            ok.fetch_add(1);
            if (resp.tier != row.bits) wrong_tier.fetch_add(1);
          }
          std::lock_guard<std::mutex> lock(ms_mu);
          ms.push_back(wall);
        }
      });
    }
    for (auto& t : threads) t.join();
    row.latency = summarize(ms);
    row.ok = ok.load();
  }
  router.shutdown(/*drain=*/true);
  bool balanced = true;
  for (const auto& [name, tier, st] : router.all_stats())
    if (!st.accounting_balances()) {
      std::printf("UNBALANCED lane %s@int%d\n", name.c_str(), tier);
      balanced = false;
    }

  // ---------------------------------------------------------------
  // Zero-copy sharing: two processes, one FQBERT03 file.
  // ---------------------------------------------------------------
  const std::string mapped_path = "/tmp/fqbert_bench_tiers_int8.fq2";
  if (!parent->save_mapped(mapped_path)) return 1;
  const std::vector<MapUsage> shared =
      measure_shared_mapping(mapped_path, config, 2);
  std::remove(mapped_path.c_str());

  // ---------------------------------------------------------------
  // Report.
  // ---------------------------------------------------------------
  print_rule();
  std::printf("one model, %zu tiers, %d requests/tier, %d closed-loop "
              "clients, batch %lld\n",
              kTiers.size(), per_tier, kClients,
              static_cast<long long>(rcfg.max_batch));
  print_rule();
  std::printf("%-6s %10s %12s %10s %10s %8s\n", "tier", "accuracy",
              "weights KB", "p50 ms", "p95 ms", "ok");
  size_t tile_bytes = 0;
  for (const core::FqEncoderLayer& l : parent->encoder_layers())
    for (const core::QuantLinear* q : {&l.wq, &l.wk, &l.wv, &l.wo, &l.ffn1,
                                       &l.ffn2})
      tile_bytes += core::tile_bytes(q->out, q->in);
  bool memory_bound = true;
  for (const TierRow& row : rows) {
    memory_bound = memory_bound && row.weight_bytes == tile_bytes;
    std::printf("int%-3d %9.1f%% %12.1f %10.3f %10.3f %8llu\n", row.bits,
                row.accuracy,
                static_cast<double>(row.weight_bytes) / 1024.0,
                row.latency.p50_ms, row.latency.p95_ms,
                static_cast<unsigned long long>(row.ok));
  }
  print_rule();
  std::printf("resident weights per tier: bound = sum padded(out)*padded(in) "
              "= %.1f KB %s\n",
              static_cast<double>(tile_bytes) / 1024.0,
              memory_bound ? "OK" : "VIOLATED");

  bool pages_shared = shared.size() == 2;
  for (size_t i = 0; i < shared.size(); ++i) {
    std::printf("process %zu mapping: Rss %ld kB, Pss %ld kB\n", i + 1,
                shared[i].rss_kb, shared[i].pss_kb);
    // Fully private would read Pss == Rss; two sharers read ~Rss/2.
    // 0.75 leaves headroom for the few pages only one process touched.
    if (shared[i].rss_kb <= 0 ||
        static_cast<double>(shared[i].pss_kb) >
            0.75 * static_cast<double>(shared[i].rss_kb))
      pages_shared = false;
  }
  std::printf("mmap page sharing (Pss ~= Rss/2 with 2 processes): %s\n",
              pages_shared ? "OK" : "NOT SHARED");
  std::printf("tier routing: %llu responses served on the wrong tier\n",
              static_cast<unsigned long long>(wrong_tier.load()));

  return balanced && memory_bound && pages_shared && wrong_tier.load() == 0
             ? 0
             : 1;
}
