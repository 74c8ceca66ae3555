// Serving throughput: dynamic batching and worker scaling.
//
// Three measurements over the same synthetic request mix:
//   1. sequential batch-1 baseline — a bare loop over forward(), the
//      single-stream deployment the paper's latency numbers describe;
//   2. engine-level batched throughput — forward_batch() on ragged
//      packed batches, isolating the packed-matmul win from the
//      serving machinery;
//   3. a one-lane ModelRouter under a closed-loop client, sweeping
//      worker count x max batch over a seq-length mix. This part is a
//      gate: it exits 1 when a batched row serves fewer req/s than the
//      batch=1 row at the same worker count, beyond a stated noise
//      floor.
//
// forward() runs the very same tile GEMM as forward_batch, so on one
// core the engine-level batching gain shrinks to amortized per-call
// overhead (~1.0-1.1x). bench_single_latency measures the
// batch-1 win of the unified path itself.
//
// The serving engine is built through the regular fast pipeline (train
// -> QAT -> convert); accuracy is irrelevant here, throughput is not.
//
//   ./build/bench/bench_serve_throughput [--fast]
#include <algorithm>
#include <chrono>
#include <thread>

#include "bench_common.h"
#include "serve/loadgen.h"
#include "serve/router/model_router.h"

namespace {

using namespace fqbert;
using namespace fqbert::bench;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<nn::Example> make_workload(const nn::BertConfig& cfg,
                                       const std::vector<int64_t>& mix,
                                       int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<nn::Example> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i)
    out.push_back(serve::synth_example(rng, rng.choice(mix), cfg));
  return out;
}

double sequential_rps(const core::FqBertModel& engine,
                      const std::vector<nn::Example>& workload) {
  const double t0 = now_s();
  for (const nn::Example& ex : workload) (void)engine.forward(ex);
  return static_cast<double>(workload.size()) / (now_s() - t0);
}

double batched_rps(const core::FqBertModel& engine,
                   const std::vector<nn::Example>& workload,
                   int64_t batch_size) {
  std::vector<const nn::Example*> batch;
  const double t0 = now_s();
  for (size_t i = 0; i < workload.size(); i += batch_size) {
    batch.clear();
    for (size_t j = i; j < std::min(workload.size(), i + batch_size); ++j)
      batch.push_back(&workload[j]);
    (void)engine.forward_batch(batch);
  }
  return static_cast<double>(workload.size()) / (now_s() - t0);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = fast_mode(argc, argv);
  const int requests_per_client = fast ? 120 : 300;

  std::printf("building serving engine (fast pipeline)...\n");
  serve::EngineRegistry registry;
  auto engine = pipeline::build_and_register_engine(
      registry, "bench", "sst2", core::FqQuantConfig::full(), /*fast=*/true);
  const nn::BertConfig& mcfg = engine->config();

  const std::vector<int64_t> seq_mix = {12, 16, 24};
  const std::vector<nn::Example> workload =
      make_workload(mcfg, seq_mix, fast ? 200 : 600, 99);

  print_rule();
  std::printf("engine-level throughput (no serving machinery), %zu "
              "requests, seq mix 12/16/24\n",
              workload.size());
  (void)sequential_rps(*engine, workload);  // warm caches
  const double seq_rps = sequential_rps(*engine, workload);
  std::printf("  sequential forward()     : %8.1f ex/s   <- batch-1 "
              "baseline\n",
              seq_rps);
  for (const int64_t b : {8, 16, 32}) {
    const double rps = batched_rps(*engine, workload, b);
    std::printf("  forward_batch(batch=%-2lld) : %8.1f ex/s   (%.2fx)\n",
                static_cast<long long>(b), rps, rps / seq_rps);
  }

  // Work-conserving batching only ever takes what is already queued,
  // so no max_batch may serve fewer req/s than max_batch=1 at the same
  // worker count. Each round runs a worker count's rows back to back,
  // batch=1 first, and scores every row against that round's batch=1
  // run, so machine-speed drift between rounds cancels. The gate fails
  // the run (exit 1) when a row's median ratio over the rounds falls
  // below 1 by more than kNoiseFloor. On a shared 4-core host one
  // round's ratio swings +-20% with nothing changed; the median of 7-9
  // rounds moves by ~5%, so the floor sits at three times that.
  constexpr double kNoiseFloor = 0.15;
  const int rounds = fast ? 7 : 9;
  const std::vector<int64_t> worker_counts = {1, 2, 4};
  const std::vector<int64_t> batch_sizes = {1, 8, 16};

  print_rule();
  std::printf("one-lane ModelRouter, closed loop: 16 clients x %d requests, "
              "median of %d rounds (hw threads: %u)\n",
              requests_per_client, rounds,
              std::thread::hardware_concurrency());

  serve::LoadgenConfig lcfg;
  lcfg.num_clients = 16;
  lcfg.requests_per_client = requests_per_client;
  lcfg.seq_len_mix = seq_mix;

  struct Row {
    int64_t workers, batch;
    std::vector<double> rps, vs_b1, p50_ms, p99_ms, occupancy;
  };
  std::vector<Row> rows;
  for (const int64_t w : worker_counts)
    for (const int64_t b : batch_sizes)
      rows.push_back(Row{w, b, {}, {}, {}, {}, {}});
  for (int r = 0; r < rounds; ++r) {
    double batch1_rps = 0.0;
    for (Row& row : rows) {
      serve::RouterConfig rcfg;
      rcfg.num_workers = static_cast<int>(row.workers);
      rcfg.max_batch = row.batch;
      serve::ModelRouter router(registry, rcfg);
      if (!router.add_model("bench")) return 1;
      router.start();
      const serve::LoadgenReport lg = serve::run_loadgen(router, mcfg, lcfg);
      router.shutdown(/*drain=*/true);
      const serve::ServeStats::Report st = *router.stats_report("bench");
      if (row.batch == 1) batch1_rps = lg.throughput_rps();
      row.rps.push_back(lg.throughput_rps());
      row.vs_b1.push_back(lg.throughput_rps() / batch1_rps);
      row.p50_ms.push_back(st.p50_ms);
      row.p99_ms.push_back(st.p99_ms);
      row.occupancy.push_back(st.mean_batch_occupancy);
    }
  }

  std::printf("%-8s %-6s %10s %9s %9s %10s %8s %8s\n", "workers", "batch",
              "req/s", "p50 ms", "p99 ms", "occupancy", "vs seq", "vs b=1");
  bool ok = true;
  for (const Row& row : rows) {
    const double rps = median(row.rps), vs_b1 = median(row.vs_b1);
    const bool below = vs_b1 < 1.0 - kNoiseFloor;
    std::printf("%-8lld %-6lld %10.1f %9.2f %9.2f %10.2f %7.2fx %7.2fx%s\n",
                static_cast<long long>(row.workers),
                static_cast<long long>(row.batch), rps, median(row.p50_ms),
                median(row.p99_ms), median(row.occupancy), rps / seq_rps,
                vs_b1, below ? "  BELOW" : "");
    if (below) ok = false;
  }

  print_rule();
  std::printf("gate: every row >= its batch=1 row at the same worker count "
              "minus the %.0f%% noise floor\n",
              kNoiseFloor * 100.0);
  if (std::thread::hardware_concurrency() <= 1)
    std::printf("note: 1 hardware thread — worker scaling needs cores; "
                "expect flat-to-noisy scaling here.\n");
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: a batched row serves fewer req/s than batch=1 at the "
                 "same worker count, beyond the %.0f%% noise floor\n",
                 kNoiseFloor * 100.0);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
