// perfbench_harness: runs one workload of the repository benchmark and
// prints every metric by name and unit, then one JSON result line.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --cli PATH --work DIR --record FILE
//
// With --trace 0 the run measures the end-to-end metrics (tracing off);
// with --trace 1 it measures the per-layer metrics (see METRICS.md).
// The run exits 1 when a check fails: a logit mismatch, an accounting
// imbalance, a percentile without enough samples beyond it, or a load
// generator that fell behind its schedule in every attempt.
//
//   perfbench_harness --engine-rss FILE
//
// loads the engine file, runs it and prints its own peak RSS: the
// engine-seqmix rss_mib, measured apart from the harness's inputs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_math.h"
#include "child.h"
#include "core_probe.h"
#include "engines.h"
#include "pipeline/pipeline.h"
#include "report.h"
#include "serve/build_info.h"
#include "serve/net/transport_client.h"
#include "wire.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using fqbert::core::FqBertModel;
using fqbert::nn::Example;
using fqbert::serve::RequestStatus;
using fqbert::serve::TraceStage;

// ---- Workload constants (see METRICS.md for why each was chosen) ----

// engine-seqmix: lengths uniform over 2..max_seq_len; a forward() call
// meets the limit below.
constexpr size_t kSeqmixStream = 1024;  // a multiple of 8
constexpr int64_t kMinPasses = 5;
constexpr double kEngineSloMs = 2.0;
constexpr int kEngineSetupReps = 101;

// wire-steady: one serve process, lengths 12/16/24, Poisson arrivals.
constexpr double kWireRateRps = 800.0;
constexpr double kWireSloMs = 10.0;
constexpr int kWireWindow = 4;

// proxy-bursty: on/off bursts at a fixed mean rate through the proxy,
// plus a MOVE_MODEL every kMovePeriodS.
constexpr double kProxyRateRps = 400.0;
constexpr double kBurstOnS = 0.3;
constexpr double kBurstOffS = 0.1;
constexpr double kProxySloMs = 25.0;
constexpr int kProxyWindow = 2;
constexpr double kMovePeriodS = 1.0;

constexpr int kServeSetupReps = 10;
constexpr size_t kLanePool = 256;
// Closed-loop rates are taken per window of kRateWindowS, and the run
// reports the 90th percentile over windows. The open loop replays one
// arrival schedule kOpenPasses times, and each request's latency is
// its best over the passes (bench_math.h).
constexpr double kRateWindowS = 0.1;
constexpr int64_t kFastWindows = 9000;
constexpr int kOpenPasses = 4;
// Load-generator health: an open-loop phase whose backlog grows steadily
// is invalid; it is reported and run again, at most kPhaseAttempts
// times in all, and the run fails when every attempt is invalid. The
// generator's lateness inside the reported latencies may be at most
// this share of the workload's latency limit at p99.
constexpr double kLateShareOfSlo = 0.25;
constexpr int kPhaseAttempts = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;
  std::string work;
  std::string record;
};

// ---- Run state -----------------------------------------------------------

struct Run {
  Args args;
  Report e2e;
  Report layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // any entry makes the run fail
  std::vector<std::string> notes;     // sample counts and context

  void problem(const std::string& p) { problems.push_back(p); }
  void note(const std::string& n) { notes.push_back(n); }

  // Set a percentile metric, noting its sample count; a percentile
  // without kMinBeyond samples beyond it fails the run.
  void pct(Report& r, const std::string& name, const std::vector<double>& v,
           int64_t q, const std::string& unit) {
    const Percentile p = percentile(v, q);
    r.set(name, p.value, unit);
    note(name + ": n=" + std::to_string(p.samples) + ", " +
         std::to_string(p.beyond) + " beyond");
    if (!p.supported)
      problem(name + ": only " + std::to_string(p.beyond) +
              " samples beyond the percentile (need " +
              std::to_string(kMinBeyond) + ")");
  }
};

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Stamps --------------------------------------------------------------

// Busy and stolen CPU ticks of the whole host so far (/proc/stat). The
// share of busy time the hypervisor stole during a run explains most of
// its noise, so the record keeps it.
struct CpuTicks {
  uint64_t busy = 0, steal = 0;
};
CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  return {user + nice + system + irq + softirq + steal, steal};
}

std::string isa_flags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("flags", 0) == 0) {
      std::string out;
      for (const char* f : {"avx2", "avx512bw", "avx512_vnni"})
        if ((" " + line + " ").find(std::string(" ") + f + " ") !=
            std::string::npos)
          out += (out.empty() ? "" : ",") + std::string(f);
      return out.empty() ? "none" : out;
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const Report& r) {
  std::string s = "{";
  bool first = true;
  for (const Metric& m : r.metrics()) {
    s += (first ? "" : ", ") + ("\"" + m.name + "\": {\"value\": ") +
         json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return s + "}";
}

// ---- Shared measurement pieces ---------------------------------------

// Outcome counts of one phase, as the client saw them.
struct ClientTally {
  uint64_t sent = 0, ok = 0, rejected = 0, timed_out = 0, failed = 0,
           mismatches = 0;
};

ClientTally tally(const PhaseResult& p) {
  ClientTally t;
  t.sent = p.sent();
  for (const Outcome& o : p.outcomes) {
    if (o.status == static_cast<uint8_t>(RequestStatus::kOk)) {
      ++t.ok;
      if (!o.logits_match) ++t.mismatches;
    } else if (o.status == static_cast<uint8_t>(RequestStatus::kTimedOut)) {
      ++t.timed_out;
    } else if (o.status == kTransportFailed ||
               o.status == static_cast<uint8_t>(RequestStatus::kEngineError) ||
               o.status == static_cast<uint8_t>(RequestStatus::kShutdown)) {
      ++t.failed;
    } else {
      ++t.rejected;
    }
  }
  return t;
}

void check_client_accounting(Run& run, const std::string& phase,
                             const ClientTally& t) {
  run.note(phase + ": sent " + std::to_string(t.sent) + ", ok " +
           std::to_string(t.ok) + ", rejected " + std::to_string(t.rejected) +
           ", timed out " + std::to_string(t.timed_out) + ", failed " +
           std::to_string(t.failed) + ", logit mismatches " +
           std::to_string(t.mismatches));
  if (t.sent != t.ok + t.rejected + t.timed_out + t.failed)
    run.problem(phase + ": client accounting does not balance");
  if (t.mismatches > 0)
    run.problem(phase + ": " + std::to_string(t.mismatches) +
                " responses with logits that differ from forward()");
  run.attempted += t.sent;
  run.failed += t.rejected + t.timed_out + t.failed + t.mismatches;
}

std::vector<double> open_loop_latency_ms(const PhaseResult& p) {
  std::vector<double> v;
  for (const Outcome& o : p.outcomes)
    if (o.status == static_cast<uint8_t>(RequestStatus::kOk))
      v.push_back(static_cast<double>(o.done_ns - o.due_ns) / 1e6);
  return v;
}

// Send to response of every OK request.
std::vector<double> sent_to_done_ms(const PhaseResult& p) {
  std::vector<double> v;
  for (const Outcome& o : p.outcomes)
    if (o.status == static_cast<uint8_t>(RequestStatus::kOk))
      v.push_back(static_cast<double>(o.done_ns - o.sent_ns) / 1e6);
  return v;
}

// Latency of each scheduled request (by due time) in one pass, -1 for a
// request that was not answered OK.
std::vector<double> latency_by_request_ms(const PhaseResult& p) {
  std::vector<double> v;
  for (const Outcome& o : p.outcomes)
    v.push_back(o.status == static_cast<uint8_t>(RequestStatus::kOk)
                    ? static_cast<double>(o.done_ns - o.due_ns) / 1e6
                    : -1.0);
  return v;
}

// Requests answered OK with the right logits within `limit_ms`, over
// every request of every pass.
double slo_ok_ratio(const std::vector<PhaseResult>& passes, double limit_ms) {
  uint64_t good = 0, sent = 0;
  for (const PhaseResult& p : passes) {
    sent += p.outcomes.size();
    for (const Outcome& o : p.outcomes)
      if (o.status == static_cast<uint8_t>(RequestStatus::kOk) &&
          o.logits_match &&
          static_cast<double>(o.done_ns - o.due_ns) / 1e6 <= limit_ms)
        ++good;
  }
  return sent > 0 ? static_cast<double>(good) / static_cast<double>(sent) : 0.0;
}

using SideStream = std::function<void(const std::atomic<bool>&)>;

// Run an open-loop phase until the generator's backlog does not grow
// steadily, at most kPhaseAttempts times. Every attempt's responses are
// checked and counted; only the last attempt is measured, and it fails
// the run when its backlog grew too. The generator's lateness is noted
// here and judged where latency is taken (best_pass_lateness).
PhaseResult open_phase(Run& run, const std::string& label,
                       const PhaseConfig& cfg, const std::vector<Lane>& lanes,
                       const SideStream& side) {
  PhaseResult r;
  for (int attempt = 1; attempt <= kPhaseAttempts; ++attempt) {
    const std::string name =
        attempt == 1 ? label
                     : label + " (attempt " + std::to_string(attempt) + ")";
    r = run_phase(cfg, lanes, side);
    check_client_accounting(run, name, tally(r));
    run.note(name + ": generator late p99 " +
             json_number(percentile(r.late_us, kP99).value) +
             " us, backlog max " + std::to_string(r.backlog_max));
    if (!r.backlog_growing) break;
    if (attempt < kPhaseAttempts)
      run.note(name + ": invalid, the generator's backlog grew steadily; "
                      "run again");
    else
      run.problem(name + ": the generator's backlog grew steadily; run invalid");
  }
  return r;
}

// The reported open-loop latencies are each request's best pass, timed
// from its due time, so any lateness of the generator in that pass is
// inside them. Its p99 over the requests must stay within `limit_us`,
// or the run is invalid.
void check_best_pass_lateness(Run& run, const std::vector<PhaseResult>& passes,
                              const std::vector<std::vector<double>>& by_request,
                              double limit_us) {
  const std::vector<int> k = best_pass(by_request);
  std::vector<double> late_us;
  for (size_t i = 0; i < k.size(); ++i)
    if (k[i] >= 0) {
      const Outcome& o = passes[static_cast<size_t>(k[i])].outcomes[i];
      late_us.push_back(static_cast<double>(o.sent_ns - o.due_ns) / 1e3);
    }
  const double p99 = percentile(late_us, kP99).value;
  run.note("generator lateness inside the reported latencies: p99 " +
           json_number(p99) + " us (limit " + json_number(limit_us) + " us)");
  if (p99 > limit_us)
    run.problem("the load generator ran late inside the reported latencies "
                "(p99 " + json_number(p99) + " us > " + json_number(limit_us) +
                " us); run invalid");
}

// Control calls (STATS, LIST, MOVE_MODEL) wait this long at most.
constexpr fqbert::serve::Micros kControlConnectTimeout{2'000'000};
constexpr fqbert::serve::Micros kControlReplyTimeout{30'000'000};

// Every lane's STATS on `port` must balance: admitted == completed +
// timed_out + failed. Adds the lanes' rejections and timeouts.
struct LaneTotals {
  uint64_t rejected = 0, timed_out = 0;
};
void check_lane_accounting(Run& run, uint16_t port, const std::string& who,
                           LaneTotals& totals) {
  net::TransportClient client;
  client.set_timeouts(kControlConnectTimeout, kControlReplyTimeout);
  const auto lanes = client.connect("127.0.0.1", port)
                         ? client.list_models_tiered()
                         : std::nullopt;
  if (!lanes) {
    run.problem(who + ": LIST failed: " + client.error());
    return;
  }
  for (const net::WireModelEntry& lane : *lanes) {
    const auto st = client.query_stats(lane.name, lane.tier);
    if (!st) {
      run.problem(who + ": STATS failed for " + lane.name + ": " +
                  client.error());
      continue;
    }
    const auto& r = st->report;
    run.note(who + " lane " + lane.name + "@int" + std::to_string(lane.tier) +
             ": admitted " + std::to_string(r.admitted) + " = completed " +
             std::to_string(r.completed) + " + timed out " +
             std::to_string(r.timed_out) + " + failed " +
             std::to_string(r.failed));
    if (!r.accounting_balances())
      run.problem(who + " lane " + lane.name + "@int" +
                  std::to_string(lane.tier) + ": accounting does not balance");
    totals.rejected += r.rejected_full + r.rejected_deadline +
                       r.rejected_invalid + r.rejected_closed;
    totals.timed_out += r.timed_out;
  }
}

// Stage stamps of one traced response, by stage (first occurrence).
struct Stamps {
  std::map<TraceStage, int64_t> at;
  int retries = 0;
  bool has(TraceStage s) const { return at.count(s) != 0; }
  int64_t operator[](TraceStage s) const { return at.at(s); }
};
Stamps stamps_of(const Outcome& o) {
  Stamps s;
  for (const auto& ev : o.stages) {
    if (ev.stage == TraceStage::kProxyRetry) ++s.retries;
    s.at.emplace(ev.stage, ev.t_us);
  }
  return s;
}

// Per-layer serving metrics from the stage stamps of traced responses.
void serving_layers(Run& run, const PhaseResult& traced, bool via_proxy) {
  std::vector<double> queue, dispatch, worker, batch, net_hop, shard_hop;
  int64_t retries = 0;
  for (const Outcome& o : traced.outcomes) {
    if (o.status != static_cast<uint8_t>(RequestStatus::kOk)) continue;
    const Stamps s = stamps_of(o);
    using T = TraceStage;
    if (!s.has(T::kAdmitted) || !s.has(T::kBatchFormed) ||
        !s.has(T::kWorkerStart) || !s.has(T::kWorkerEnd) ||
        !s.has(T::kResponded) ||
        (via_proxy && (!s.has(T::kProxyReceived) || !s.has(T::kProxyResponse)))) {
      run.problem("a traced response is missing stage stamps");
      return;
    }
    queue.push_back(static_cast<double>(s[T::kBatchFormed] - s[T::kAdmitted]));
    dispatch.push_back(
        static_cast<double>(s[T::kWorkerStart] - s[T::kBatchFormed]));
    worker.push_back(static_cast<double>(s[T::kWorkerEnd] - s[T::kWorkerStart]));
    batch.push_back(o.batch_size);
    const double wall_us = static_cast<double>(o.done_ns - o.sent_ns) / 1e3;
    const double backend_us =
        static_cast<double>(s[T::kResponded] - s[T::kAdmitted]);
    if (via_proxy) {
      const double proxy_us =
          static_cast<double>(s[T::kProxyResponse] - s[T::kProxyReceived]);
      net_hop.push_back(wall_us - proxy_us);
      shard_hop.push_back(proxy_us - backend_us);
      retries += s.retries;
    } else {
      net_hop.push_back(wall_us - backend_us);
    }
  }
  run.pct(run.layers, "router.queue_wait_us.p50", queue, kP50, "us");
  run.pct(run.layers, "router.queue_wait_us.p99", queue, kP99, "us");
  run.pct(run.layers, "router.dispatch_wait_us.p50", dispatch, kP50, "us");
  run.pct(run.layers, "router.dispatch_wait_us.p99", dispatch, kP99, "us");
  run.pct(run.layers, "router.worker_us.p50", worker, kP50, "us");
  run.pct(run.layers, "router.worker_us.p99", worker, kP99, "us");
  run.layers.set("router.batch_size_mean", mean(batch), "requests");
  run.pct(run.layers, "net.hop_us.p50", net_hop, kP50, "us");
  run.pct(run.layers, "net.hop_us.p99", net_hop, kP99, "us");
  if (via_proxy) {
    run.pct(run.layers, "shard.hop_us.p50", shard_hop, kP50, "us");
    run.pct(run.layers, "shard.hop_us.p99", shard_hop, kP99, "us");
    run.layers.set("shard.retries", static_cast<double>(retries), "count");
  }
}

// Layers a workload does not have report zero work.
void absent_layers(Report& r, bool router, bool shard) {
  if (!router) {
    for (const char* n :
         {"router.queue_wait_us.p50", "router.queue_wait_us.p99",
          "router.dispatch_wait_us.p50", "router.dispatch_wait_us.p99",
          "router.worker_us.p50", "router.worker_us.p99", "net.hop_us.p50",
          "net.hop_us.p99", "loadgen.late_us_p99"})
      r.set(n, 0.0, "us");
    r.set("router.batch_size_mean", 0.0, "requests");
    r.set("router.rejected", 0.0, "count");
    r.set("router.timed_out", 0.0, "count");
    r.set("loadgen.backlog_max", 0.0, "requests");
  }
  if (!shard) {
    r.set("shard.hop_us.p50", 0.0, "us");
    r.set("shard.hop_us.p99", 0.0, "us");
    r.set("shard.retries", 0.0, "count");
    r.set("shard.migration_ms", 0.0, "ms");
    r.set("shard.migration_failed", 0.0, "count");
  }
}

// Engine and accelerator layers, measured in-process on `engine` with
// the workload's own examples (trace runs of every workload). Returns
// the forward() decomposition behind the core.* metrics.
Decomposition engine_layers(Run& run, const FqBertModel& engine,
                            const std::vector<Example>& examples,
                            double seconds) {
  const Decomposition d = decompose_forward(engine, examples, seconds * 0.5);
  const int64_t layers = engine.config().num_layers;
  const Reconciliation rc =
      reconcile(d.embed_us, d.layer_us, layers, d.head_us, d.forward_us);
  run.layers.set("core.forward_us", d.forward_us, "us");
  run.layers.set("core.embed_us", d.embed_us, "us");
  run.layers.set("core.encoder_layer_us", d.layer_us, "us");
  run.layers.set("core.head_us", d.head_us, "us");
  run.layers.set("core.unattributed_us", rc.unattributed_us, "us");
  run.note("core decomposition: " + std::to_string(d.examples) +
           " examples; embed + " + std::to_string(layers) +
           " x layer + head = " + json_number(rc.parts_us) +
           " us vs forward() " + json_number(d.forward_us) + " us (" +
           json_number(rc.err_pct) + "% apart, tolerance " +
           json_number(kReconcileTolPct) + "%)");
  if (!rc.ok)
    run.problem("embed + layers + head do not reconcile with forward() "
                "within " + json_number(kReconcileTolPct) + "%");
  if (d.mismatches > 0)
    run.problem("embed_into/layer/head_row logits differ from forward()");
  if (replay_layer(engine, 16, seconds * 0.25, run.layers) +
          replay_layer(engine, 32, seconds * 0.25, run.layers) >
      0)
    run.problem("op replay does not reproduce FqEncoderLayer::forward");

  const AccelResult a = accel_models(
      engine, std::vector<Example>(examples.begin(), examples.begin() + 4));
  for (const auto& [stage, cycles] : a.stage_cycles)
    run.layers.set("accel.stage_cycles." + stage, static_cast<double>(cycles),
                   "cycles");
  run.layers.set("accel.stall_cycles", static_cast<double>(a.stall_cycles),
                 "cycles");
  run.layers.set("accel.fullsim_host_ms", a.fullsim_host_ms, "ms");
  if (a.mismatches > 0)
    run.problem("run_full_model logits differ from the engine's");
  return d;
}

// sim_* metrics, identical on every workload.
void accel_e2e(Run& run, const FqBertModel& engine,
               const std::vector<Example>& examples) {
  const AccelResult a = accel_models(
      engine, std::vector<Example>(examples.begin(), examples.begin() + 2));
  run.e2e.set("sim_zcu111_ms", a.sim_ms, "sim_ms");
  run.e2e.set("sim_fps_per_w", a.fps_per_w, "fps/W");
  run.note("PerfModel BERT-base S=128 ZCU111(16,16): " + json_number(a.sim_ms) +
           " ms (paper 23.79 ms, error " +
           json_number(100.0 * (a.sim_ms - kPaperZcu111Ms) / kPaperZcu111Ms) +
           "%), " + json_number(a.fps_per_w) + " fps/W (paper 3.18, error " +
           json_number(100.0 * (a.fps_per_w - kPaperZcu111FpsPerW) /
                       kPaperZcu111FpsPerW) +
           "%)");
  if (a.mismatches > 0)
    run.problem("run_full_model logits differ from the engine's");
}

// ---- engine-seqmix -------------------------------------------------------

// The harness's own process holds the benchmark's inputs, expected
// logits and samples besides the engine, so the engine's memory is
// measured in a process of its own: the harness run as
// `--engine-rss FILE` loads the engine, derives its int8 tier, runs
// both tiers and prints its peak RSS after this marker.
constexpr const char* kEngineRssMarker = "engine peak rss kib ";

int engine_rss_main(const std::string& path) {
  LoadedEngine eng = load_engine(path, 8);
  const auto config = fqbert::pipeline::mini_config(2);
  const std::vector<Example> examples =
      make_examples(1, 8, lengths_between(2, config.max_seq_len), config);
  for (const FqBertModel* m : {&eng.native, &eng.derived}) {
    for (const Example& e : examples) (void)m->forward(e);
    (void)m->forward_batch(examples);
  }
  std::printf("%s%lld\n", kEngineRssMarker,
              static_cast<long long>(self_peak_rss_kib()));
  std::fflush(stdout);
  return 0;
}

// Peak RSS in KiB of the `--engine-rss` process on `path`; 0 on failure.
int64_t engine_peak_rss_kib(const Args& a, const std::string& path) {
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return 0;
  exe[n] = '\0';
  Child child;
  if (!child.spawn({exe, "--engine-rss", path}, a.work + "/engine-rss.log"))
    return 0;
  const std::string line =
      child.wait_for_line(kEngineRssMarker, std::chrono::seconds(60));
  const size_t at = line.find(kEngineRssMarker);
  return at == std::string::npos
             ? 0
             : std::atoll(line.c_str() + at + std::strlen(kEngineRssMarker));
}

void run_engine_seqmix(Run& run) {
  const Args& a = run.args;
  const std::string path = write_engine_file(a.work, "mA", 7);
  if (path.empty()) {
    run.problem("cannot write the engine file");
    return;
  }
  const auto config = fqbert::pipeline::mini_config(2);
  const std::vector<Example> stream =
      make_examples(a.seed, kSeqmixStream, lengths_between(2, config.max_seq_len),
                    config);

  // Set-up: engine load + int8 tier derivation, repeated; the first
  // forward() after each load is the first response.
  std::vector<double> setup_s, load_ms, derive_ms, first_ms;
  LoadedEngine eng;
  for (int r = 0; r < kEngineSetupReps; ++r) {
    eng = load_engine(path, 8);
    const auto t0 = Clock::now();
    (void)eng.derived.forward(stream[0]);
    first_ms.push_back(secs_since(t0) * 1e3);
    setup_s.push_back((eng.load_ms + eng.derive_ms) / 1e3);
    load_ms.push_back(eng.load_ms);
    derive_ms.push_back(eng.derive_ms);
  }
  run.note("setup: " + std::to_string(kEngineSetupReps) + " load+derive reps");
  const double weight_kib =
      static_cast<double>(eng.native.resident_weight_bytes() +
                          eng.derived.resident_weight_bytes()) /
      1024.0;

  if (!a.trace) {
    run.e2e.set("setup_s", median(setup_s), "s");
    // Best of passes (core_probe.h): pass after pass over the whole
    // stream, alternating the tiers so both sample the same host
    // conditions. Each pass runs every example through forward() and
    // every group of 8 through forward_batch.
    const std::vector<std::vector<float>> expected[2] = {
        expected_logits(eng.native, stream),
        expected_logits(eng.derived, stream)};
    BestOfPasses best[2] = {{eng.native, stream, expected[0]},
                            {eng.derived, stream, expected[1]}};
    const auto t_start = Clock::now();
    while (best[0].passes() < kMinPasses ||
           secs_since(t_start) < a.seconds * 0.9)
      for (BestOfPasses& b : best) b.pass(true);
    std::vector<double> best_ms, calls_ms;
    int64_t examples_run = 0, mismatches = 0;
    for (const BestOfPasses& b : best) {
      for (const double us : b.forward_us()) best_ms.push_back(us / 1e3);
      calls_ms.insert(calls_ms.end(), b.calls_ms().begin(), b.calls_ms().end());
      examples_run += b.examples_run();
      mismatches += b.mismatches();
    }
    run.note("best of " + std::to_string(best[0].passes()) + " passes over " +
             std::to_string(stream.size()) + " examples x 2 tiers; " +
             std::to_string(calls_ms.size()) + " forward() calls, " +
             std::to_string(mismatches) + " logit mismatches");
    run.pct(run.e2e, "lat_p50_ms", best_ms, kP50, "ms");
    run.pct(run.e2e, "lat_p99_ms", best_ms, kP99, "ms");
    uint64_t within = 0;
    for (const double l : calls_ms) within += l <= kEngineSloMs ? 1 : 0;
    run.e2e.set("slo_ok_ratio",
                static_cast<double>(within) / static_cast<double>(calls_ms.size()),
                "ratio");
    // Both tiers run the same examples: examples over summed best time.
    run.e2e.set("sat_rps",
                2.0 / (1.0 / best[0].forward_rps() + 1.0 / best[1].forward_rps()),
                "1/s");
    run.e2e.set("batch8_rps",
                2.0 / (1.0 / best[0].batch_rps() + 1.0 / best[1].batch_rps()),
                "1/s");
    if (mismatches > 0)
      run.problem("forward()/forward_batch logits differ from the first "
                  "forward() of the same example");
    run.attempted += static_cast<uint64_t>(examples_run);
    run.failed += static_cast<uint64_t>(mismatches);
    run.e2e.set("ok_ratio",
                1.0 - static_cast<double>(run.failed) /
                          static_cast<double>(run.attempted),
                "ratio");
    const int64_t rss_kib = engine_peak_rss_kib(a, path);
    if (rss_kib <= 0) run.problem("the engine process reported no peak RSS");
    run.e2e.set("rss_mib", static_cast<double>(rss_kib) / 1024.0, "MiB");
    run.e2e.set("weight_kib", weight_kib, "KiB");
    accel_e2e(run, eng.native, stream);
    return;
  }

  // Traced: forward() split into its public parts on the int4 engine;
  // the timed parts against the untimed whole are the tracing overhead.
  const Decomposition d = engine_layers(run, eng.native, stream, a.seconds * 0.9);
  run.layers.set("trace.overhead_pct",
                 100.0 * (d.parts_p50_us / d.forward_p50_us - 1.0), "%");
  run.layers.set("setup.engine_load_ms", median(load_ms), "ms");
  run.layers.set("setup.tier_derive_ms", median(derive_ms), "ms");
  run.layers.set("setup.first_response_ms", median(first_ms), "ms");
  absent_layers(run.layers, /*router=*/false, /*shard=*/false);
  run.attempted += static_cast<uint64_t>(d.examples);
}

// ---- Serving workloads ---------------------------------------------------

// One set of serving processes. Destroying it stops them, all at once.
struct Fleet {
  std::vector<std::unique_ptr<Child>> procs;
  uint16_t port = 0;  // where clients connect
  uint16_t backend_ports[2] = {0, 0};

  Fleet() = default;
  ~Fleet() {
    for (const auto& p : procs) p->request_stop();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  int64_t peak_rss_kib() const {
    int64_t kib = 0;
    for (const auto& p : procs) kib += p->peak_rss_kib();
    return kib;
  }
};

uint16_t port_from_line(const std::string& line, const std::string& marker) {
  const size_t at = line.find(marker);
  if (at == std::string::npos) return 0;
  const size_t colon = line.find(':', at + marker.size());
  if (colon == std::string::npos) return 0;
  return static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
}

// `serve --listen 0` at the shipped defaults; returns its port, 0 on
// failure.
uint16_t spawn_server(Fleet& f, const Args& a, const std::string& log,
                      const std::string& model_spec) {
  auto child = std::make_unique<Child>();
  if (!child->spawn({a.cli, "serve", "--listen", "0", "--model", model_spec},
                    a.work + "/" + log))
    return 0;
  const uint16_t port = port_from_line(
      child->wait_for_line("listening on ", std::chrono::seconds(60)),
      "listening on ");
  f.procs.push_back(std::move(child));
  return port;
}

std::string addr(uint16_t port) { return "127.0.0.1:" + std::to_string(port); }

bool start_wire(Fleet& f, const Args& a, const std::string& file, int rep) {
  f.port = spawn_server(f, a, "serve-" + std::to_string(rep) + ".log",
                        "mA=" + file);
  return f.port != 0;
}

bool start_proxy(Fleet& f, const Args& a, const std::string& file_a,
                 const std::string& file_b, int rep) {
  const std::string r = std::to_string(rep);
  f.backend_ports[0] =
      spawn_server(f, a, "backend-a-" + r + ".log", "mA=" + file_a + "@int4,int8");
  f.backend_ports[1] =
      spawn_server(f, a, "backend-b-" + r + ".log", "mB=" + file_b + "@int4,int8");
  if (f.backend_ports[0] == 0 || f.backend_ports[1] == 0) return false;
  const uint16_t port = free_loopback_port();
  auto proxy = std::make_unique<Child>();
  if (!proxy->spawn({a.cli, "proxy", "--listen", std::to_string(port),
                     "--backend", addr(f.backend_ports[0]) + "=mA@int4,mA@int8",
                     "--backend", addr(f.backend_ports[1]) + "=mB@int4,mB@int8"},
                    a.work + "/proxy-" + r + ".log"))
    return false;
  const bool up =
      !proxy->wait_for_line("shard proxy on", std::chrono::seconds(60)).empty();
  f.procs.push_back(std::move(proxy));
  f.port = port;
  return up;
}

struct ServingSpec {
  bool via_proxy = false;
  double rate_rps = 0.0;
  double burst_on_s = 0.0, burst_off_s = 0.0;
  double slo_ms = 0.0;
  int window = 1;
};

// MOVE_MODEL stream: the int8 tier of mB hops from backend B to A and
// back, one move every kMovePeriodS of each phase. The log carries the
// successful-move count across phases, so each move starts where the
// previous one left the tier.
struct MoveLog {
  std::vector<double> ms;
  int64_t failed = 0;
  int64_t moved = 0;
  std::string last_error;
};

SideStream move_stream(const Fleet& f, const std::string& file_b,
                       MoveLog& log) {
  return [&f, file_b, &log](const std::atomic<bool>& done) {
    net::TransportClient client;
    client.set_timeouts(kControlConnectTimeout, kControlReplyTimeout);
    const auto t0 = Clock::now();
    int tries = 0;
    while (!done) {
      if (secs_since(t0) < kMovePeriodS * (tries + 0.5)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      ++tries;
      const bool to_a = log.moved % 2 == 0;
      const uint16_t from = f.backend_ports[to_a ? 1 : 0];
      const uint16_t to = f.backend_ports[to_a ? 0 : 1];
      // Moving to A loads the file there. Moving back passes no path:
      // B kept the engine loaded, because mB@int4 stays placed on B.
      std::string message;
      const auto m0 = Clock::now();
      const bool ok =
          (client.connected() || client.connect("127.0.0.1", f.port)) &&
          client.move_model("mB", 8, addr(from), addr(to), to_a ? file_b : "",
                            &message);
      if (!ok && message.empty()) message = client.error();
      log.ms.push_back(secs_since(m0) * 1e3);
      if (ok) {
        ++log.moved;
      } else {
        ++log.failed;
        log.last_error = message;
      }
    }
  };
}

void run_serving(Run& run, const ServingSpec& spec) {
  const Args& a = run.args;
  const auto config = fqbert::pipeline::mini_config(2);
  const std::string file_a = write_engine_file(a.work, "mA", 7);
  const std::string file_b =
      spec.via_proxy ? write_engine_file(a.work, "mB", 8) : "";
  if (file_a.empty() || (spec.via_proxy && file_b.empty())) {
    run.problem("cannot write the engine files");
    return;
  }

  // In-process copies of every served tier: the logit oracle.
  LoadedEngine eng_a = load_engine(file_a, spec.via_proxy ? 8 : 0);
  LoadedEngine eng_b;
  if (spec.via_proxy) eng_b = load_engine(file_b, 8);
  const std::vector<int64_t> lengths = spec.via_proxy
                                           ? lengths_between(2, config.max_seq_len)
                                           : std::vector<int64_t>{12, 16, 24};
  std::vector<Lane> lanes;
  const auto add_lane = [&](const std::string& model, uint8_t tier,
                            const FqBertModel& engine) {
    Lane l;
    l.model = model;
    l.tier = tier;
    l.examples = make_examples(a.seed * 31 + lanes.size(), kLanePool, lengths,
                               config);
    l.expected = expected_logits(engine, l.examples);
    lanes.push_back(std::move(l));
  };
  double weight_kib = 0.0;
  if (spec.via_proxy) {
    add_lane("mA", 4, eng_a.native);
    add_lane("mA", 8, eng_a.derived);
    add_lane("mB", 4, eng_b.native);
    add_lane("mB", 8, eng_b.derived);
    weight_kib = static_cast<double>(eng_a.native.resident_weight_bytes() +
                                     eng_a.derived.resident_weight_bytes() +
                                     eng_b.native.resident_weight_bytes() +
                                     eng_b.derived.resident_weight_bytes()) /
                 1024.0;
  } else {
    add_lane("mA", 0, eng_a.native);
    weight_kib =
        static_cast<double>(eng_a.native.resident_weight_bytes()) / 1024.0;
  }

  // Set-up, repeated: spawn the processes, then probe every lane.
  std::vector<double> setup_s, first_ms;
  std::unique_ptr<Fleet> fleet;
  for (int r = 0; r < kServeSetupReps; ++r) {
    fleet = std::make_unique<Fleet>();
    const auto t0 = Clock::now();
    const bool up = spec.via_proxy
                        ? start_proxy(*fleet, a, file_a, file_b, r)
                        : start_wire(*fleet, a, file_a, r);
    const ProbeTimes pt =
        up ? probe_lanes(fleet->port, lanes, t0, std::chrono::seconds(60))
           : ProbeTimes{};
    if (pt.all_s < 0.0) {
      run.problem("serving processes did not come up (see the logs in " +
                  a.work + ")");
      return;
    }
    setup_s.push_back(pt.all_s);
    first_ms.push_back(pt.first_s * 1e3);
    if (r + 1 < kServeSetupReps) fleet.reset();
  }
  run.note("setup: " + std::to_string(kServeSetupReps) +
           " spawn-to-all-lanes-OK reps");

  PhaseConfig open;
  open.open_loop = true;
  open.port = fleet->port;
  open.seed = a.seed;
  open.rate_rps = spec.rate_rps;
  open.burst_on_s = spec.burst_on_s;
  open.burst_off_s = spec.burst_off_s;
  PhaseConfig closed = open;
  closed.open_loop = false;
  closed.window = spec.window;

  // Warm-up (not counted): caches, connections, worker scratch.
  PhaseConfig warm = closed;
  warm.seconds = 0.3;
  warm.seed = a.seed + 7777;
  (void)run_phase(warm, lanes);

  MoveLog moves;
  const SideStream side =
      spec.via_proxy ? move_stream(*fleet, file_b, moves) : SideStream{};
  LaneTotals lane_totals;
  const auto lane_accounting = [&] {
    if (spec.via_proxy) {
      check_lane_accounting(run, fleet->backend_ports[0], "backend A", lane_totals);
      check_lane_accounting(run, fleet->backend_ports[1], "backend B", lane_totals);
    } else {
      check_lane_accounting(run, fleet->port, "server", lane_totals);
    }
  };
  const auto moves_done = [&] {
    run.attempted += moves.ms.size();
    run.failed += static_cast<uint64_t>(moves.failed);
    run.note("MOVE_MODEL: " + std::to_string(moves.ms.size()) + " moves, " +
             std::to_string(moves.failed) + " failed");
    if (moves.failed > 0)
      run.problem("MOVE_MODEL failed: " + moves.last_error);
  };

  if (!a.trace) {
    run.e2e.set("setup_s", median(setup_s), "s");
    // forward_batch in-process on the served engine and mix (the metric
    // exists on every workload), best of passes (core_probe.h) in three
    // slices spread over the run. The servers are idle meanwhile.
    BestOfPasses batch_best(eng_a.native, lanes[0].examples,
                            lanes[0].expected);
    const auto batch_slice = [&] {
      const auto b0 = Clock::now();
      while (secs_since(b0) < a.seconds * 0.04) batch_best.pass(false);
    };
    batch_slice();
    // Open loop: one arrival schedule (the same seed gives the same
    // arrivals, lanes and examples) replayed kOpenPasses times.
    open.seconds = a.seconds * 0.6 / kOpenPasses;
    std::vector<PhaseResult> passes;
    for (int p = 1; p <= kOpenPasses; ++p)
      passes.push_back(open_phase(run, "open loop pass " + std::to_string(p),
                                  open, lanes, side));
    batch_slice();
    closed.seconds = a.seconds * 0.2;
    const PhaseResult c = run_phase(closed, lanes);
    batch_slice();
    check_client_accounting(run, "saturation", tally(c));
    if (spec.via_proxy) moves_done();
    lane_accounting();
    run.e2e.set("rss_mib", static_cast<double>(fleet->peak_rss_kib()) / 1024.0,
                "MiB");
    fleet.reset();

    // Each request's best latency over the passes: a host stall rarely
    // meets the same request in every pass, while the queueing the
    // schedule itself causes recurs in each.
    std::vector<std::vector<double>> by_request;
    std::vector<double> every;
    for (const PhaseResult& p : passes) {
      by_request.push_back(latency_by_request_ms(p));
      const std::vector<double> l = open_loop_latency_ms(p);
      every.insert(every.end(), l.begin(), l.end());
    }
    const std::vector<double> lat = best_over_passes(by_request);
    check_best_pass_lateness(run, passes, by_request,
                             kLateShareOfSlo * spec.slo_ms * 1e3);
    run.pct(run.e2e, "lat_p50_ms", lat, kP50, "ms");
    run.pct(run.e2e, "lat_p99_ms", lat, kP99, "ms");
    run.note("every open-loop sample of every pass: p50 " +
             json_number(percentile(every, kP50).value) + " ms, p99 " +
             json_number(percentile(every, kP99).value) + " ms (n=" +
             std::to_string(every.size()) + ")");
    run.e2e.set("slo_ok_ratio", slo_ok_ratio(passes, spec.slo_ms), "ratio");
    std::vector<int64_t> ok_at;
    for (const Outcome& out : c.outcomes)
      if (out.status == static_cast<uint8_t>(RequestStatus::kOk))
        ok_at.push_back(out.done_ns);
    const std::vector<double> rates =
        window_rates(ok_at, 0, static_cast<int64_t>(closed.seconds * 1e9),
                     static_cast<int64_t>(kRateWindowS * 1e9));
    run.note("sat_rps: 90th percentile over " + std::to_string(rates.size()) +
             " windows of " + json_number(kRateWindowS) + " s (median " +
             json_number(median(rates)) + ")");
    run.e2e.set("sat_rps", quantile(rates, kFastWindows), "1/s");
    run.note("batch8_rps: best of " + std::to_string(batch_best.passes()) +
             " passes over " + std::to_string(lanes[0].examples.size()) +
             " examples, " + std::to_string(batch_best.mismatches()) +
             " logit mismatches");
    if (batch_best.mismatches() > 0)
      run.problem("forward_batch logits differ from forward()");
    run.attempted += static_cast<uint64_t>(batch_best.examples_run());
    run.failed += static_cast<uint64_t>(batch_best.mismatches());
    run.e2e.set("batch8_rps", batch_best.batch_rps(), "1/s");
    run.e2e.set("ok_ratio",
                1.0 - static_cast<double>(run.failed) /
                          static_cast<double>(run.attempted),
                "ratio");
    run.e2e.set("weight_kib", weight_kib, "KiB");
    accel_e2e(run, eng_a.native, lanes[0].examples);
    return;
  }

  // Traced run: the same open-loop schedule untraced, then traced.
  open.seconds = a.seconds * 0.25;
  const PhaseResult plain = open_phase(run, "untraced", open, lanes, side);
  open.traced = true;
  open.seconds = a.seconds * 0.45;
  const PhaseResult traced = open_phase(run, "traced", open, lanes, side);
  if (spec.via_proxy) moves_done();
  lane_accounting();
  fleet.reset();

  serving_layers(run, traced, spec.via_proxy);
  run.layers.set("router.rejected", static_cast<double>(lane_totals.rejected),
                 "count");
  run.layers.set("router.timed_out", static_cast<double>(lane_totals.timed_out),
                 "count");
  if (spec.via_proxy) {
    run.layers.set("shard.migration_ms", median(moves.ms), "ms");
    run.layers.set("shard.migration_failed", static_cast<double>(moves.failed),
                   "count");
  }
  std::vector<double> late = plain.late_us;
  late.insert(late.end(), traced.late_us.begin(), traced.late_us.end());
  run.layers.set("loadgen.late_us_p99", percentile(late, kP99).value, "us");
  run.layers.set("loadgen.backlog_max",
                 static_cast<double>(std::max(plain.backlog_max, traced.backlog_max)),
                 "requests");
  // The traced run times requests from their send, not their due time
  // (net.hop_us too), so the generator's lateness cannot enter its
  // metrics; loadgen.late_us_p99 reports it.
  const double p50_plain = median(sent_to_done_ms(plain));
  const double p50_traced = median(sent_to_done_ms(traced));
  run.layers.set("trace.overhead_pct", 100.0 * (p50_traced / p50_plain - 1.0),
                 "%");
  run.layers.set("setup.engine_load_ms", eng_a.load_ms, "ms");
  run.layers.set("setup.tier_derive_ms", eng_a.derive_ms, "ms");
  run.layers.set("setup.first_response_ms", median(first_ms), "ms");
  engine_layers(run, eng_a.native, lanes[0].examples, a.seconds * 0.2);
  absent_layers(run.layers, /*router=*/true, /*shard=*/spec.via_proxy);
}

// ---- Output ----------------------------------------------------------

void print_and_record(const Run& run) {
  const Args& a = run.args;
  const Report& shown = a.trace ? run.layers : run.e2e;
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  for (const std::string& n : run.notes) std::printf("  %s\n", n.c_str());
  for (const Metric& m : shown.metrics())
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& p : run.problems)
    std::printf("  FAILED CHECK: %s\n", p.c_str());

  const bool correct = run.problems.empty();
  if (!a.record.empty()) {
    std::ofstream out(a.record);
    out << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
        << ", \"seconds\": " << json_number(a.seconds)
        << ", \"trace\": " << (a.trace ? 1 : 0)
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"isa\": \"" << isa_flags() << "\", \"compiler\": \""
        << json_escape(fqbert::serve::build_compiler()) << "\", \"git_sha\": \""
        << json_escape(fqbert::serve::build_git_sha()) << "\", \"correct\": "
        << (correct ? "true" : "false") << ", \"notes\": [";
    for (size_t i = 0; i < run.notes.size(); ++i)
      out << (i ? ", " : "") << "\"" << json_escape(run.notes[i]) << "\"";
    out << "], \"problems\": [";
    for (size_t i = 0; i < run.problems.size(); ++i)
      out << (i ? ", " : "") << "\"" << json_escape(run.problems[i]) << "\"";
    out << "], \"metrics\": " << metrics_json(shown) << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, run.attempted)),
              static_cast<unsigned long long>(run.failed),
              metrics_json(shown).c_str());
  std::fflush(stdout);
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--cli") a->cli = v;
    else if (k == "--work") a->work = v;
    else if (k == "--record") a->record = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->work.empty() &&
         a->seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 3 && std::string(argv[1]) == "--engine-rss")
    return engine_rss_main(argv[2]);
  Run run;
  if (!parse_args(argc, argv, &run.args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload NAME --seed N --seconds S "
                 "--trace 0|1 --cli PATH --work DIR [--record FILE]\n");
    return 2;
  }
  const CpuTicks before = cpu_ticks();
  const std::string& w = run.args.workload;
  if (w == "engine-seqmix") {
    run_engine_seqmix(run);
  } else if (w == "wire-steady") {
    run_serving(run, {false, kWireRateRps, 0.0, 0.0, kWireSloMs, kWireWindow});
  } else if (w == "proxy-bursty") {
    run_serving(run, {true, kProxyRateRps, kBurstOnS, kBurstOffS, kProxySloMs,
                      kProxyWindow});
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", w.c_str());
    return 2;
  }
  const CpuTicks after = cpu_ticks();
  const uint64_t busy = after.busy - before.busy;
  run.note("host: " +
           json_number(busy > 0 ? 100.0 * static_cast<double>(after.steal -
                                                               before.steal) /
                                      static_cast<double>(busy)
                                : 0.0) +
           "% of busy CPU time stolen by the hypervisor during the run");
  print_and_record(run);
  return run.problems.empty() ? 0 : 1;
}
