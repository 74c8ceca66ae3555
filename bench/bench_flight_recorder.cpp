// Flight-recorder performance contract. The journal is always-on in
// production, so this bench does not merely report — it FAILS (exit 1)
// a Release build that breaks either bound:
//
//   1. record() must cost <= 100 ns/event on the hot path (thread-local
//      ring lookup + clock_gettime + uncontended mutex + slot write);
//   2. a one-lane ModelRouter's p50 with the recorder enabled must stay
//      within 2% of the same router with record() short-circuited
//      (set_enabled(false) — the A/B switch exists for this bench).
//
// The A/B runs interleave off,on,off,on,...,off and each ON run is
// judged against the geometric mean of its neighboring OFF runs, so a
// monotone machine-speed trend cancels to first order; the verdict is
// the median ratio across ON runs, gated at the 2% bound plus a noise
// floor the bench measures on itself (the same estimator applied to
// OFF-vs-OFF runs, where the true delta is zero by construction). The
// gates only arm under NDEBUG: a Debug or sanitizer build is allowed
// to be slow, and prints results only.
//
//   ./build/bench/bench_flight_recorder [--fast]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/flight_recorder.h"
#include "serve/loadgen.h"
#include "serve/router/model_router.h"

namespace {

using namespace fqbert;
using namespace fqbert::bench;
using serve::FlightEventType;
using serve::FlightRecorder;

constexpr double kMaxNsPerEvent = 100.0;
constexpr double kMaxP50Penalty = 0.02;  // 2%

/// One timed burst of record() calls; returns ns/event.
double record_burst_ns(size_t iters) {
  FlightRecorder& rec = FlightRecorder::instance();
  const uint64_t t0 = serve::flight_now_ns();
  for (size_t i = 0; i < iters; ++i)
    rec.record(FlightEventType::kRequestAdmitted, "bench", /*trace_id=*/i,
               /*tier=*/8, /*detail=*/0, /*a=*/static_cast<uint32_t>(i),
               /*b=*/i);
  const uint64_t t1 = serve::flight_now_ns();
  return static_cast<double>(t1 - t0) / static_cast<double>(iters);
}

/// One closed-loop serve run; returns the exact sample p50 in ms,
/// computed from the raw per-request rows. The router's own sketch is
/// mergeable-but-bucketed (~6% relative error per bucket), far coarser
/// than the 2% bound this bench enforces, so it cannot be the ruler.
double serve_p50_ms(serve::EngineRegistry& registry,
                    const nn::BertConfig& mcfg,
                    const serve::LoadgenConfig& lcfg) {
  serve::RouterConfig rcfg;
  rcfg.num_workers = 2;
  rcfg.max_batch = 8;
  serve::ModelRouter router(registry, rcfg);
  if (!router.add_model("bench")) {
    std::fprintf(stderr, "FAIL: cannot open the bench lane\n");
    std::exit(1);
  }
  router.start();
  const serve::LoadgenReport report = serve::run_loadgen(router, mcfg, lcfg);
  router.shutdown(/*drain=*/true);
  std::vector<int64_t> lat;
  lat.reserve(report.records.size());
  for (const serve::RequestRecord& r : report.records)
    if (r.status == serve::RequestStatus::kOk) lat.push_back(r.latency_us);
  if (lat.empty()) return 0.0;
  std::sort(lat.begin(), lat.end());
  return static_cast<double>(lat[lat.size() / 2]) / 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = fast_mode(argc, argv);
  FlightRecorder& rec = FlightRecorder::instance();

  // --- contract 1: raw cost per event -------------------------------
  const size_t burst = fast ? 200'000 : 1'000'000;
  const int trials = fast ? 3 : 5;
  (void)record_burst_ns(burst / 10);  // warm the ring claim + caches
  double best_ns = record_burst_ns(burst);
  for (int t = 1; t < trials; ++t)
    best_ns = std::min(best_ns, record_burst_ns(burst));
  std::printf("record(): %.1f ns/event (min of %d x %zu, bound %.0f)\n",
              best_ns, trials, burst, kMaxNsPerEvent);

  // --- contract 2: end-to-end p50 delta -----------------------------
  print_rule();
  std::printf("building serving engine (fast pipeline)...\n");
  serve::EngineRegistry registry;
  auto engine = pipeline::build_and_register_engine(
      registry, "bench", "sst2", core::FqQuantConfig::full(), /*fast=*/true);
  const nn::BertConfig& mcfg = engine->config();

  // Light load on purpose: a deep closed-loop queue would amplify every
  // scheduling hiccup into the p50 (queueing delay swamps service
  // time), drowning a small per-request overhead. Two clients keep the
  // latency compute-dominated, which is exactly where a recorder tax
  // would show.
  serve::LoadgenConfig lcfg;
  lcfg.num_clients = 4;
  lcfg.requests_per_client = fast ? 150 : 300;
  lcfg.seq_len_mix = {12, 16, 24};
  lcfg.collect_records = true;  // exact sample p50, not the sketch

  // Drift-cancelling interleave: runs alternate off,on,off,on,...,off
  // and each ON run is compared against the geometric mean of its two
  // neighboring OFF runs. A monotone warm-up or cool-down trend (the
  // dominant error on a one-core container, where it otherwise leaks
  // straight into a naive pairwise comparison) cancels to first order;
  // the median across ON runs then shrugs off the odd outlier burst.
  const int on_runs = fast ? 6 : 10;
  std::printf("serve A/B: %d on-runs interleaved with %d off-runs, "
              "%d clients x %d requests (hw threads: %u)\n",
              on_runs, on_runs + 1, lcfg.num_clients,
              lcfg.requests_per_client,
              std::thread::hardware_concurrency());
  (void)serve_p50_ms(registry, mcfg, lcfg);  // warm-up run, discarded
  std::vector<double> off_p50(on_runs + 1), on_p50(on_runs);
  for (int k = 0; k <= on_runs; ++k) {
    rec.set_enabled(false);
    off_p50[k] = serve_p50_ms(registry, mcfg, lcfg);
    rec.set_enabled(true);
    if (k < on_runs) on_p50[k] = serve_p50_ms(registry, mcfg, lcfg);
  }
  std::vector<double> ratios;
  for (int k = 0; k < on_runs; ++k) {
    const double off_interp = std::sqrt(off_p50[k] * off_p50[k + 1]);
    if (off_interp > 0.0) ratios.push_back(on_p50[k] / off_interp);
    std::printf("  on %.3f ms vs off %.3f/%.3f ms (%+.2f%%)\n", on_p50[k],
                off_p50[k], off_p50[k + 1],
                off_interp > 0.0 ? (on_p50[k] / off_interp - 1.0) * 100.0
                                 : 0.0);
  }
  std::sort(ratios.begin(), ratios.end());
  const double median_ratio =
      ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
  const double penalty = median_ratio - 1.0;

  // Self-calibrated noise floor: apply the SAME estimator to a signal
  // known to be null — each interior OFF run judged against the
  // geometric mean of its OFF neighbors. The median |deviation| is what
  // this machine's scheduler noise produces when nothing changed, so
  // the gate arms at bound + floor: tight on a quiet CI runner (floor
  // near zero, the 2% contract bites as written), honest on a noisy
  // shared box (refuses to false-alarm below its own resolution).
  std::vector<double> null_dev;
  for (int k = 1; k < on_runs; ++k) {
    const double interp = std::sqrt(off_p50[k - 1] * off_p50[k + 1]);
    if (interp > 0.0) null_dev.push_back(std::fabs(off_p50[k] / interp - 1.0));
  }
  std::sort(null_dev.begin(), null_dev.end());
  const double noise_floor =
      null_dev.empty() ? 0.0 : null_dev[null_dev.size() / 2];
  const double effective_bound = kMaxP50Penalty + noise_floor;
  std::printf("p50 delta: %+.2f%% median of %zu on-runs (bound %+.0f%% + "
              "%.2f%% off-vs-off noise floor = %+.2f%%)\n",
              penalty * 100.0, ratios.size(), kMaxP50Penalty * 100.0,
              noise_floor * 100.0, effective_bound * 100.0);

  // --- gates (Release only) -----------------------------------------
  bool ok = true;
#ifdef NDEBUG
  if (best_ns > kMaxNsPerEvent) {
    std::fprintf(stderr,
                 "FAIL: record() costs %.1f ns/event (> %.0f); the "
                 "always-on journal is no longer free enough\n",
                 best_ns, kMaxNsPerEvent);
    ok = false;
  }
  if (penalty > effective_bound) {
    std::fprintf(stderr,
                 "FAIL: serve p50 moved %+.2f%% with the recorder on "
                 "(> %+.0f%% bound + %.2f%% measured noise floor)\n",
                 penalty * 100.0, kMaxP50Penalty * 100.0,
                 noise_floor * 100.0);
    ok = false;
  }
#else
  std::printf("(debug/sanitizer build: perf gates not armed)\n");
#endif
  if (ok) std::printf("PASS\n");
  return ok ? 0 : 1;
}
