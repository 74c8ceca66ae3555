// Serving throughput: dynamic batching and engine-pool scaling.
//
// Three measurements over the same synthetic request mix:
//   1. sequential batch-1 baseline — a bare loop over forward(), the
//      single-stream deployment the paper's latency numbers describe;
//   2. engine-level batched throughput — forward_batch() on ragged
//      packed batches, isolating the packed-matmul win from the
//      serving machinery;
//   3. the InferenceServer under a closed-loop client, sweeping
//      worker count x max batch over a seq-length mix.
//
// forward() runs the very same tile GEMM as forward_batch, so on one
// core the engine-level batching gain shrinks
// to amortized per-call overhead (~1.0-1.1x); batching's remaining
// value is scheduling (latency shaping under load) and multi-worker
// scaling on multi-core hosts. bench_single_latency measures the
// batch-1 win of the unified path itself.
//
// The serving engine is built through the regular fast pipeline (train
// -> QAT -> convert); accuracy is irrelevant here, throughput is not.
//
//   ./build/bench/bench_serve_throughput [--fast]
#include <chrono>
#include <thread>

#include "bench_common.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace {

using namespace fqbert;
using namespace fqbert::bench;
using serve::Micros;

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

}  // namespace

int main(int argc, char** argv) {
  const bool fast = fast_mode(argc, argv);
  const int requests_per_client = fast ? 40 : 150;

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

  print_rule();
  std::printf("InferenceServer, closed loop: 16 clients x %d requests "
              "(hw threads: %u)\n",
              requests_per_client, std::thread::hardware_concurrency());
  std::printf("%-8s %-6s %10s %9s %9s %9s %10s %9s\n", "workers", "batch",
              "req/s", "p50 ms", "p95 ms", "p99 ms", "occupancy",
              "vs seq");

  serve::LoadgenConfig lcfg;
  lcfg.num_clients = 16;
  lcfg.requests_per_client = requests_per_client;
  lcfg.seq_len_mix = seq_mix;

  double batch1_rps = 0.0, batched8_rps = 0.0;
  std::vector<double> best_by_workers;
  for (const int64_t workers : {1, 2, 4}) {
    double best = 0.0;
    for (const int64_t max_batch : {1, 8, 16}) {
      serve::ServerConfig scfg;
      scfg.num_workers = static_cast<int>(workers);
      scfg.batcher.max_batch = max_batch;
      scfg.batcher.max_wait = Micros(2000);
      scfg.batcher.bucket_granularity = 8;

      serve::InferenceServer server(registry, "bench", scfg);
      server.start();
      const serve::LoadgenReport lg =
          serve::run_loadgen(server, mcfg, lcfg);
      server.shutdown(/*drain=*/true);
      const serve::ServeStats::Report st = server.stats().report();
      std::printf("%-8lld %-6lld %10.1f %9.2f %9.2f %9.2f %10.2f %8.2fx\n",
                  static_cast<long long>(workers),
                  static_cast<long long>(max_batch), lg.throughput_rps(),
                  st.p50_ms, st.p95_ms, st.p99_ms,
                  st.mean_batch_occupancy, lg.throughput_rps() / seq_rps);
      if (workers == 1 && max_batch == 1) batch1_rps = lg.throughput_rps();
      if (workers == 1 && max_batch == 8) batched8_rps = lg.throughput_rps();
      best = std::max(best, lg.throughput_rps());
    }
    best_by_workers.push_back(best);
  }

  print_rule();
  std::printf("dynamic batching (batch=8) vs sequential batch-1 baseline: "
              "%.2fx  (%s)\n",
              batched8_rps / seq_rps,
              batched8_rps > seq_rps ? "FASTER" : "slower");
  std::printf("dynamic batching (batch=8) vs batch-1 serving:             "
              "%.2fx\n",
              batch1_rps > 0.0 ? batched8_rps / batch1_rps : 0.0);
  std::printf("best throughput by worker count: 1w %.1f, 2w %.1f, 4w %.1f "
              "req/s\n",
              best_by_workers[0], best_by_workers[1], best_by_workers[2]);
  if (std::thread::hardware_concurrency() <= 1)
    std::printf("note: 1 hardware thread — worker scaling needs cores; "
                "expect flat-to-noisy scaling here.\n");
  return 0;
}
