// Single-request latency: the engine's forward() (tile GEMM on each
// kernel target this CPU supports) vs the seed's scalar reference path.
//
// The baseline is the seed scalar path preserved in tests/fq_oracle.h
// (per-call allocations, scalar int_matmul_wt, weight codes resident in
// int8 exactly as the seed kept them — unpacked once at setup, never
// inside the timed loop). Per sequence length this measures:
//
//   1. encoder-only latency (the integer stack the kernels accelerate);
//   2. end-to-end forward() latency (embed + encoder + float head),
//      which dilutes the win with the CPU-side float stages.
//
// The encoder table has one column per kernel target, run through the
// thread-local target hook; targets the CPU lacks are reported as
// skipped. It is a gate: the exit code is nonzero when any measured
// output of any target is not bit-identical to the oracle, or when the
// encoder-only geomean speedup of the target the process runs by
// default (the one serving uses) is below 2x.
//
//   ./build/bench/bench_single_latency [--fast]
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/kernel_target.h"
#include "fq_oracle.h"
#include "serve/loadgen.h"

namespace {

using namespace fqbert;
using namespace fqbert::bench;
using core::oracle::OracleModel;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void engine_encoder(const core::FqBertModel& engine,
                   const std::vector<int8_t>& x, std::vector<int8_t>& out,
                   int64_t s_len) {
  std::vector<int8_t> a = x, b;
  for (const core::FqEncoderLayer& layer : engine.encoder_layers()) {
    layer.forward(a, b, s_len);
    a.swap(b);
  }
  out = std::move(a);
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = fast_mode(argc, argv);

  std::printf("building engine (fast pipeline)...\n");
  serve::EngineRegistry registry;
  auto engine = pipeline::build_and_register_engine(
      registry, "bench", "sst2", core::FqQuantConfig::full(), /*fast=*/true);
  const OracleModel om(*engine);  // seed scalar baseline (resident codes)
  const nn::BertConfig& mcfg = engine->config();
  std::printf("model: L=%lld hidden=%lld heads=%lld ffn=%lld\n",
              static_cast<long long>(mcfg.num_layers),
              static_cast<long long>(mcfg.hidden),
              static_cast<long long>(mcfg.num_heads),
              static_cast<long long>(mcfg.ffn_dim));

  const int iters = fast ? 60 : 300;
  Rng rng(7);

  std::vector<core::KernelTarget> targets;
  for (const core::KernelTarget t : core::kAllKernelTargets) {
    if (core::kernel_target_supported(t))
      targets.push_back(t);
    else
      std::printf("kernel target %s: skipped (not supported by this CPU)\n",
                  core::kernel_target_name(t));
  }
  const core::KernelTarget serving = core::startup_kernel_target();

  print_rule();
  std::printf("encoder-only single-request latency (%d iters/point), "
              "us/req (speedup over scalar)\n",
              iters);
  std::printf("%-8s %10s", "seq_len", "scalar");
  for (const core::KernelTarget t : targets)
    std::printf(" %19s", core::kernel_target_name(t));
  std::printf("\n");
  std::vector<double> geo(targets.size(), 0.0);
  std::vector<double> worst(targets.size(), 1e9);
  int points = 0;
  bool all_identical = true;
  for (const int64_t s_len : {1, 2, 3, 4, 6, 8, 12, 16, 24, 32}) {
    const nn::Example ex = serve::synth_example(
        rng, std::max<int64_t>(2, s_len), mcfg);
    const int64_t rows = static_cast<int64_t>(ex.tokens.size());
    const std::vector<int8_t> x = engine->embed(ex);
    std::vector<int8_t> y_scalar, y_engine;

    // Best-of-3 trials per path: the container shares its single core,
    // so min is the honest steady-state number.
    auto time_us = [&](auto&& fn) {
      double best = 1e30;
      for (int trial = 0; trial < 3; ++trial) {
        const double t0 = now_s();
        for (int i = 0; i < iters; ++i) fn();
        best = std::min(best, (now_s() - t0) * 1e6 / iters);
      }
      return best;
    };
    core::oracle::oracle_encoder(om, x, y_scalar, rows);  // warm
    const double scalar_us = time_us(
        [&] { core::oracle::oracle_encoder(om, x, y_scalar, rows); });
    std::printf("%-8lld %10.1f", static_cast<long long>(rows), scalar_us);
    for (size_t ti = 0; ti < targets.size(); ++ti) {
      const core::ScopedKernelTarget on(targets[ti]);
      engine_encoder(*engine, x, y_engine, rows);  // warm
      bool identical = y_scalar == y_engine;
      const double engine_us =
          time_us([&] { engine_encoder(*engine, x, y_engine, rows); });
      identical = identical && y_scalar == y_engine;
      all_identical = all_identical && identical;
      const double speedup = scalar_us / engine_us;
      worst[ti] = std::min(worst[ti], speedup);
      geo[ti] += std::log(speedup);
      std::printf(" %10.1f (%5.2fx)%s", engine_us, speedup,
                  identical ? "" : " MISMATCH");
    }
    std::printf("\n");
    ++points;
  }
  bool fast_enough = true;
  for (size_t ti = 0; ti < targets.size(); ++ti) {
    const double geomean = std::exp(geo[ti] / points);
    const bool gated = targets[ti] == serving;
    if (gated) fast_enough = geomean >= 2.0;
    std::printf("%-12s geomean %.2fx, worst %.2fx%s\n",
                core::kernel_target_name(targets[ti]), geomean, worst[ti],
                gated ? (fast_enough ? "  (default target, gate >= 2x) OK"
                                     : "  (default target, gate >= 2x) FAILED")
                      : "");
  }

  print_rule();
  std::printf("end-to-end forward() latency on %s, seq mix 12/16/24 "
              "(embed + encoder + float head)\n",
              core::kernel_name());
  std::vector<nn::Example> mix;
  for (int i = 0; i < (fast ? 100 : 300); ++i)
    mix.push_back(serve::synth_example(
        rng, std::vector<int64_t>{12, 16, 24}[static_cast<size_t>(i % 3)],
        mcfg));
  for (const nn::Example& ex : mix) {  // warm + bit-identity
    const Tensor want = core::oracle::oracle_forward(om, ex);
    const Tensor got = engine->forward(ex);
    for (int64_t j = 0; j < want.numel(); ++j)
      all_identical = all_identical && want[j] == got[j];
  }
  double t0 = now_s();
  for (const nn::Example& ex : mix)
    (void)core::oracle::oracle_forward(om, ex);
  const double scalar_us = (now_s() - t0) * 1e6 / mix.size();
  t0 = now_s();
  for (const nn::Example& ex : mix) (void)engine->forward(ex);
  const double engine_us = (now_s() - t0) * 1e6 / mix.size();
  std::printf("  scalar reference : %9.1f us/req\n", scalar_us);
  std::printf("  engine forward() : %9.1f us/req  (%.2fx)\n", engine_us,
              scalar_us / engine_us);
  std::printf("bit-identical to the scalar oracle: %s\n",
              all_identical ? "yes" : "NO");
  return all_identical && fast_enough ? 0 : 1;
}
