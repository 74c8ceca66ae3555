// Host kernel microbenchmarks (google-benchmark): float vs integer
// arithmetic for the operations FQ-BERT quantizes. These are the
// measured companions to the analytical platform models — they show the
// *mechanism* behind the paper's efficiency claims (narrow integer
// arithmetic is cheaper than fp32) on real hardware we do have.
#include <benchmark/benchmark.h>

#include "accel/bim.h"
#include "core/int_kernels.h"
#include "fq_oracle.h"
#include "quant/int_layernorm.h"
#include "quant/int_softmax.h"
#include "tensor/tensor_ops.h"

namespace {

using namespace fqbert;

void BM_FloatMatmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a(Shape{n, n}), b(Shape{n, n}), c;
  fill_normal(a, rng);
  fill_normal(b, rng);
  for (auto _ : state) {
    matmul_bt(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_FloatMatmul)->Arg(64)->Arg(128)->Arg(256);

// The scalar reference kernel (tests/fq_oracle.h).
void BM_Int8MatmulScalar(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  std::vector<int8_t> a(static_cast<size_t>(n * n)), w(a.size());
  for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto& v : w) v = static_cast<int8_t>(rng.randint(-8, 7));
  std::vector<int32_t> acc;
  for (auto _ : state) {
    core::oracle::int_matmul_wt(a, w, acc, n, n, n);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Int8MatmulScalar)->Arg(64)->Arg(128)->Arg(256);

// The engine's tile GEMM on this host's kernel target, weights packed
// once outside the loop as QuantLinear does.
void BM_Int8Matmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  std::vector<int8_t> a(static_cast<size_t>(n * n)), w(a.size());
  for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto& v : w) v = static_cast<int8_t>(rng.randint(-8, 7));
  std::vector<int8_t> tiles(core::tile_bytes(n, n));
  std::vector<int32_t> corr(static_cast<size_t>(core::padded_cols(n)));
  core::pack_tiles(w.data(), n, 1, n, n, tiles.data(), corr.data());
  std::vector<int32_t> acc(static_cast<size_t>(n * n));
  for (auto _ : state) {
    core::gemm_tiles(a.data(), n, n, n, tiles.data(), corr.data(), n,
                     acc.data(), n);
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  state.SetLabel(core::kernel_name());
}
BENCHMARK(BM_Int8Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_FloatSoftmaxRow(benchmark::State& state) {
  const int64_t cols = state.range(0);
  Rng rng(3);
  std::vector<float> x(static_cast<size_t>(cols)), out(x.size());
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    quant::softmax_reference(x.data(), out.data(), cols);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * cols);
}
BENCHMARK(BM_FloatSoftmaxRow)->Arg(128)->Arg(512);

void BM_IntLutSoftmaxRow(benchmark::State& state) {
  const int64_t cols = state.range(0);
  Rng rng(4);
  quant::IntSoftmax sm(64.0);
  std::vector<int32_t> x(static_cast<size_t>(cols)), out(x.size());
  for (auto& v : x) v = static_cast<int32_t>(rng.randint(-200, 200));
  for (auto _ : state) {
    sm.apply_row(x.data(), out.data(), cols);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * cols);
}
BENCHMARK(BM_IntLutSoftmaxRow)->Arg(128)->Arg(512);

void BM_IntLayerNormRow(benchmark::State& state) {
  const int64_t h = state.range(0);
  Rng rng(5);
  std::vector<float> gamma(static_cast<size_t>(h), 1.0f);
  std::vector<float> beta(static_cast<size_t>(h), 0.0f);
  quant::IntLayerNorm ln(gamma, beta, 40.0);
  std::vector<int32_t> x(static_cast<size_t>(h));
  for (auto& v : x) v = static_cast<int32_t>(rng.randint(-200, 200));
  std::vector<int8_t> out(static_cast<size_t>(h));
  for (auto _ : state) {
    ln.apply_row(x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * h);
}
BENCHMARK(BM_IntLayerNormRow)->Arg(768);

void BM_BimDot8x4(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  accel::Bim bim(m, accel::BimType::kTypeA);
  Rng rng(6);
  std::vector<int8_t> a(768), w(768);
  for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto& v : w) v = static_cast<int8_t>(rng.randint(-8, 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bim.dot(a, w, accel::BimMode::k8x4));
  }
  state.SetItemsProcessed(state.iterations() * 768);
}
BENCHMARK(BM_BimDot8x4)->Arg(8)->Arg(16);

void BM_BimDot8x8(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  accel::Bim bim(m, accel::BimType::kTypeA);
  Rng rng(7);
  std::vector<int8_t> a(768), w(768);
  for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto& v : w) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bim.dot(a, w, accel::BimMode::k8x8));
  }
  state.SetItemsProcessed(state.iterations() * 768);
}
BENCHMARK(BM_BimDot8x8)->Arg(8)->Arg(16);

void BM_Requantize(benchmark::State& state) {
  Rng rng(8);
  const int64_t n = 768;
  std::vector<int32_t> acc(static_cast<size_t>(n)), bias(acc.size(), 3);
  for (auto& v : acc) v = static_cast<int32_t>(rng.randint(-100000, 100000));
  const auto rq = quant::Requantizer::from_scale(0.0021);
  std::vector<int8_t> out;
  for (auto _ : state) {
    core::requantize_i8(acc, bias, rq, out, 1, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Requantize);

}  // namespace

BENCHMARK_MAIN();
