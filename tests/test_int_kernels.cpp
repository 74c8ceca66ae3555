// Integer kernel tests: every kernel target this CPU supports against
// the scalar oracle (tests/fq_oracle.h) — the tile GEMM, QKᵀ, PV, the
// tile packing and the requantize epilogue.
#include <gtest/gtest.h>

#include <limits>

#include "core/int_kernels.h"
#include "fq_oracle.h"
#include "kernel_targets.h"
#include "tensor/rng.h"

namespace fqbert::core {
namespace {

std::vector<int8_t> random_codes(Rng& rng, size_t count, int lo, int hi) {
  std::vector<int8_t> out(count);
  for (auto& v : out) v = static_cast<int8_t>(rng.randint(lo, hi));
  // Pin the extremes so every shape sees them.
  if (!out.empty()) out.front() = static_cast<int8_t>(lo);
  if (out.size() > 1) out.back() = static_cast<int8_t>(hi);
  return out;
}

constexpr int64_t kRows[] = {1, 2, 3, 4, 5, 15, 16, 17, 33};
constexpr int64_t kDepths[] = {4, 16, 63, 64, 65, 256};
constexpr int64_t kCols[] = {1, 15, 16, 17, 64, 256};

class IntKernels : public KernelTargetTest {};

TEST_P(IntKernels, GemmMatchesOracleAcrossShapes) {
  Rng rng(1);
  for (const int64_t m : kRows)
    for (const int64_t k : kDepths)
      for (const int64_t n : kCols) {
        const auto a = random_codes(rng, static_cast<size_t>(m * k), -128, 127);
        const auto w = random_codes(rng, static_cast<size_t>(n * k), -127, 127);
        std::vector<int8_t> tiles(tile_bytes(n, k));
        std::vector<int32_t> corr(static_cast<size_t>(padded_cols(n)));
        pack_tiles(w.data(), k, 1, n, k, tiles.data(), corr.data());
        std::vector<int32_t> want, got(static_cast<size_t>(m * n));
        oracle::int_matmul_wt(a, w, want, m, k, n);
        gemm_tiles(a.data(), k, m, k, tiles.data(), corr.data(), n,
                   got.data(), n);
        ASSERT_EQ(want, got) << "m " << m << " k " << k << " n " << n;
      }
}

TEST_P(IntKernels, QkTransposeMatchesOracle) {
  // Both operands are activations, so -128 appears on the right too.
  Rng rng(2);
  for (const int64_t m : kRows)
    for (const int64_t k : kDepths)
      for (const int64_t n : kCols) {
        const auto a = random_codes(rng, static_cast<size_t>(m * k), -128, 127);
        const auto b = random_codes(rng, static_cast<size_t>(n * k), -128, 127);
        std::vector<int32_t> want, got;
        oracle::int_matmul_wt(a, b, want, m, k, n);
        int_matmul_bt(a, b, got, m, k, n);
        ASSERT_EQ(want, got) << "m " << m << " k " << k << " n " << n;
      }
}

TEST_P(IntKernels, PvMatchesOracleOverFullProbabilityRange) {
  Rng rng(3);
  for (const int64_t m : kRows)
    for (const int64_t k : kDepths)
      for (const int64_t n : kCols) {
        std::vector<int32_t> p(static_cast<size_t>(m * k));
        for (auto& x : p) x = static_cast<int32_t>(rng.randint(0, 255));
        p.front() = 0;
        p.back() = 255;
        const auto v = random_codes(rng, static_cast<size_t>(k * n), -128, 127);
        std::vector<int32_t> want, got;
        oracle::int_matmul_pv(p, v, want, m, k, n);
        int_matmul_pv(p, v, got, m, k, n);
        ASSERT_EQ(want, got) << "m " << m << " k " << k << " n " << n;
      }
}

TEST_P(IntKernels, ExtremeOperandsStayExact) {
  // Largest magnitudes the engine can produce: every product at
  // -128 x ±127 (and the u8 bias pushing the raw sum to its peak).
  for (const int8_t wv : {int8_t{127}, int8_t{-127}}) {
    const int64_t m = 5, k = 256, n = 17;
    const std::vector<int8_t> a(static_cast<size_t>(m * k), -128);
    const std::vector<int8_t> w(static_cast<size_t>(n * k), wv);
    std::vector<int8_t> tiles(tile_bytes(n, k));
    std::vector<int32_t> corr(static_cast<size_t>(padded_cols(n)));
    pack_tiles(w.data(), k, 1, n, k, tiles.data(), corr.data());
    std::vector<int32_t> want, got(static_cast<size_t>(m * n));
    oracle::int_matmul_wt(a, w, want, m, k, n);
    gemm_tiles(a.data(), k, m, k, tiles.data(), corr.data(), n, got.data(),
               n);
    EXPECT_EQ(want, got) << "w " << int{wv};
    EXPECT_EQ(got[0], -128 * int32_t{wv} * k);
  }
}

TEST_P(IntKernels, StridedOperandsMatchOracle) {
  // forward_batch reads heads in place (lda = hidden) and writes each
  // head's columns of a wider accumulator (ldc = hidden).
  Rng rng(4);
  const int64_t hidden = 48, m = 7, k = 13, n = 9, col0 = 5;
  const auto a = random_codes(rng, static_cast<size_t>(m * hidden), -128, 127);
  const auto w = random_codes(rng, static_cast<size_t>(n * k), -127, 127);
  std::vector<int8_t> tiles(tile_bytes(n, k));
  std::vector<int32_t> corr(static_cast<size_t>(padded_cols(n)));
  pack_tiles(w.data(), k, 1, n, k, tiles.data(), corr.data());
  std::vector<int32_t> c(static_cast<size_t>(m * hidden), 12345);
  gemm_tiles(a.data() + col0, hidden, m, k, tiles.data(), corr.data(), n,
             c.data() + col0, hidden);

  std::vector<int8_t> a_dense(static_cast<size_t>(m * k));
  for (int64_t i = 0; i < m; ++i)
    for (int64_t p = 0; p < k; ++p)
      a_dense[static_cast<size_t>(i * k + p)] =
          a[static_cast<size_t>(i * hidden + col0 + p)];
  std::vector<int32_t> want;
  oracle::int_matmul_wt(a_dense, w, want, m, k, n);
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < hidden; ++j) {
      const int32_t got = c[static_cast<size_t>(i * hidden + j)];
      if (j >= col0 && j < col0 + n)
        EXPECT_EQ(got, want[static_cast<size_t>(i * n + j - col0)]);
      else
        EXPECT_EQ(got, 12345) << "wrote outside its columns at " << j;
    }
}

TEST_P(IntKernels, RequantizeMatchesOracle) {
  Rng rng(5);
  for (const double scale : {1.0, 0.75, 0.01, 3e-7, 1e-9}) {
    const quant::Requantizer rq = quant::Requantizer::from_scale(scale);
    for (const int64_t cols : {1, 7, 8, 9, 17, 64}) {
      const int64_t rows = 3;
      std::vector<int32_t> acc(static_cast<size_t>(rows * cols));
      std::vector<int32_t> bias(static_cast<size_t>(cols));
      for (auto& v : acc)
        v = static_cast<int32_t>(rng.randint(-2'000'000'000, 2'000'000'000));
      for (auto& v : bias)
        v = static_cast<int32_t>(rng.randint(-2'000'000'000, 2'000'000'000));
      // acc + bias beyond int32 on both sides.
      acc[0] = 2'000'000'000;
      bias[0] = 2'000'000'000;
      acc[static_cast<size_t>(cols)] = -2'000'000'000;
      if (cols > 1) bias[1] = -2'000'000'000;
      for (const bool with_bias : {true, false}) {
        const std::vector<int32_t> b = with_bias ? bias : std::vector<int32_t>{};
        std::vector<int8_t> want, got;
        oracle::requantize_i8(acc, b, rq, want, rows, cols);
        requantize_i8(acc, b, rq, got, rows, cols);
        ASSERT_EQ(want, got) << "scale " << scale << " shift " << rq.shift
                             << " cols " << cols << " bias " << with_bias;
      }
    }
  }
}

TEST_P(IntKernels, RequantizeShiftZero) {
  // from_scale(2^30 .. 2^31) has shift 0: no rounding, just the clamp.
  const quant::Requantizer rq = quant::Requantizer::from_scale(1.5 * (1 << 30));
  ASSERT_EQ(rq.shift, 0);
  const std::vector<int32_t> acc{0, 1, -1, 0, 0, 0, 0, 0, 0};
  std::vector<int8_t> want, got;
  oracle::requantize_i8(acc, {}, rq, want, 1, 9);
  requantize_i8(acc, {}, rq, got, 1, 9);
  EXPECT_EQ(want, got);
  EXPECT_EQ(got[1], 127);
  EXPECT_EQ(got[2], -127);
}

TEST_P(IntKernels, RequantizeClampsToMinus127) {
  // clamp_i8 is the symmetric grid, not a saturating narrow: values far
  // below the range must land on -127, never -128.
  const quant::Requantizer rq = quant::Requantizer::from_scale(1.0);
  std::vector<int32_t> acc(19, std::numeric_limits<int32_t>::min());
  acc[3] = -128;
  acc[4] = -127;
  acc[5] = 128;
  std::vector<int8_t> out;
  requantize_i8(acc, {}, rq, out, 1, 19);
  for (size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], i == 5 ? 127 : -127) << "col " << i;
}

TEST_P(IntKernels, RequantizeAppliesBiasScaleAndSaturation) {
  const quant::Requantizer rq = quant::Requantizer::from_scale(0.01);
  std::vector<int32_t> acc{100, -100, 50000, -50000, 0, 449};
  std::vector<int32_t> bias{0, 0, 0, 0, 100, 1};
  std::vector<int8_t> out;
  requantize_i8(acc, bias, rq, out, 1, 6);
  EXPECT_EQ(out[0], 1);      // 100*0.01
  EXPECT_EQ(out[1], -1);
  EXPECT_EQ(out[2], 127);    // saturated high
  EXPECT_EQ(out[3], -127);   // saturated low (symmetric grid)
  EXPECT_EQ(out[4], 1);      // (0+100)*0.01
  EXPECT_EQ(out[5], 5);      // round(4.5) away from zero
}

TEST_P(IntKernels, RequantizeEmptyBiasMeansZero) {
  const quant::Requantizer rq = quant::Requantizer::from_scale(0.5);
  std::vector<int32_t> acc{10, -7};
  std::vector<int8_t> out;
  requantize_i8(acc, {}, rq, out, 1, 2);
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[1], -4);  // -3.5 rounds away from zero
}

TEST_P(IntKernels, ZeroSizedEdges) {
  std::vector<int8_t> a, b;
  std::vector<int32_t> acc;
  int_matmul_bt(a, b, acc, 0, 0, 0);
  EXPECT_TRUE(acc.empty());
  std::vector<int32_t> p;
  int_matmul_pv(p, b, acc, 0, 0, 0);
  EXPECT_TRUE(acc.empty());
}

FQBERT_INSTANTIATE_KERNEL_TARGETS(IntKernels);

// ---------------------------------------------------------------------------
// Target-independent: packing, selection, the oracle itself.
// ---------------------------------------------------------------------------

TEST(TilePacking, RoundTripAndCorrection) {
  Rng rng(6);
  for (const int64_t n : kCols)
    for (const int64_t k : kDepths) {
      const auto w = random_codes(rng, static_cast<size_t>(n * k), -127, 127);
      // Dirty buffers: packing must zero its own padding.
      std::vector<int8_t> tiles(tile_bytes(n, k), 0x55);
      std::vector<int32_t> corr(static_cast<size_t>(padded_cols(n)), 7);
      pack_tiles(w.data(), k, 1, n, k, tiles.data(), corr.data());

      std::vector<int8_t> back(w.size());
      unpack_tiles(tiles.data(), n, k, back.data());
      ASSERT_EQ(w, back) << "n " << n << " k " << k;

      std::vector<int32_t> from_tiles(corr.size());
      EXPECT_TRUE(tile_corrections(tiles.data(), n, k, from_tiles.data()));
      EXPECT_EQ(corr, from_tiles);
      for (int64_t j = 0; j < padded_cols(n); ++j) {
        int32_t sum = 0;  // padding columns sum to 0
        if (j < n)
          for (int64_t p = 0; p < k; ++p)
            sum += w[static_cast<size_t>(j * k + p)];
        EXPECT_EQ(corr[static_cast<size_t>(j)], 128 * sum) << "col " << j;
      }
      int64_t nonzero_bytes = 0;
      for (const int8_t t : tiles) nonzero_bytes += t != 0;
      int64_t nonzero_codes = 0;
      for (const int8_t c : w) nonzero_codes += c != 0;
      EXPECT_EQ(nonzero_bytes, nonzero_codes) << "padding not zero";
    }
}

TEST(TilePacking, NonzeroPaddingIsReported) {
  // Every target reads whole tiles, so a padding byte that is not zero
  // would enter the product. Both padding columns (n = 18 leaves 14 in
  // the second column tile) and padding steps (k = 9 leaves 3 in each
  // column's last group) are checked.
  Rng rng(6);
  const int64_t n = 18, k = 9;
  const auto w = random_codes(rng, static_cast<size_t>(n * k), -127, 127);
  std::vector<int8_t> tiles(tile_bytes(n, k));
  std::vector<int32_t> corr(static_cast<size_t>(padded_cols(n)));
  pack_tiles(w.data(), k, 1, n, k, tiles.data(), corr.data());
  ASSERT_TRUE(tile_corrections(tiles.data(), n, k, corr.data()));

  const int64_t depth = padded_depth(k);
  const int64_t last_group = (depth - kTileDepth) * kTileCols;
  const int64_t pad_column =
      kTileCols * depth + 2 * kTileBytes + 5 * kTileDepth + 1;  // j 21
  const int64_t pad_step = last_group + 3 * kTileDepth + 2;  // j 3, p 10
  for (const int64_t at : {pad_column, pad_step}) {
    std::vector<int8_t> bad = tiles;
    bad[static_cast<size_t>(at)] = -1;
    EXPECT_FALSE(tile_corrections(bad.data(), n, k, corr.data()))
        << "byte " << at;
  }
  // A real code in the last group is not padding.
  std::vector<int8_t> edited = tiles;
  edited[static_cast<size_t>(last_group + 3 * kTileDepth)] ^= 1;  // j 3, p 8
  EXPECT_TRUE(tile_corrections(edited.data(), n, k, corr.data()));
}

TEST(TilePacking, TransposedPackReadsColumns) {
  // PV packs Vᵀ: element (j, p) comes from v[p * n + j].
  Rng rng(7);
  const int64_t k = 9, n = 18;
  const auto v = random_codes(rng, static_cast<size_t>(k * n), -128, 127);
  std::vector<int8_t> tiles(tile_bytes(n, k));
  pack_tiles(v.data(), 1, n, n, k, tiles.data(), nullptr);
  std::vector<int8_t> vt(v.size());
  unpack_tiles(tiles.data(), n, k, vt.data());
  for (int64_t j = 0; j < n; ++j)
    for (int64_t p = 0; p < k; ++p)
      EXPECT_EQ(vt[static_cast<size_t>(j * k + p)],
                v[static_cast<size_t>(p * n + j)]);
}

TEST(TilePacking, QuantLinearCodesRoundTrip) {
  Rng rng(8);
  for (const int bits : {2, 4, 8}) {
    QuantLinear q;
    q.in = 65;
    q.out = 17;
    q.weight_bits = bits;
    const int qmax = (1 << (bits - 1)) - 1;
    const auto codes =
        random_codes(rng, static_cast<size_t>(q.in * q.out), -qmax, qmax);
    q.set_codes(codes);
    EXPECT_EQ(q.narrow_codes(), codes) << "bits " << bits;
    EXPECT_EQ(q.weight_bytes(), size_t{32 * 68}) << "bits " << bits;
  }
}

TEST(KernelSelection, StartupPicksBestSupportedTarget) {
  KernelTarget want = KernelTarget::kPortable;
  if (kernel_target_supported(KernelTarget::kAvx2)) want = KernelTarget::kAvx2;
  if (kernel_target_supported(KernelTarget::kAvx512Vnni))
    want = KernelTarget::kAvx512Vnni;
  EXPECT_EQ(startup_kernel_target(), want);
  EXPECT_STREQ(kernel_name(), kernel_target_name(want));
  EXPECT_TRUE(kernel_target_supported(KernelTarget::kPortable));
}

TEST(OracleMatmul, MatchesNaive) {
  Rng rng(9);
  const int64_t m = 7, k = 33, n = 5;
  const auto a = random_codes(rng, static_cast<size_t>(m * k), -128, 127);
  const auto w = random_codes(rng, static_cast<size_t>(n * k), -8, 7);
  std::vector<int32_t> acc;
  oracle::int_matmul_wt(a, w, acc, m, k, n);
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      int64_t want = 0;
      for (int64_t p = 0; p < k; ++p)
        want += static_cast<int64_t>(a[static_cast<size_t>(i * k + p)]) *
                w[static_cast<size_t>(j * k + p)];
      EXPECT_EQ(acc[static_cast<size_t>(i * n + j)], want);
    }
}

}  // namespace
}  // namespace fqbert::core
