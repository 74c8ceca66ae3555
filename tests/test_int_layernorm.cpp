// Integer LayerNorm tests (paper Sec. III-B "LN Core"), including the
// bit-serial square root and the scale-invariance property the kernel
// exploits.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/int_kernels.h"
#include "fq_oracle.h"
#include "kernel_targets.h"
#include "quant/int_layernorm.h"
#include "tensor/rng.h"

namespace fqbert::quant {
namespace {

TEST(Isqrt64, ExactOnSmallSweep) {
  for (uint64_t v = 0; v < 70000; ++v) {
    const auto r = static_cast<uint64_t>(isqrt64(v));
    EXPECT_LE(r * r, v);
    EXPECT_GT((r + 1) * (r + 1), v);
  }
}

TEST(Isqrt64, LargeValues) {
  for (uint64_t v : {1ull << 40, (1ull << 52) + 12345, 999999999999999ull}) {
    const auto r = static_cast<uint64_t>(isqrt64(v));
    EXPECT_LE(r * r, v);
    EXPECT_GT((r + 1) * (r + 1), v);
  }
  EXPECT_EQ(isqrt64(0), 0u);
  EXPECT_EQ(isqrt64(1), 1u);
  EXPECT_EQ(isqrt64(4), 2u);
}

TEST(Isqrt64, MatchesBitSerialRoot) {
  // Random values over the whole 64-bit range, squares and their
  // neighbours, and the top of the range, against the LN core's
  // shift-subtract root.
  std::mt19937_64 gen(12);
  std::vector<uint64_t> vs = {~0ull, ~0ull - 1, 0xFFFFFFFE00000001ull,
                              0xFFFFFFFE00000000ull, 1ull << 63};
  for (int i = 0; i < 20000; ++i) vs.push_back(gen() >> (i % 64));
  for (uint64_t r = 1; r < (1ull << 32); r = r * 3 + 1)
    for (uint64_t v : {r * r - 1, r * r, r * r + 1}) vs.push_back(v);
  for (uint64_t v : vs)
    EXPECT_EQ(isqrt64(v), core::oracle::isqrt64(v)) << "v=" << v;
}

std::vector<float> ref_layernorm(const std::vector<int32_t>& x,
                                 const std::vector<float>& gamma,
                                 const std::vector<float>& beta) {
  const size_t h = gamma.size();
  double mu = 0;
  for (int32_t v : x) mu += v;
  mu /= static_cast<double>(h);
  double var = 0;
  for (int32_t v : x) var += (v - mu) * (v - mu);
  var /= static_cast<double>(h);
  const double inv = var > 0 ? 1.0 / std::sqrt(var) : 0.0;
  std::vector<float> out(h);
  for (size_t i = 0; i < h; ++i)
    out[i] = static_cast<float>((x[i] - mu) * inv * gamma[i] + beta[i]);
  return out;
}

TEST(IntLayerNorm, MatchesFloatReferenceWithinQuantError) {
  Rng rng(5);
  const int64_t h = 64;
  std::vector<float> gamma(h), beta(h);
  for (auto& g : gamma) g = static_cast<float>(rng.uniform(0.6, 1.4));
  for (auto& b : beta) b = static_cast<float>(rng.uniform(-0.3, 0.3));
  const double out_scale = 40.0;
  IntLayerNorm ln(gamma, beta, out_scale);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int32_t> x(h);
    for (auto& v : x) v = static_cast<int32_t>(rng.randint(-200, 200));
    std::vector<int8_t> out(h);
    ln.apply_row(x.data(), out.data());
    const std::vector<float> ref = ref_layernorm(x, gamma, beta);
    for (int64_t i = 0; i < h; ++i) {
      const double got = out[static_cast<size_t>(i)] / out_scale;
      // Error budget: output grid step + Q6 gamma quantization + Q10
      // xhat truncation. |xhat| <= sqrt(h), gamma error <= 2^-7.
      const double budget =
          0.5 / out_scale + std::fabs(ref[static_cast<size_t>(i)]) * 0.02 +
          0.05;
      EXPECT_NEAR(got, ref[static_cast<size_t>(i)], budget)
          << "trial " << trial << " i " << i;
    }
  }
}

TEST(IntLayerNorm, ScaleInvariance) {
  // (x - mu)/sigma is invariant to scaling all codes by a constant; the
  // integer kernel must agree with itself across input scalings (up to
  // rounding of the scaled inputs).
  Rng rng(6);
  const int64_t h = 32;
  std::vector<float> gamma(h, 1.0f), beta(h, 0.0f);
  IntLayerNorm ln(gamma, beta, 50.0);
  std::vector<int32_t> x(h), x4(h);
  for (int64_t i = 0; i < h; ++i) {
    x[static_cast<size_t>(i)] = static_cast<int32_t>(rng.randint(-100, 100));
    x4[static_cast<size_t>(i)] = 4 * x[static_cast<size_t>(i)];
  }
  std::vector<int8_t> a(h), b(h);
  ln.apply_row(x.data(), a.data());
  ln.apply_row(x4.data(), b.data());
  for (int64_t i = 0; i < h; ++i)
    EXPECT_NEAR(a[static_cast<size_t>(i)], b[static_cast<size_t>(i)], 1)
        << "i=" << i;
}

TEST(IntLayerNorm, ConstantRowEmitsBeta) {
  const int64_t h = 16;
  std::vector<float> gamma(h, 1.3f);
  std::vector<float> beta(h);
  for (int64_t i = 0; i < h; ++i)
    beta[static_cast<size_t>(i)] = 0.1f * static_cast<float>(i - 8);
  const double out_scale = 60.0;
  IntLayerNorm ln(gamma, beta, out_scale);
  std::vector<int32_t> x(h, 42);
  std::vector<int8_t> out(h);
  ln.apply_row(x.data(), out.data());
  for (int64_t i = 0; i < h; ++i) {
    EXPECT_NEAR(out[static_cast<size_t>(i)] / out_scale,
                beta[static_cast<size_t>(i)], 0.6 / out_scale + 1e-3);
  }
}

TEST(IntLayerNorm, OutputSaturatesToInt8) {
  const int64_t h = 8;
  std::vector<float> gamma(h, 10.0f);  // force overflow (clamped to Q6 max)
  std::vector<float> beta(h, 0.0f);
  IntLayerNorm ln(gamma, beta, 127.0);
  std::vector<int32_t> x(h);
  for (int64_t i = 0; i < h; ++i)
    x[static_cast<size_t>(i)] = i < 4 ? -100 : 100;
  std::vector<int8_t> out(h);
  ln.apply_row(x.data(), out.data());
  for (int64_t i = 0; i < h; ++i) {
    EXPECT_GE(out[static_cast<size_t>(i)], -127);
    EXPECT_LE(out[static_cast<size_t>(i)], 127);
  }
  EXPECT_EQ(out[0], -127);  // actually saturated
  EXPECT_EQ(out[7], 127);
}

TEST(IntLayerNorm, GammaQ6CodesStored) {
  std::vector<float> gamma{1.0f, -0.5f, 1.984375f, 3.0f};
  std::vector<float> beta(4, 0.0f);
  IntLayerNorm ln(gamma, beta, 10.0);
  EXPECT_EQ(ln.gamma_q()[0], 64);    // 1.0 * 2^6
  EXPECT_EQ(ln.gamma_q()[1], -32);   // -0.5 * 2^6
  EXPECT_EQ(ln.gamma_q()[2], 127);   // max Q6 code
  EXPECT_EQ(ln.gamma_q()[3], 127);   // saturated
}

TEST(IntLayerNorm, RejectsMismatchedParams) {
  std::vector<float> gamma(4, 1.0f), beta(3, 0.0f);
  EXPECT_THROW(IntLayerNorm(gamma, beta, 10.0), std::invalid_argument);
}

TEST(IntLayerNorm, MultiRowApply) {
  const int64_t h = 8, rows = 3;
  std::vector<float> gamma(h, 1.0f), beta(h, 0.0f);
  IntLayerNorm ln(gamma, beta, 30.0);
  Rng rng(9);
  std::vector<int32_t> x(static_cast<size_t>(rows * h));
  for (auto& v : x) v = static_cast<int32_t>(rng.randint(-50, 50));
  std::vector<int8_t> out;
  ln.apply(x, out, rows);
  ASSERT_EQ(out.size(), static_cast<size_t>(rows * h));
  // Row 1 computed independently: equal to apply_row on that slice.
  std::vector<int8_t> row1(h);
  ln.apply_row(x.data() + h, row1.data());
  for (int64_t i = 0; i < h; ++i)
    EXPECT_EQ(out[static_cast<size_t>(h + i)], row1[static_cast<size_t>(i)]);
}

// Rows through the engine's per-target entry (core::layernorm_rows) and
// the scalar apply, against the test oracle's independent seed row.
class IntLayerNormRows : public core::KernelTargetTest {};

TEST_P(IntLayerNormRows, MatchOracleRow) {
  Rng rng(31);
  for (const int64_t h : {64, 768, 1, 7, 61}) {
    std::vector<float> gamma(static_cast<size_t>(h)),
        beta(static_cast<size_t>(h));
    // |gamma| past the Q6 maximum and |beta| past the output range
    // saturate; both signs occur.
    for (auto& g : gamma) g = static_cast<float>(rng.uniform(-2.5, 2.5));
    for (auto& b : beta) b = static_cast<float>(rng.uniform(-3.0, 3.0));
    for (const double out_scale : {20.0, 60.0}) {
      const IntLayerNorm ln(gamma, beta, out_scale);
      // Six shaped rows, then random rows of random amplitude: enough
      // elements that xhat and the output requantization hit exact
      // rounding ties on both signs.
      constexpr int64_t kShaped = 6, kRows = kShaped + 100;
      std::vector<int32_t> x(static_cast<size_t>(kRows * h));
      for (int64_t c = 0; c < h; ++c) {
        int32_t* col = x.data() + c;
        col[0] = -37;                                          // constant
        col[h] = static_cast<int32_t>(rng.randint(-60, 60));   // mixed signs
        col[2 * h] = static_cast<int32_t>(rng.randint(-(1 << 22), 1 << 22));
        col[3 * h] = c == h / 2 ? 5000 : 3;                    // one spike
        col[4 * h] = static_cast<int32_t>(rng.randint(-900, -800));
        col[5 * h] = c % 2 == 0 ? 127 : -127;
      }
      for (int64_t r = kShaped; r < kRows; ++r) {
        const int64_t amp = rng.randint(1, int64_t{1} << rng.randint(1, 20));
        for (int64_t c = 0; c < h; ++c)
          x[static_cast<size_t>(r * h + c)] =
              static_cast<int32_t>(rng.randint(-amp, amp));
      }
      std::vector<int8_t> want(x.size()), got(x.size()), scalar;
      for (int64_t r = 0; r < kRows; ++r)
        core::oracle::layernorm_row(ln, x.data() + r * h, want.data() + r * h);
      core::layernorm_rows(ln, x.data(), got.data(), kRows);
      ln.apply(x, scalar, kRows);
      EXPECT_EQ(got, want) << "h=" << h << " out_scale=" << out_scale;
      EXPECT_EQ(scalar, want) << "h=" << h << " out_scale=" << out_scale;
    }
  }
}

FQBERT_INSTANTIATE_KERNEL_TARGETS(IntLayerNormRows);

}  // namespace
}  // namespace fqbert::quant
