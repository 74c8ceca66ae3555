// Integer LUT softmax tests (paper Sec. III-B "Softmax Core").
#include <gtest/gtest.h>

#include <cmath>

#include "fq_oracle.h"
#include "kernel_targets.h"
#include "quant/int_softmax.h"
#include "tensor/rng.h"

namespace fqbert::quant {
namespace {

TEST(IntSoftmaxLut, TableEndpointsAndMonotonicity) {
  IntSoftmax sm(10.0);
  const auto& lut = sm.lut();
  EXPECT_EQ(lut[0], 255);  // exp(0) = 1 -> code 255
  EXPECT_LE(lut[IntSoftmax::kLutSize - 1], 1);  // exp(-range) ~ 0
  for (int i = 1; i < IntSoftmax::kLutSize; ++i)
    EXPECT_LE(lut[i], lut[i - 1]);  // monotone non-increasing
}

TEST(IntSoftmaxLut, TableValuesMatchExp) {
  IntSoftmax sm(25.0);
  for (int i = 0; i < IntSoftmax::kLutSize; i += 17) {
    const double expect = 255.0 * std::exp(-i * IntSoftmax::kStep);
    EXPECT_NEAR(sm.lut()[static_cast<size_t>(i)], expect, 0.51);
  }
}

TEST(IntSoftmax, UniformInputGivesUniformOutput) {
  IntSoftmax sm(32.0);
  std::vector<int32_t> x(8, 100);
  std::vector<int32_t> p;
  sm.apply(x, p, 1, 8);
  for (int32_t v : p) EXPECT_EQ(v, p[0]);
  // Each ~ 255/8 = 31.9.
  EXPECT_NEAR(p[0], 32, 1);
}

TEST(IntSoftmax, ShiftInvariance) {
  // Softmax is invariant to adding a constant to all inputs; the integer
  // pipeline relies on exactly this (max subtraction).
  IntSoftmax sm(16.0);
  Rng rng(3);
  std::vector<int32_t> x(12), shifted(12);
  for (int i = 0; i < 12; ++i) {
    x[static_cast<size_t>(i)] = static_cast<int32_t>(rng.randint(-100, 100));
    shifted[static_cast<size_t>(i)] = x[static_cast<size_t>(i)] + 913;
  }
  std::vector<int32_t> p1, p2;
  sm.apply(x, p1, 1, 12);
  sm.apply(shifted, p2, 1, 12);
  EXPECT_EQ(p1, p2);
}

class IntSoftmaxScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(IntSoftmaxScaleSweep, CloseToFloatReference) {
  const double scale = GetParam();
  IntSoftmax sm(scale);
  Rng rng(17);
  const int64_t cols = 32;
  std::vector<int32_t> x(cols);
  std::vector<float> xf(cols), ref(cols);
  double max_err = 0.0;
  for (int trial = 0; trial < 50; ++trial) {
    for (int64_t c = 0; c < cols; ++c) {
      // Scores on the integer grid for this scale; real values in [-4, 4].
      const double real = rng.uniform(-4.0, 4.0);
      x[static_cast<size_t>(c)] =
          static_cast<int32_t>(std::nearbyint(real * scale));
      xf[static_cast<size_t>(c)] =
          static_cast<float>(x[static_cast<size_t>(c)] / scale);
    }
    std::vector<int32_t> p;
    sm.apply(x, p, 1, cols);
    softmax_reference(xf.data(), ref.data(), cols);
    for (int64_t c = 0; c < cols; ++c) {
      const double got = p[static_cast<size_t>(c)] / IntSoftmax::output_scale();
      max_err = std::max(max_err, std::fabs(got - ref[static_cast<size_t>(c)]));
    }
  }
  // 8-bit numerator + 8-bit output: worst case a few codes of error.
  EXPECT_LT(max_err, 0.02) << "scale=" << scale;
}

INSTANTIATE_TEST_SUITE_P(Scales, IntSoftmaxScaleSweep,
                         ::testing::Values(4.0, 16.0, 64.0, 256.0, 1024.0));

TEST(IntSoftmax, RowSumsNearOne) {
  IntSoftmax sm(20.0);
  Rng rng(23);
  const int64_t rows = 16, cols = 24;
  std::vector<int32_t> x(static_cast<size_t>(rows * cols));
  for (auto& v : x) v = static_cast<int32_t>(rng.randint(-150, 150));
  std::vector<int32_t> p;
  sm.apply(x, p, rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    int64_t sum = 0;
    for (int64_t c = 0; c < cols; ++c) {
      const int32_t v = p[static_cast<size_t>(r * cols + c)];
      EXPECT_GE(v, 0);
      EXPECT_LE(v, 255);
      sum += v;
    }
    // Sum of codes ~ 255 (within rounding of each entry).
    EXPECT_NEAR(static_cast<double>(sum), 255.0, cols * 0.5 + 2);
  }
}

TEST(IntSoftmax, RankPreservedForSpreadInputs) {
  // With inputs spaced by more than one LUT step, larger score => larger
  // probability (ties can appear only within a step).
  const double scale = 64.0;
  IntSoftmax sm(scale);
  std::vector<int32_t> x{-200, -100, 0, 50, 100, 210};
  std::vector<int32_t> p;
  sm.apply(x, p, 1, static_cast<int64_t>(x.size()));
  for (size_t i = 1; i < x.size(); ++i) EXPECT_GE(p[i], p[i - 1]);
  EXPECT_GT(p.back(), p.front());
}

TEST(IntSoftmax, MaxElementDominatesAfterLargeGap) {
  const double scale = 32.0;
  IntSoftmax sm(scale);
  // Gap of 8.0 real units: everything except the max underflows the LUT.
  std::vector<int32_t> x{0, -256, -256, -256};
  std::vector<int32_t> p;
  sm.apply(x, p, 1, 4);
  EXPECT_GE(p[0], 250);
  for (size_t i = 1; i < 4; ++i) EXPECT_LE(p[i], 2);
}

// Rows of 1..128 columns against the test oracle's independent seed
// row, on every kernel target. Scores spread up to ~40 LUT ranges, so
// most rows hit the index clamp at 255; the narrow rows do not.
class IntSoftmaxRows : public core::KernelTargetTest {};

TEST_P(IntSoftmaxRows, MatchOracleRow) {
  Rng rng(41);
  for (const double scale : {0.5, 4.0, 40.0}) {
    const IntSoftmax sm(scale);
    for (int64_t cols = 1; cols <= 128; ++cols) {
      const double spread = cols % 3 == 0 ? 0.5 : 40.0 * IntSoftmax::kRange;
      const auto range = static_cast<int64_t>(spread * scale) + 1;
      std::vector<int32_t> x(static_cast<size_t>(cols));
      for (auto& v : x) v = static_cast<int32_t>(rng.randint(-range, range));
      std::vector<int32_t> got(x.size()), want(x.size());
      sm.apply_row(x.data(), got.data(), cols);
      core::oracle::softmax_row(sm, x.data(), want.data(), cols);
      EXPECT_EQ(got, want) << "scale=" << scale << " cols=" << cols;
    }
  }
}

FQBERT_INSTANTIATE_KERNEL_TARGETS(IntSoftmaxRows);

}  // namespace
}  // namespace fqbert::quant
