// BIM datapath tests (paper Fig. 4): exhaustive bit-exactness of the
// split 8x8 multiplication, Type A == Type B equivalence, cycle
// accounting, sign-flag handling.
#include <gtest/gtest.h>

#include "accel/bim.h"
#include "fq_oracle.h"
#include "tensor/rng.h"

namespace fqbert::accel {
namespace {

TEST(Bim, RejectsBadMultiplierCounts) {
  EXPECT_THROW(Bim(3, BimType::kTypeA), std::invalid_argument);
  EXPECT_THROW(Bim(0, BimType::kTypeA), std::invalid_argument);
  EXPECT_THROW(Bim(1, BimType::kTypeA), std::invalid_argument);
  EXPECT_NO_THROW(Bim(2, BimType::kTypeA));
  EXPECT_NO_THROW(Bim(16, BimType::kTypeB));
}

TEST(Bim, LanesPerMode) {
  Bim b(16, BimType::kTypeA);
  EXPECT_EQ(b.lanes(BimMode::k8x4), 16);
  EXPECT_EQ(b.lanes(BimMode::k8x8), 8);
}

TEST(Bim, Exhaustive8x8SplitEqualsNativeProduct) {
  // Every (a, w) in int8 x int8: the nibble-split multiply must equal the
  // native product. This is the bit-fusion correctness core.
  Bim ta(2, BimType::kTypeA);
  Bim tb(2, BimType::kTypeB);
  for (int a = -128; a <= 127; ++a) {
    for (int w = -128; w <= 127; ++w) {
      const int8_t av = static_cast<int8_t>(a);
      const int8_t wv = static_cast<int8_t>(w);
      const int32_t want = a * w;
      EXPECT_EQ(ta.dot_8x8({&av, 1}, {&wv, 1}), want) << a << "*" << w;
      EXPECT_EQ(tb.dot_8x8({&av, 1}, {&wv, 1}), want) << a << "*" << w;
    }
  }
}

TEST(Bim, Exhaustive8x8UnsignedActivation) {
  // Softmax probabilities: activation bits interpreted as unsigned.
  Bim b(2, BimType::kTypeA);
  for (int a = 0; a <= 255; ++a) {
    for (int w = -128; w <= 127; w += 3) {
      const int8_t av = static_cast<int8_t>(static_cast<uint8_t>(a));
      const int8_t wv = static_cast<int8_t>(w);
      EXPECT_EQ(b.dot_8x8({&av, 1}, {&wv, 1}, /*a_signed=*/false), a * w);
    }
  }
}

TEST(Bim, Exhaustive8x4Signed) {
  Bim b(2, BimType::kTypeA);
  for (int a = -128; a <= 127; ++a) {
    for (int w = -8; w <= 7; ++w) {
      const int8_t av = static_cast<int8_t>(a);
      const int8_t wv = static_cast<int8_t>(w);
      EXPECT_EQ(b.dot_8x4({&av, 1}, {&wv, 1}), a * w);
    }
  }
}

class BimTypeEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(BimTypeEquivalence, TypeAEqualsTypeBOnRandomVectors) {
  const int m = std::get<0>(GetParam());
  const bool a_signed = std::get<1>(GetParam());
  Bim ta(m, BimType::kTypeA);
  Bim tb(m, BimType::kTypeB);
  Rng rng(static_cast<uint64_t>(m) * 1000 + (a_signed ? 1 : 0));
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<int8_t> a(static_cast<size_t>(m / 2)), w(a.size());
    for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
    for (auto& v : w) v = static_cast<int8_t>(rng.randint(-128, 127));
    const int32_t ra = ta.dot_8x8(a, w, a_signed);
    const int32_t rb = tb.dot_8x8(a, w, a_signed);
    EXPECT_EQ(ra, rb);
    // And both equal the plain int dot product.
    int32_t want = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      const int32_t av = a_signed ? a[i] : static_cast<uint8_t>(a[i]);
      want += av * w[i];
    }
    EXPECT_EQ(ra, want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BimTypeEquivalence,
    ::testing::Combine(::testing::Values(2, 4, 8, 16, 32),
                       ::testing::Bool()),
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_signed" : "_unsigned");
    });

TEST(Bim, DotCyclesMatchCeilDiv) {
  Bim b(16, BimType::kTypeA);
  Rng rng(7);
  std::vector<int8_t> a(100), w(100);
  for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto& v : w) v = static_cast<int8_t>(rng.randint(-8, 7));
  int64_t cycles = 0;
  b.dot(a, w, BimMode::k8x4, &cycles);
  EXPECT_EQ(cycles, (100 + 15) / 16);
  b.dot(a, w, BimMode::k8x8, &cycles);
  EXPECT_EQ(cycles, (100 + 7) / 8);
}

TEST(Bim, LongDotMatchesReference) {
  Bim b(8, BimType::kTypeB);
  Rng rng(9);
  std::vector<int8_t> a(768), w(768);
  for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto& v : w) v = static_cast<int8_t>(rng.randint(-8, 7));
  int32_t want = 0;
  for (size_t i = 0; i < a.size(); ++i)
    want += static_cast<int32_t>(a[i]) * w[i];
  EXPECT_EQ(b.dot(a, w, BimMode::k8x4), want);
}

TEST(BimMatmul, MatchesIntKernel8x4) {
  Bim b(16, BimType::kTypeA);
  Rng rng(11);
  const int64_t rows = 5, k = 37, cols = 7;
  std::vector<int8_t> a(static_cast<size_t>(rows * k));
  std::vector<int8_t> w(static_cast<size_t>(cols * k));
  for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto& v : w) v = static_cast<int8_t>(rng.randint(-8, 7));
  std::vector<int32_t> via_bim, via_kernel;
  bim_matmul_wt(b, BimMode::k8x4, a, w, via_bim, rows, k, cols);
  core::oracle::int_matmul_wt(a, w, via_kernel, rows, k, cols);
  EXPECT_EQ(via_bim, via_kernel);
}

TEST(BimMatmul, MatchesIntKernel8x8) {
  Bim b(8, BimType::kTypeB);
  Rng rng(13);
  const int64_t rows = 4, k = 19, cols = 6;
  std::vector<int8_t> a(static_cast<size_t>(rows * k));
  std::vector<int8_t> w(static_cast<size_t>(cols * k));
  for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto& v : w) v = static_cast<int8_t>(rng.randint(-128, 127));
  std::vector<int32_t> via_bim, via_kernel;
  bim_matmul_wt(b, BimMode::k8x8, a, w, via_bim, rows, k, cols);
  core::oracle::int_matmul_wt(a, w, via_kernel, rows, k, cols);
  EXPECT_EQ(via_bim, via_kernel);
}

TEST(BimMatmul, CycleCountFormula) {
  Bim b(16, BimType::kTypeA);
  const int64_t rows = 3, k = 33, cols = 4;
  std::vector<int8_t> a(static_cast<size_t>(rows * k), 1);
  std::vector<int8_t> w(static_cast<size_t>(cols * k), 1);
  std::vector<int32_t> acc;
  const int64_t cycles = bim_matmul_wt(b, BimMode::k8x4, a, w, acc, rows, k, cols);
  EXPECT_EQ(cycles, rows * cols * ((k + 15) / 16));
}

}  // namespace
}  // namespace fqbert::accel
