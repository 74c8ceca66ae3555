// Structural PE/PU tests: bit-exact outputs through the PE datapath and
// cycle accounting consistent with the analytical performance model.
#include <gtest/gtest.h>

#include "accel/pe.h"
#include "fq_oracle.h"
#include "tensor/rng.h"

namespace fqbert::accel {
namespace {

TEST(Pe, DotMatchesPlainAccumulation) {
  Pe pe(16, BimType::kTypeA);
  Rng rng(1);
  std::vector<int8_t> a(100), w(100);
  for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto& v : w) v = static_cast<int8_t>(rng.randint(-8, 7));
  PeCycleStats st;
  const int32_t got = pe.dot(a, w, BimMode::k8x4, st);
  int32_t want = 0;
  for (size_t i = 0; i < a.size(); ++i)
    want += static_cast<int32_t>(a[i]) * w[i];
  EXPECT_EQ(got, want);
  EXPECT_EQ(st.bim_cycles, (100 + 15) / 16);
  EXPECT_EQ(st.quant_cycles, Pe::kQuantLatency);
  EXPECT_EQ(st.stalls, 0);  // dot longer than the quant pipeline
}

TEST(Pe, ShortDotExposesQuantLatency) {
  Pe pe(16, BimType::kTypeA);
  std::vector<int8_t> a(8, 1), w(8, 1);
  PeCycleStats st;
  pe.dot(a, w, BimMode::k8x4, st);
  EXPECT_EQ(st.bim_cycles, 1);
  EXPECT_EQ(st.stalls, Pe::kQuantLatency - 1);
}

TEST(Pu, MatmulBitExactAndCycleFormula) {
  Pu pu(8, 16, BimType::kTypeB);
  Rng rng(2);
  const int64_t rows = 6, k = 64, cols = 20;
  std::vector<int8_t> a(static_cast<size_t>(rows * k));
  std::vector<int8_t> w(static_cast<size_t>(cols * k));
  for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto& v : w) v = static_cast<int8_t>(rng.randint(-8, 7));

  std::vector<int32_t> got, want;
  const int64_t cycles = pu.matmul(a, w, got, rows, k, cols, BimMode::k8x4);
  core::oracle::int_matmul_wt(a, w, want, rows, k, cols);
  EXPECT_EQ(got, want);

  // Tiles: per row ceil(20/8)=3; per tile max PE cycles = ceil(64/16)=4.
  EXPECT_EQ(cycles, rows * 3 * 4);
}

TEST(Pu, Mode8x8HalvesLanes) {
  Pu pu(4, 8, BimType::kTypeA);
  Rng rng(3);
  const int64_t rows = 2, k = 32, cols = 4;
  std::vector<int8_t> a(static_cast<size_t>(rows * k));
  std::vector<int8_t> w(static_cast<size_t>(cols * k));
  for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto& v : w) v = static_cast<int8_t>(rng.randint(-128, 127));
  std::vector<int32_t> got, want;
  const int64_t cycles = pu.matmul(a, w, got, rows, k, cols, BimMode::k8x8);
  core::oracle::int_matmul_wt(a, w, want, rows, k, cols);
  EXPECT_EQ(got, want);
  // One tile per row (4 cols over 4 PEs), ceil(32/4)=8 cycles each.
  EXPECT_EQ(cycles, rows * 8);
}

TEST(Pu, UnsignedActivations) {
  Pu pu(2, 4, BimType::kTypeA);
  const int64_t rows = 1, k = 3, cols = 2;
  // Probabilities 200, 255, 0 (as raw bytes) times signed weights.
  std::vector<int8_t> a{static_cast<int8_t>(200), static_cast<int8_t>(255),
                        0};
  std::vector<int8_t> w{1, -1, 5, 2, 3, -7};
  std::vector<int32_t> got;
  pu.matmul(a, w, got, rows, k, cols, BimMode::k8x8, /*a_signed=*/false);
  EXPECT_EQ(got[0], 200 * 1 + 255 * -1 + 0 * 5);
  EXPECT_EQ(got[1], 200 * 2 + 255 * 3 + 0 * -7);
}

}  // namespace
}  // namespace fqbert::accel
