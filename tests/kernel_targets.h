// GoogleTest fixture that runs a test once per integer kernel target
// (src/core/kernel_target.h) through the thread-local target hook, and
// skips the run when this CPU cannot execute that target.
//
//   class MySuite : public KernelTargetTest {};
//   TEST_P(MySuite, Case) { ... }
//   FQBERT_INSTANTIATE_KERNEL_TARGETS(MySuite);
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "core/kernel_target.h"

namespace fqbert::core {

class KernelTargetTest : public ::testing::TestWithParam<KernelTarget> {
 protected:
  void SetUp() override {
    if (!kernel_target_supported(GetParam()))
      GTEST_SKIP() << kernel_target_name(GetParam())
                   << " is not supported by this CPU";
    scoped_.emplace(GetParam());
  }

 private:
  std::optional<ScopedKernelTarget> scoped_;
};

inline std::string kernel_target_param_name(
    const ::testing::TestParamInfo<KernelTarget>& info) {
  return kernel_target_name(info.param);
}

#define FQBERT_INSTANTIATE_KERNEL_TARGETS(suite)                         \
  INSTANTIATE_TEST_SUITE_P(                                              \
      AllTargets, suite,                                                 \
      ::testing::ValuesIn(::fqbert::core::kAllKernelTargets),            \
      ::fqbert::core::kernel_target_param_name)

}  // namespace fqbert::core
