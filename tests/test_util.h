// Shared helpers for the FQ-BERT test suite.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "nn/bert.h"
#include "nn/loss.h"
#include "tensor/tensor_ops.h"

namespace fqbert::testing {

/// Central-difference gradient check: perturbs every parameter scalar of
/// `params` and compares d(loss)/d(param) against the accumulated
/// analytic gradient. `loss_fn` must run forward+backward (accumulating
/// grads) and return the loss; gradients are zeroed here between probes.
inline void check_gradients(std::vector<nn::Param*> params,
                            const std::function<float()>& loss_fn,
                            double rel_tol = 5e-2, double abs_tol = 4e-4,
                            int max_probes_per_param = 4) {
  // Analytic gradients.
  for (nn::Param* p : params) p->zero_grad();
  loss_fn();

  std::vector<Tensor> analytic;
  analytic.reserve(params.size());
  for (nn::Param* p : params) analytic.push_back(p->grad);

  const float eps = 1e-3f;
  for (size_t pi = 0; pi < params.size(); ++pi) {
    nn::Param* p = params[pi];
    const int64_t n = p->value.numel();
    const int64_t stride = std::max<int64_t>(1, n / max_probes_per_param);
    for (int64_t j = 0; j < n; j += stride) {
      const float saved = p->value[j];
      p->value[j] = saved + eps;
      for (nn::Param* q : params) q->zero_grad();
      const double lp = loss_fn();
      p->value[j] = saved - eps;
      for (nn::Param* q : params) q->zero_grad();
      const double lm = loss_fn();
      p->value[j] = saved;
      const double numeric = (lp - lm) / (2.0 * eps);
      const double analytic_g = analytic[pi][j];
      const double denom =
          std::max(std::fabs(numeric), std::fabs(analytic_g));
      // Absolute floor covers float32 finite-difference noise (~1e-4 for
      // O(1) losses at eps=1e-3).
      EXPECT_NEAR(numeric, analytic_g, rel_tol * denom + abs_tol)
          << "param " << p->name << " index " << j;
    }
  }
  for (nn::Param* p : params) p->zero_grad();
}

/// Random [rows, cols] tensor.
inline Tensor random_tensor(int64_t rows, int64_t cols, Rng& rng,
                            float stddev = 1.0f) {
  Tensor t(Shape{rows, cols});
  fill_normal(t, rng, 0.0f, stddev);
  return t;
}

/// A tiny deterministic classification example.
inline nn::Example make_example(std::vector<int32_t> tokens, int32_t label) {
  nn::Example ex;
  ex.tokens = std::move(tokens);
  ex.segments.assign(ex.tokens.size(), 0);
  ex.label = label;
  return ex;
}

/// A file under the test temp dir whose name carries this process's id,
/// so concurrent runs of one suite never share (or delete) each other's
/// files. The file is removed when the guard leaves scope, on every
/// exit path, including a failed ASSERT.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "fqbert_" + std::to_string(::getpid()) +
              "_" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace fqbert::testing
