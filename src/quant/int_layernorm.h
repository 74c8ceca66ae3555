// Integer-only LayerNorm (paper Sec. III-B, "LN Core").
//
// LayerNorm's normalization term (x - mu) / sigma is scale-invariant: mu
// and sigma carry the same quantization scale as x, so the ratio needs no
// scale at all. The kernel therefore works directly on the int8/int32
// codes:
//
//   mu_I    = round(sum x_I / H)
//   var_I   = sum (x_I - mu_I)^2 / H
//   inv_std = 2^20 / isqrt(var_I << 20)     (Q20 fixed point, integer
//                                            Newton/bit-serial sqrt)
//   xhat    = (x_I - mu_I) * inv_std >> 10  (Q10)
//   y_I     = requant(xhat * gamma_q6) + beta_I, saturated to 8 bits
//
// gamma is held in Q6 8-bit fixed point and beta pre-quantized to the
// output scale — "parameters of layer normalization to 8-bit fixed-point
// values" (Sec. II-B).
//
// apply_row is the scalar row. The engine normalizes through
// core::layernorm_rows (src/core/int_kernels.h), which runs an AVX-512
// row kernel on that target and apply_row elsewhere; both build the
// row constants with row_mean and inv_std_of below, so they run one
// recipe.
#pragma once

#include <cstdint>
#include <vector>

#include "quant/fixed_point.h"
#include "quant/quantizer.h"

namespace fqbert::quant {

/// floor(sqrt(v)), exact for every 64-bit v: the value the LN core's
/// bit-serial (shift-subtract) root produces, computed here from a
/// double estimate and an integer correction.
uint32_t isqrt64(uint64_t v);

class IntLayerNorm {
 public:
  static constexpr int kGammaFracBits = 6;   // gamma in Q1.6
  static constexpr int kInvStdFracBits = 20; // 1/sigma in Q20
  static constexpr int kXhatFracBits = 10;   // normalized value in Q10

  /// gamma/beta: float parameters; output_scale: s_y of the int8 output.
  IntLayerNorm(const std::vector<float>& gamma, const std::vector<float>& beta,
               double output_scale);

  /// Normalize one row of H int32 codes into int8 codes (scale s_y).
  /// The input scale is irrelevant (scale invariance) as long as the
  /// codes are not saturated.
  void apply_row(const int32_t* x, int8_t* out) const;

  void apply(const std::vector<int32_t>& x, std::vector<int8_t>& out,
             int64_t rows) const;

  int64_t features() const { return static_cast<int64_t>(gamma_q_.size()); }
  double output_scale() const { return output_scale_; }
  const std::vector<int8_t>& gamma_q() const { return gamma_q_; }
  const std::vector<int32_t>& beta_q() const { return beta_q_; }
  const Requantizer& out_requant() const { return out_requant_; }

  /// mu_I of a row of h codes summing to `sum`, rounded half away from
  /// zero.
  static int64_t row_mean(int64_t sum, int64_t h) {
    return sum >= 0 ? (sum + h / 2) / h : -((-sum + h / 2) / h);
  }

  /// inv_std in Q(kInvStdFracBits) of a row of h codes whose squared
  /// deviations from mu_I sum to var_acc. A constant row (var_I == 0)
  /// gets 0, which makes every xhat 0, so the row emits beta alone.
  static int64_t inv_std_of(int64_t var_acc, int64_t h);

 private:
  std::vector<int8_t> gamma_q_;  // Q6 codes
  std::vector<int32_t> beta_q_;  // beta * s_y
  Requantizer out_requant_;      // maps xhat*gamma (Q16) to the s_y grid
  double output_scale_;
};

}  // namespace fqbert::quant
