// Integer-only softmax with a 256-entry exponential lookup table
// (paper Sec. III-B, "Softmax Core").
//
// Softmax is shift-invariant, so every element first has the row maximum
// subtracted; the exponential argument is then in (-inf, 0] and exp of it
// in (0, 1], which is why a small 8-bit table suffices ("as we quantize
// exp(x_i) to 8-bit, only 256 sampling points are needed").
//
// Pipeline per row of the (integer) score matrix:
//   d_i   = max_j(x_j) - x_i                (non-negative integer)
//   idx_i = round(d_i / (s_x * step))       (integer requant, clamped 255)
//   n_i   = LUT[idx_i] = round(255*exp(-idx_i*step))   (8-bit numerator)
//   p_i   = round(255 * n_i / sum_j n_j)    (8-bit probability, scale 255)
//
// apply_row is the bulk entry point: one row over raw pointers, the LUT
// and the index multiplier held in locals so the output stores cannot
// force them to be reloaded per element.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "quant/fixed_point.h"
#include "quant/quantizer.h"

namespace fqbert::quant {

class IntSoftmax {
 public:
  static constexpr int kLutSize = 256;
  /// exp(-kRange) is below half a code of an 8-bit table.
  static constexpr double kRange = 6.0;
  static constexpr double kStep = kRange / (kLutSize - 1);

  /// input_scale: the scale of the integer scores (x = x_I / input_scale).
  explicit IntSoftmax(double input_scale);

  /// Row-wise integer softmax. x: int32 scores [rows*cols] row-major.
  /// out: uint8 probabilities stored as int32 in [0, 255], scale 255
  /// (p_real ~= out/255).
  void apply_row(const int32_t* x, int32_t* out, int64_t cols) const;
  void apply(const std::vector<int32_t>& x, std::vector<int32_t>& out,
             int64_t rows, int64_t cols) const;

  /// Output scale: p_real = p_I / output_scale().
  static double output_scale() { return 255.0; }

  const std::array<uint8_t, kLutSize>& lut() const { return lut_; }
  const Requantizer& index_requant() const { return index_requant_; }

 private:
  std::array<uint8_t, kLutSize> lut_{};
  Requantizer index_requant_;  // maps d_I to a LUT index
};

/// Float reference with the same LUT discretization disabled — used by
/// tests to bound the integer kernel's error.
void softmax_reference(const float* x, float* out, int64_t cols);

}  // namespace fqbert::quant
