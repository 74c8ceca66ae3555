// Integer GELU via a 256-entry lookup table.
//
// The paper's FFN1 stage ends in GELU (Fig. 1). On the accelerator every
// intermediate is 8-bit, so GELU becomes a direct code-to-code table: for
// each of the 256 possible int8 input codes (scale s_in) the table holds
// the int8 output code (scale s_out). This mirrors the softmax LUT
// strategy of Sec. III-B.
//
// apply() maps one code; apply_n() maps a buffer and is what the engine
// and the functional simulator call on the FFN1 output.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "quant/fixed_point.h"

namespace fqbert::quant {

class IntGelu {
 public:
  IntGelu(double input_scale, double output_scale) {
    for (int code = -128; code <= 127; ++code) {
      const double x = static_cast<double>(code) / input_scale;
      const double y = gelu_reference(x);
      table_[static_cast<size_t>(code + 128)] = static_cast<int8_t>(
          saturate_signed(static_cast<int64_t>(std::nearbyint(y * output_scale)), 8));
    }
  }

  int8_t apply(int8_t x) const {
    return table_[static_cast<size_t>(static_cast<int>(x) + 128)];
  }

  /// y[i] = apply(x[i]) for i < n. The table address is held in a local:
  /// an int8 store may alias anything, so a member read inside the loop
  /// would be reloaded on every element.
  void apply_n(const int8_t* x, int8_t* y, size_t n) const {
    const int8_t* table = table_.data() + 128;
    for (size_t i = 0; i < n; ++i) y[i] = table[x[i]];
  }

  static double gelu_reference(double x) {
    constexpr double kSqrt2OverPi = 0.7978845608028654;
    constexpr double kCoeff = 0.044715;
    const double u = kSqrt2OverPi * (x + kCoeff * x * x * x);
    return 0.5 * x * (1.0 + std::tanh(u));
  }

 private:
  std::array<int8_t, 256> table_{};
};

}  // namespace fqbert::quant
