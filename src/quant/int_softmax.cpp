#include "quant/int_softmax.h"

#include <algorithm>
#include <cmath>

namespace fqbert::quant {

IntSoftmax::IntSoftmax(double input_scale) {
  for (int i = 0; i < kLutSize; ++i) {
    const double v = 255.0 * std::exp(-static_cast<double>(i) * kStep);
    lut_[static_cast<size_t>(i)] =
        static_cast<uint8_t>(std::clamp<double>(std::nearbyint(v), 0.0, 255.0));
  }
  // idx = d_I / (input_scale * kStep): one fixed-point multiply.
  index_requant_ = Requantizer::from_scale(1.0 / (input_scale * kStep));
}

void IntSoftmax::apply_row(const int32_t* x, int32_t* out,
                           int64_t cols) const {
  int32_t mx = x[0];
  for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, x[c]);

  // d = max - x is never negative, so the index's round half away from
  // zero is a plain (d * m + half) >> shift: Requantizer::apply without
  // its sign branch (and without its int32 narrowing, which only an
  // index beyond 2^31 could reach), clamped to the table. Locals: the
  // stores to out may alias the members.
  const uint8_t* lut = lut_.data();
  const int64_t mult = index_requant_.multiplier;
  const int shift = index_requant_.shift;
  const int64_t half = shift > 0 ? int64_t{1} << (shift - 1) : 0;
  int64_t sum = 0;
  for (int64_t c = 0; c < cols; ++c) {
    const int64_t d = static_cast<int64_t>(mx) - x[c];
    const int64_t idx = std::min<int64_t>((d * mult + half) >> shift,
                                          kLutSize - 1);
    const int32_t n = lut[idx];
    out[c] = n;
    sum += n;
  }
  // sum >= 255 because the max element maps to LUT[0] = 255.
  // p = round(255 * n / sum) = floor((510 * n + sum) / (2 * sum)),
  // all-integer. A hardware divider per element is the naive form; here
  // the row-invariant divisor D = 2*sum is replaced by its exact
  // round-up reciprocal (Granlund–Montgomery): with
  // m = floor(2^42 / D) + 1, floor(num * m / 2^42) == floor(num / D)
  // for every num < 2^42 / D. num <= 510*255 + sum and D = 2*sum, so
  // the bound holds whenever D <= 2^21 (rows up to ~4096 columns);
  // longer rows take the division path.
  const uint64_t d2 = 2 * static_cast<uint64_t>(sum);
  if (d2 <= (1ull << 21)) {
    const uint64_t m = ((1ull << 42) / d2) + 1;
    for (int64_t c = 0; c < cols; ++c) {
      const uint64_t num =
          510 * static_cast<uint64_t>(out[c]) + static_cast<uint64_t>(sum);
      out[c] = static_cast<int32_t>((num * m) >> 42);
    }
  } else {
    for (int64_t c = 0; c < cols; ++c) {
      out[c] = static_cast<int32_t>(
          (static_cast<int64_t>(out[c]) * 255 * 2 + sum) / (2 * sum));
    }
  }
}

void IntSoftmax::apply(const std::vector<int32_t>& x, std::vector<int32_t>& out,
                       int64_t rows, int64_t cols) const {
  out.resize(static_cast<size_t>(rows * cols));
  for (int64_t r = 0; r < rows; ++r)
    apply_row(x.data() + r * cols, out.data() + r * cols, cols);
}

void softmax_reference(const float* x, float* out, int64_t cols) {
  float mx = x[0];
  for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, x[c]);
  double sum = 0.0;
  for (int64_t c = 0; c < cols; ++c) {
    out[c] = std::exp(x[c] - mx);
    sum += out[c];
  }
  for (int64_t c = 0; c < cols; ++c)
    out[c] = static_cast<float>(out[c] / sum);
}

}  // namespace fqbert::quant
