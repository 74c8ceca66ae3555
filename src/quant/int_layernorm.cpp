#include "quant/int_layernorm.h"

#include <cmath>
#include <stdexcept>

namespace fqbert::quant {

uint32_t isqrt64(uint64_t v) {
  // The double estimate is within one of the root (v rounds to 53 bits
  // before the correctly rounded sqrt); the steps below make it exact.
  // r stays <= 2^32 - 1, so r * r and (r + 1)^2 fit in 64 bits.
  uint64_t r = static_cast<uint64_t>(std::sqrt(static_cast<double>(v)));
  if (r > 0xFFFFFFFFull) r = 0xFFFFFFFFull;
  while (r * r > v) --r;
  while (r < 0xFFFFFFFFull && (r + 1) * (r + 1) <= v) ++r;
  return static_cast<uint32_t>(r);
}

IntLayerNorm::IntLayerNorm(const std::vector<float>& gamma,
                           const std::vector<float>& beta,
                           double output_scale)
    : output_scale_(output_scale) {
  if (gamma.size() != beta.size() || gamma.empty())
    throw std::invalid_argument("gamma/beta size mismatch");
  gamma_q_.resize(gamma.size());
  beta_q_.resize(beta.size());
  const double gamma_scale = static_cast<double>(1 << kGammaFracBits);
  for (size_t i = 0; i < gamma.size(); ++i) {
    gamma_q_[i] = static_cast<int8_t>(
        saturate_signed(static_cast<int64_t>(std::nearbyint(
                            static_cast<double>(gamma[i]) * gamma_scale)),
                        8));
    beta_q_[i] = static_cast<int32_t>(
        std::nearbyint(static_cast<double>(beta[i]) * output_scale));
  }
  // xhat*gamma is in Q(kXhatFracBits + kGammaFracBits); map to the s_y grid.
  out_requant_ = Requantizer::from_scale(
      output_scale / std::ldexp(1.0, kXhatFracBits + kGammaFracBits));
}

int64_t IntLayerNorm::inv_std_of(int64_t var_acc, int64_t h) {
  const int64_t var = (var_acc + h / 2) / h;
  if (var == 0) return 0;
  // sigma * 2^(kInvStdFracBits/2)
  const uint32_t s = isqrt64(static_cast<uint64_t>(var) << kInvStdFracBits);
  // inv_std = 2^kInvStdFracBits / sigma  (Q(kInvStdFracBits))
  return ((1ll << (kInvStdFracBits + kInvStdFracBits / 2)) + s / 2) / s;
}

void IntLayerNorm::apply_row(const int32_t* x, int8_t* out) const {
  const int64_t h = features();
  // Locals: the int8 stores below may alias anything, so a member read
  // inside a loop would be reloaded on every element.
  const int8_t* gamma = gamma_q_.data();
  const int32_t* beta = beta_q_.data();

  int64_t sum = 0;
  for (int64_t c = 0; c < h; ++c) sum += x[c];
  const int64_t mu = row_mean(sum, h);

  int64_t var_acc = 0;
  for (int64_t c = 0; c < h; ++c) {
    const int64_t d = x[c] - mu;
    var_acc += d * d;
  }
  const int64_t inv_std = inv_std_of(var_acc, h);

  // Branch-free per-element loop, value-identical to
  // rounding_shift_right / Requantizer::apply / saturate_signed.
  // Mixed-sign rows make the generic helpers' sign branches mispredict,
  // and LN runs once per residual row on the serving hot path.
  constexpr int kXhatShift = kInvStdFracBits - kXhatFracBits;
  static_assert(kXhatShift > 0);
  constexpr int64_t kXhatHalf = 1ll << (kXhatShift - 1);
  const int64_t rq_mult = out_requant_.multiplier;
  const int rq_shift = out_requant_.shift;
  const int64_t rq_half = rq_shift > 0 ? (1ll << (rq_shift - 1)) : 0;
  for (int64_t c = 0; c < h; ++c) {
    const int64_t d = x[c] - mu;
    // xhat in Q(kXhatFracBits).
    const int64_t xhat = rounding_shift_right_branchless(
        d * inv_std, kXhatShift, kXhatHalf);
    const int64_t prod = xhat * gamma[c];
    const int64_t rq =
        rq_shift > 0
            ? rounding_shift_right_branchless(prod * rq_mult, rq_shift,
                                              rq_half)
            : prod * rq_mult;
    out[c] = clamp_i8(rq + beta[c]);
  }
}

void IntLayerNorm::apply(const std::vector<int32_t>& x, std::vector<int8_t>& out,
                         int64_t rows) const {
  const int64_t h = features();
  out.resize(static_cast<size_t>(rows * h));
  for (int64_t r = 0; r < rows; ++r)
    apply_row(x.data() + r * h, out.data() + r * h);
}

}  // namespace fqbert::quant
