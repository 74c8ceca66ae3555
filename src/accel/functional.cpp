#include "accel/functional.h"

#include <cassert>

namespace fqbert::accel {

namespace {

/// Route one QuantLinear through the BIM (8x4 mode) and requantize.
int64_t quant_linear_on_bim(const core::QuantLinear& ql, const Bim& bim,
                            const std::vector<int8_t>& x,
                            std::vector<int8_t>& y, int64_t s_len) {
  std::vector<int32_t> acc;
  // The BIM datapath consumes the int8 codes; narrow them back from the
  // engine's widened store (exact, and off the serving hot path).
  const int64_t cycles =
      bim_matmul_wt(bim, BimMode::k8x4, x, ql.narrow_codes(), acc, s_len,
                    ql.in, ql.out);
  core::requantize_i8(acc, ql.bias_q, ql.rq, y, s_len, ql.out);
  return cycles;
}

}  // namespace

FunctionalRunStats run_layer_on_bim(const core::FqEncoderLayer& layer,
                                    const Bim& bim,
                                    const std::vector<int8_t>& x,
                                    std::vector<int8_t>& y,
                                    int64_t seq_len) {
  FunctionalRunStats stats;
  const int64_t hidden = layer.hidden;
  const int64_t dh = layer.head_dim;

  std::vector<int8_t> q, k, v;
  stats.bim_cycles_8x4 += quant_linear_on_bim(layer.wq, bim, x, q, seq_len);
  stats.bim_cycles_8x4 += quant_linear_on_bim(layer.wk, bim, x, k, seq_len);
  stats.bim_cycles_8x4 += quant_linear_on_bim(layer.wv, bim, x, v, seq_len);
  stats.mac_count += 3 * seq_len * hidden * hidden;

  std::vector<int8_t> ctx(static_cast<size_t>(seq_len * hidden));
  std::vector<int8_t> qh(static_cast<size_t>(seq_len * dh));
  std::vector<int8_t> kh(static_cast<size_t>(seq_len * dh));
  std::vector<int8_t> vh(static_cast<size_t>(seq_len * dh));

  for (int64_t h = 0; h < layer.num_heads; ++h) {
    for (int64_t r = 0; r < seq_len; ++r) {
      const int8_t* qrow = q.data() + r * hidden + h * dh;
      const int8_t* krow = k.data() + r * hidden + h * dh;
      const int8_t* vrow = v.data() + r * hidden + h * dh;
      std::copy(qrow, qrow + dh, qh.data() + r * dh);
      std::copy(krow, krow + dh, kh.data() + r * dh);
      std::copy(vrow, vrow + dh, vh.data() + r * dh);
    }

    // QKᵀ through the BIM in 8x8 mode (both operands 8-bit signed).
    std::vector<int32_t> scores;
    stats.bim_cycles_8x8 += bim_matmul_wt(bim, BimMode::k8x8, qh, kh, scores,
                                          seq_len, dh, seq_len);
    stats.mac_count += seq_len * seq_len * dh;

    std::vector<int32_t> probs;
    layer.apply_softmax(scores, probs, seq_len);

    // Attn·V in 8x8 mode with *unsigned* probabilities. The probability
    // codes (0..255) are reinterpreted as raw bytes; the BIM multiplier
    // sign flag handles them. V must be presented column-major (the
    // intermediate buffer holds it transposed for this stage).
    std::vector<int8_t> probs_u8(static_cast<size_t>(seq_len * seq_len));
    for (size_t i = 0; i < probs_u8.size(); ++i) {
      assert(probs[i] >= 0 && probs[i] <= 255);
      probs_u8[i] = static_cast<int8_t>(static_cast<uint8_t>(probs[i]));
    }
    std::vector<int8_t> vt(static_cast<size_t>(dh * seq_len));
    for (int64_t r = 0; r < seq_len; ++r)
      for (int64_t c = 0; c < dh; ++c)
        vt[static_cast<size_t>(c * seq_len + r)] =
            vh[static_cast<size_t>(r * dh + c)];

    std::vector<int32_t> ctx_acc;
    stats.bim_cycles_8x8 +=
        bim_matmul_wt(bim, BimMode::k8x8, probs_u8, vt, ctx_acc, seq_len,
                      seq_len, dh, /*a_signed=*/false);
    stats.mac_count += seq_len * dh * seq_len;

    for (int64_t r = 0; r < seq_len; ++r) {
      int8_t* crow = ctx.data() + r * hidden + h * dh;
      const int32_t* arow = ctx_acc.data() + r * dh;
      for (int64_t c = 0; c < dh; ++c)
        crow[c] = static_cast<int8_t>(
            quant::saturate_signed(layer.ctx_rq.apply(arow[c]), 8));
    }
  }

  std::vector<int8_t> attn_out;
  stats.bim_cycles_8x4 +=
      quant_linear_on_bim(layer.wo, bim, ctx, attn_out, seq_len);
  stats.mac_count += seq_len * hidden * hidden;

  std::vector<int32_t> res(static_cast<size_t>(seq_len * hidden));
  layer.add_residual(attn_out.data(), x.data(), res.data(), seq_len * hidden,
                     /*first=*/true);

  std::vector<int8_t> ffn_x;
  layer.apply_layernorm(res, ffn_x, seq_len, /*first=*/true);

  std::vector<int8_t> pre, mid, fo;
  stats.bim_cycles_8x4 +=
      quant_linear_on_bim(layer.ffn1, bim, ffn_x, pre, seq_len);
  stats.mac_count += seq_len * hidden * layer.ffn_dim;
  mid.resize(pre.size());
  layer.gelu->apply_n(pre.data(), mid.data(), pre.size());
  stats.bim_cycles_8x4 +=
      quant_linear_on_bim(layer.ffn2, bim, mid, fo, seq_len);
  stats.mac_count += seq_len * hidden * layer.ffn_dim;

  layer.add_residual(fo.data(), ffn_x.data(), res.data(), seq_len * hidden,
                     /*first=*/false);
  layer.apply_layernorm(res, y, seq_len, /*first=*/false);
  return stats;
}

}  // namespace fqbert::accel
