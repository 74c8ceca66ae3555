// The seed's scalar FQ-BERT inference path, preserved as the oracle
// that tests and benches compare the engine's tile-GEMM path against.
//
// The engine's forward() runs the tile GEMM (src/core/int_kernels.h) on
// the host's kernel target; this header is the seed path's faithful
// reconstruction over its own scalar kernels — int_matmul_wt,
// int_matmul_pv and requantize_i8 below live here, not in the engine,
// so the oracle never shares code with what it checks. Per-call
// allocations, scalar matmuls, and — matching the seed, where int8
// codes stayed resident — the weight codes are unpacked ONCE at oracle
// construction, never inside a timed or fuzzed call. Shared by the
// kernel/fuzz/accelerator tests and the kernel/latency benches so there
// is exactly one reference implementation to keep in sync.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "core/fq_bert.h"

namespace fqbert::core::oracle {

/// acc[m,n] = sum_k a[m,k] * w[n,k] (w row-major [n, k], the usual
/// [out, in] layout; both int8 codes). The paper-reference kernel; QKᵀ
/// is the same product with K as w.
inline void int_matmul_wt(const std::vector<int8_t>& a,
                          const std::vector<int8_t>& w,
                          std::vector<int32_t>& acc, int64_t m, int64_t k,
                          int64_t n) {
  assert(static_cast<int64_t>(a.size()) == m * k);
  assert(static_cast<int64_t>(w.size()) == n * k);
  acc.assign(static_cast<size_t>(m * n), 0);
  for (int64_t i = 0; i < m; ++i) {
    const int8_t* arow = a.data() + i * k;
    int32_t* crow = acc.data() + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const int8_t* wrow = w.data() + j * k;
      int32_t s = 0;
      for (int64_t p = 0; p < k; ++p)
        s += static_cast<int32_t>(arow[p]) * static_cast<int32_t>(wrow[p]);
      crow[j] = s;
    }
  }
}

/// acc[m,n] = sum_k p[m,k] * v[k,n], p unsigned 8-bit codes in int32.
inline void int_matmul_pv(const std::vector<int32_t>& p,
                          const std::vector<int8_t>& v,
                          std::vector<int32_t>& acc, int64_t m, int64_t k,
                          int64_t n) {
  assert(static_cast<int64_t>(p.size()) == m * k);
  assert(static_cast<int64_t>(v.size()) == k * n);
  acc.assign(static_cast<size_t>(m * n), 0);
  for (int64_t i = 0; i < m; ++i) {
    const int32_t* prow = p.data() + i * k;
    int32_t* crow = acc.data() + i * n;
    for (int64_t q = 0; q < k; ++q) {
      const int32_t pv = prow[q];
      if (pv == 0) continue;
      const int8_t* vrow = v.data() + q * n;
      for (int64_t j = 0; j < n; ++j)
        crow[j] += pv * static_cast<int32_t>(vrow[j]);
    }
  }
}

/// The seed requantizer: round((acc + bias) * m) in int64, saturated
/// onto the symmetric int8 grid (Requantizer::apply without its int32
/// narrowing, so sums beyond int32 saturate instead of wrapping).
inline void requantize_i8(const std::vector<int32_t>& acc,
                          const std::vector<int32_t>& bias_per_col,
                          const quant::Requantizer& rq,
                          std::vector<int8_t>& out, int64_t rows,
                          int64_t cols) {
  out.resize(static_cast<size_t>(rows * cols));
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c) {
      const int64_t v =
          static_cast<int64_t>(acc[static_cast<size_t>(r * cols + c)]) +
          (bias_per_col.empty() ? 0 : bias_per_col[static_cast<size_t>(c)]);
      out[static_cast<size_t>(r * cols + c)] =
          static_cast<int8_t>(quant::saturate_signed(
              quant::rounding_shift_right(v * rq.multiplier, rq.shift), 8));
    }
}

/// The LN core's bit-serial (shift-subtract) floor(sqrt(v)).
inline uint32_t isqrt64(uint64_t v) {
  uint64_t rem = 0, root = 0;
  for (int i = 31; i >= 0; --i) {
    rem = (rem << 2) | ((v >> (2 * i)) & 3u);
    root <<= 1;
    const uint64_t trial = (root << 1) | 1u;
    if (trial <= rem) {
      rem -= trial;
      root |= 1u;
    }
  }
  return static_cast<uint32_t>(root);
}

/// The seed's scalar IntLayerNorm::apply_row over ln's quantized
/// parameters: bit-serial root, sign-branching rounding helpers. The
/// requantized product stays int64 up to the saturation, as in the
/// engine.
inline void layernorm_row(const quant::IntLayerNorm& ln, const int32_t* x,
                          int8_t* out) {
  using quant::IntLayerNorm;
  const int64_t h = ln.features();

  int64_t sum = 0;
  for (int64_t c = 0; c < h; ++c) sum += x[c];
  // Round-half-away-from-zero integer mean.
  const int64_t mu = sum >= 0 ? (sum + h / 2) / h : -((-sum + h / 2) / h);

  int64_t var_acc = 0;
  for (int64_t c = 0; c < h; ++c) {
    const int64_t d = x[c] - mu;
    var_acc += d * d;
  }
  const int64_t var = (var_acc + h / 2) / h;

  if (var == 0) {
    // Constant row: xhat is zero everywhere; emit beta only.
    for (int64_t c = 0; c < h; ++c)
      out[c] = static_cast<int8_t>(
          quant::saturate_signed(ln.beta_q()[static_cast<size_t>(c)], 8));
    return;
  }

  // sigma * 2^(kInvStdFracBits/2)
  const uint32_t s =
      isqrt64(static_cast<uint64_t>(var) << IntLayerNorm::kInvStdFracBits);
  // inv_std = 2^kInvStdFracBits / sigma  (Q(kInvStdFracBits))
  const int64_t inv_std =
      ((1ll << (IntLayerNorm::kInvStdFracBits +
                IntLayerNorm::kInvStdFracBits / 2)) +
       s / 2) /
      s;

  constexpr int kXhatShift =
      IntLayerNorm::kInvStdFracBits - IntLayerNorm::kXhatFracBits;
  for (int64_t c = 0; c < h; ++c) {
    const int64_t d = x[c] - mu;
    // xhat in Q(kXhatFracBits).
    const int64_t xhat = quant::rounding_shift_right(d * inv_std, kXhatShift);
    const int64_t prod = xhat * ln.gamma_q()[static_cast<size_t>(c)];
    const int64_t rq = quant::rounding_shift_right(
        prod * ln.out_requant().multiplier, ln.out_requant().shift);
    out[c] = static_cast<int8_t>(quant::saturate_signed(
        rq + ln.beta_q()[static_cast<size_t>(c)], 8));
  }
}

/// The seed's scalar IntSoftmax::apply_row over sm's LUT and index
/// requantizer: a division per probability.
inline void softmax_row(const quant::IntSoftmax& sm, const int32_t* x,
                        int32_t* out, int64_t cols) {
  int32_t mx = x[0];
  for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, x[c]);

  int64_t sum = 0;
  for (int64_t c = 0; c < cols; ++c) {
    const int64_t d = static_cast<int64_t>(mx) - x[c];  // >= 0
    int32_t idx = sm.index_requant().apply(d);
    idx = std::min<int32_t>(idx, quant::IntSoftmax::kLutSize - 1);
    out[c] = sm.lut()[static_cast<size_t>(idx)];
    sum += out[c];
  }
  // p = round(255 * n / sum), all-integer.
  for (int64_t c = 0; c < cols; ++c)
    out[c] = static_cast<int32_t>(
        (static_cast<int64_t>(out[c]) * 255 * 2 + sum) / (2 * sum));
}

/// layer.apply_softmax with the integer rows above (the float fallback
/// is the layer's own).
inline void oracle_softmax(const FqEncoderLayer& layer,
                           const std::vector<int32_t>& scores,
                           std::vector<int32_t>& probs, int64_t s_len) {
  if (!layer.use_int_softmax) {
    oracle_softmax(layer, scores, probs, s_len);
    return;
  }
  probs.resize(static_cast<size_t>(s_len * s_len));
  for (int64_t r = 0; r < s_len; ++r)
    softmax_row(*layer.softmax, scores.data() + r * s_len,
                probs.data() + r * s_len, s_len);
}

/// layer.apply_layernorm with the integer rows above (the float
/// fallback is the layer's own).
inline void oracle_layernorm(const FqEncoderLayer& layer,
                             const std::vector<int32_t>& res,
                             std::vector<int8_t>& out, int64_t s_len,
                             bool first) {
  if (!layer.use_int_layernorm) {
    layer.apply_layernorm(res, out, s_len, first);
    return;
  }
  const int64_t h = layer.hidden;
  out.resize(static_cast<size_t>(s_len * h));
  for (int64_t r = 0; r < s_len; ++r)
    layernorm_row(first ? *layer.ln1 : *layer.ln2, res.data() + r * h,
                  out.data() + r * h);
}

/// A QuantLinear plus its row-major int8 codes (seed layout).
struct OracleLinear {
  const QuantLinear* ql = nullptr;
  std::vector<int8_t> codes;

  explicit OracleLinear(const QuantLinear& q)
      : ql(&q), codes(q.narrow_codes()) {}
};

struct OracleLayer {
  const FqEncoderLayer* layer = nullptr;
  OracleLinear wq, wk, wv, wo, ffn1, ffn2;

  explicit OracleLayer(const FqEncoderLayer& l)
      : layer(&l), wq(l.wq), wk(l.wk), wv(l.wv), wo(l.wo), ffn1(l.ffn1),
        ffn2(l.ffn2) {}
};

struct OracleModel {
  const FqBertModel* engine = nullptr;
  std::vector<OracleLayer> layers;

  explicit OracleModel(const FqBertModel& e) : engine(&e) {
    layers.reserve(e.encoder_layers().size());
    for (const FqEncoderLayer& l : e.encoder_layers()) layers.emplace_back(l);
  }
};

inline void oracle_linear(const OracleLinear& ol, const std::vector<int8_t>& x,
                          std::vector<int8_t>& y, int64_t rows) {
  std::vector<int32_t> acc;
  int_matmul_wt(x, ol.codes, acc, rows, ol.ql->in, ol.ql->out);
  requantize_i8(acc, ol.ql->bias_q, ol.ql->rq, y, rows, ol.ql->out);
}

/// The seed FqEncoderLayer::forward, verbatim, over the oracle kernel.
inline void oracle_layer_forward(const OracleLayer& ol,
                                 const std::vector<int8_t>& x,
                                 std::vector<int8_t>& y, int64_t s_len) {
  const FqEncoderLayer& layer = *ol.layer;
  const int64_t hidden = layer.hidden;
  const int64_t head_dim = layer.head_dim;

  std::vector<int8_t> q, k, v;
  oracle_linear(ol.wq, x, q, s_len);
  oracle_linear(ol.wk, x, k, s_len);
  oracle_linear(ol.wv, x, v, s_len);

  std::vector<int8_t> ctx(static_cast<size_t>(s_len * hidden));
  std::vector<int8_t> qh(static_cast<size_t>(s_len * head_dim));
  std::vector<int8_t> kh(static_cast<size_t>(s_len * head_dim));
  std::vector<int8_t> vh(static_cast<size_t>(s_len * head_dim));
  std::vector<int32_t> scores, probs, ctx_acc;

  for (int64_t h = 0; h < layer.num_heads; ++h) {
    for (int64_t r = 0; r < s_len; ++r) {
      const int8_t* qrow = q.data() + r * hidden + h * head_dim;
      const int8_t* krow = k.data() + r * hidden + h * head_dim;
      const int8_t* vrow = v.data() + r * hidden + h * head_dim;
      std::copy(qrow, qrow + head_dim, qh.data() + r * head_dim);
      std::copy(krow, krow + head_dim, kh.data() + r * head_dim);
      std::copy(vrow, vrow + head_dim, vh.data() + r * head_dim);
    }
    int_matmul_wt(qh, kh, scores, s_len, head_dim, s_len);
    oracle_softmax(layer, scores, probs, s_len);
    int_matmul_pv(probs, vh, ctx_acc, s_len, s_len, head_dim);
    for (int64_t r = 0; r < s_len; ++r) {
      int8_t* crow = ctx.data() + r * hidden + h * head_dim;
      const int32_t* arow = ctx_acc.data() + r * head_dim;
      for (int64_t c = 0; c < head_dim; ++c)
        crow[c] = static_cast<int8_t>(
            quant::saturate_signed(layer.ctx_rq.apply(arow[c]), 8));
    }
  }

  std::vector<int8_t> attn_out;
  oracle_linear(ol.wo, ctx, attn_out, s_len);

  std::vector<int32_t> res(static_cast<size_t>(s_len * hidden));
  for (int64_t i = 0; i < s_len * hidden; ++i)
    res[static_cast<size_t>(i)] =
        static_cast<int32_t>(attn_out[static_cast<size_t>(i)]) +
        layer.res1_rq.apply(x[static_cast<size_t>(i)]);

  std::vector<int8_t> ffn_x;
  oracle_layernorm(layer, res, ffn_x, s_len, /*first=*/true);

  std::vector<int8_t> pre, mid, fo;
  oracle_linear(ol.ffn1, ffn_x, pre, s_len);
  mid.resize(pre.size());
  for (size_t i = 0; i < pre.size(); ++i) mid[i] = layer.gelu->apply(pre[i]);
  oracle_linear(ol.ffn2, mid, fo, s_len);

  for (int64_t i = 0; i < s_len * hidden; ++i)
    res[static_cast<size_t>(i)] =
        static_cast<int32_t>(fo[static_cast<size_t>(i)]) +
        layer.res2_rq.apply(ffn_x[static_cast<size_t>(i)]);
  oracle_layernorm(layer, res, y, s_len, /*first=*/false);
}

/// Seed encoder stack over the oracle path (x consumed by value, like
/// the seed's ping-pong buffers).
inline void oracle_encoder(const OracleModel& om, std::vector<int8_t> x,
                           std::vector<int8_t>& out, int64_t s_len) {
  std::vector<int8_t> y;
  for (const OracleLayer& ol : om.layers) {
    oracle_layer_forward(ol, x, y, s_len);
    x.swap(y);
  }
  out = std::move(x);
}

/// The seed FqBertModel::forward: embed -> scalar encoder -> head.
inline Tensor oracle_forward(const OracleModel& om, const nn::Example& ex) {
  std::vector<int8_t> out;
  oracle_encoder(om, om.engine->embed(ex), out,
                 static_cast<int64_t>(ex.tokens.size()));
  return om.engine->head(out);
}

}  // namespace fqbert::core::oracle
