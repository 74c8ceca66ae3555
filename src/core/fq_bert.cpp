#include "core/fq_bert.h"

#include <cmath>

#include "core/model_size.h"
#include "nn/layers.h"

namespace fqbert::core {

using quant::clip_threshold;
using quant::quantize_scale_8bit;
using quant::Requantizer;
using quant::scale_from_threshold;

namespace {

/// Activation scale from a calibrated EMA hook.
double act_scale_of(quant::ActFakeQuant& hook, const FqQuantConfig& cfg) {
  if (!hook.observer().initialized()) {
    throw std::runtime_error(
        "activation observer not calibrated; run QatBert::calibrate first");
  }
  double scale = scale_from_threshold(hook.observer().value(), cfg.act_bits);
  if (cfg.quantize_scales) scale = quantize_scale_8bit(scale);
  return scale;
}

/// Weight scale recomputed from the final trained weights.
double weight_scale_of(const Tensor& w, const FqQuantConfig& cfg) {
  const double t = clip_threshold(w, cfg.clip, cfg.clip_percentile);
  double s = scale_from_threshold(t, cfg.weight_bits);
  if (cfg.quantize_scales) s = quantize_scale_8bit(s);
  return s;
}

QuantLinear make_quant_linear(const nn::Linear& lin, double in_scale,
                              double out_scale, const FqQuantConfig& cfg) {
  QuantLinear q;
  q.in = lin.in_features();
  q.out = lin.out_features();
  q.weight_bits = cfg.weight_bits;
  q.in_scale = in_scale;
  q.out_scale = out_scale;
  q.w_scale = weight_scale_of(lin.weight.value, cfg);

  std::vector<int8_t> codes(static_cast<size_t>(q.out * q.in));
  for (int64_t i = 0; i < lin.weight.value.numel(); ++i)
    codes[static_cast<size_t>(i)] = static_cast<int8_t>(
        quant::quantize_value(lin.weight.value[i], q.w_scale, cfg.weight_bits));
  q.set_codes(codes);

  // Eq. 4: biases on the accumulator grid s_in * s_w.
  q.bias_q.resize(static_cast<size_t>(q.out));
  const double sbias = q.in_scale * q.w_scale;
  for (int64_t i = 0; i < q.out; ++i)
    q.bias_q[static_cast<size_t>(i)] = static_cast<int32_t>(
        std::nearbyint(static_cast<double>(lin.bias.value[i]) * sbias));

  // Eq. 5: sf = s_y / (s_a * s_w).
  q.rq = Requantizer::from_scale(out_scale / sbias);
  return q;
}

/// Dequantized copy of a weight tensor (what the "CPU side" computes with:
/// the low-bit codes expanded back to float).
Tensor dequantized_weights(const Tensor& w, const FqQuantConfig& cfg) {
  const double s = weight_scale_of(w, cfg);
  return quant::fake_quantize_tensor(w, s, cfg.weight_bits);
}

std::vector<float> maybe_fixed_grid(const Tensor& v, bool quantize,
                                    double grid_scale) {
  std::vector<float> out(static_cast<size_t>(v.numel()));
  for (int64_t i = 0; i < v.numel(); ++i) {
    out[static_cast<size_t>(i)] =
        quantize ? static_cast<float>(
                       std::nearbyint(v[i] * grid_scale) / grid_scale)
                 : v[i];
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// QuantLinear
// ---------------------------------------------------------------------------

void QuantLinear::forward_i8(const std::vector<int8_t>& x,
                             std::vector<int8_t>& y, int64_t rows) const {
  // Grow-only thread-local scratch keeps the const API reentrant and
  // the standalone call allocation-free in steady state.
  static thread_local std::vector<int32_t> acc;
  forward_i8(x, y, rows, acc);
}

void QuantLinear::forward_i8(const std::vector<int8_t>& x,
                             std::vector<int8_t>& y, int64_t rows,
                             std::vector<int32_t>& acc) const {
  acc.resize(static_cast<size_t>(rows * out));
  gemm_tiles(x.data(), in, rows, in, tiles(), w_corr.data(), out, acc.data(),
             out);
  requantize_i8(acc, bias_q, rq, y, rows, out);
}

void QuantLinear::set_codes(const std::vector<int8_t>& codes) {
  w_map = nullptr;
  w_own.resize(tile_bytes(out, in));
  w_corr.resize(static_cast<size_t>(padded_cols(out)));
  pack_tiles(codes.data(), in, 1, out, in, w_own.data(), w_corr.data());
}

bool QuantLinear::map_tiles(const int8_t* view) {
  w_map = view;
  w_own.clear();
  w_own.shrink_to_fit();
  w_corr.resize(static_cast<size_t>(padded_cols(out)));
  return tile_corrections(view, out, in, w_corr.data());
}

std::vector<int8_t> QuantLinear::narrow_codes() const {
  std::vector<int8_t> codes(static_cast<size_t>(in * out));
  unpack_tiles(tiles(), out, in, codes.data());
  return codes;
}

std::vector<uint8_t> QuantLinear::packed_weights() const {
  const std::vector<int8_t> codes = narrow_codes();
  if (weight_bits > 4) {
    return std::vector<uint8_t>(codes.begin(), codes.end());
  }
  return quant::pack_int4(codes);
}

// ---------------------------------------------------------------------------
// FqEncoderLayer
// ---------------------------------------------------------------------------

void FqEncoderLayer::forward(const std::vector<int8_t>& x,
                             std::vector<int8_t>& y, int64_t s_len) const {
  // One integer compute path: the single-request forward is a batch of
  // one sequence. The thread-local scratch keeps the const API
  // reentrant and the call allocation-free in steady state; it is
  // distinct from the model-level forward_batch scratch, so callers
  // handing in their own buffers never alias it.
  static thread_local FqBatchScratch scratch;
  static thread_local std::vector<int64_t> one_seq(1);
  one_seq[0] = s_len;
  forward_batch(x, y, one_seq, scratch);
}

void FqEncoderLayer::forward_batch(const std::vector<int8_t>& x,
                                   std::vector<int8_t>& y,
                                   const std::vector<int64_t>& seq_lens,
                                   FqBatchScratch& s) const {
  int64_t total = 0;
  for (int64_t len : seq_lens) total += len;

  // Projections batched over every row of every sequence: one matmul
  // per weight matrix instead of one per sequence.
  std::vector<int8_t>&q = s.q, &k = s.k, &v = s.v;
  wq.forward_i8(x, q, total, s.acc);
  wk.forward_i8(x, k, total, s.acc);
  wv.forward_i8(x, v, total, s.acc);

  // Attention is the only token-mixing stage, so it runs per sequence
  // and head; everything else below stays row-local and batches freely.
  // Heads are read in place (row stride `hidden`): K packs as the QKᵀ
  // right operand, Vᵀ as the PV one, and every head's context lands in
  // its columns of ctx_acc for one requantization at the end.
  std::vector<int32_t>&scores = s.scores, &probs = s.probs,
                      &ctx_acc = s.ctx_acc;
  ctx_acc.resize(static_cast<size_t>(total * hidden));
  int64_t off = 0;
  for (const int64_t s_len : seq_lens) {
    const auto sq = static_cast<size_t>(s_len * s_len);
    scores.resize(sq);
    s.probs8.resize(sq);
    s.head_tiles.resize(
        std::max(tile_bytes(s_len, head_dim), tile_bytes(head_dim, s_len)));
    s.head_corr.resize(static_cast<size_t>(padded_cols(s_len)));
    for (int64_t h = 0; h < num_heads; ++h) {
      const int64_t at = off * hidden + h * head_dim;
      pack_tiles(k.data() + at, hidden, 1, s_len, head_dim,
                 s.head_tiles.data(), s.head_corr.data());
      gemm_tiles(q.data() + at, hidden, s_len, head_dim, s.head_tiles.data(),
                 s.head_corr.data(), s_len, scores.data(), s_len);
      apply_softmax(scores, probs, s_len);
      // Probabilities are u8 codes: pass p - 128 with no correction.
      const int32_t* p = probs.data();
      int8_t* p8 = s.probs8.data();
      for (size_t i = 0; i < sq; ++i) p8[i] = static_cast<int8_t>(p[i] - 128);
      pack_tiles(v.data() + at, 1, hidden, head_dim, s_len,
                 s.head_tiles.data(), nullptr);
      gemm_tiles(s.probs8.data(), s_len, s_len, s_len, s.head_tiles.data(),
                 nullptr, head_dim, ctx_acc.data() + at, hidden);
    }
    off += s_len;
  }
  std::vector<int8_t>& ctx = s.ctx;
  requantize_i8(ctx_acc, {}, ctx_rq, ctx, total, hidden);

  std::vector<int8_t>& attn_out = s.attn_out;
  wo.forward_i8(ctx, attn_out, total, s.acc);

  std::vector<int32_t>& res = s.res;
  res.resize(static_cast<size_t>(total * hidden));
  add_residual(attn_out.data(), x.data(), res.data(), total * hidden,
               /*first=*/true);

  std::vector<int8_t>& ffn_x = s.ffn_x;
  apply_layernorm(res, ffn_x, total, /*first=*/true);

  std::vector<int8_t>&pre = s.pre, &mid = s.mid, &fo = s.fo;
  ffn1.forward_i8(ffn_x, pre, total, s.acc);
  mid.resize(pre.size());
  gelu->apply_n(pre.data(), mid.data(), pre.size());
  ffn2.forward_i8(mid, fo, total, s.acc);

  add_residual(fo.data(), ffn_x.data(), res.data(), total * hidden,
               /*first=*/false);
  apply_layernorm(res, y, total, /*first=*/false);
}

void FqEncoderLayer::add_residual(const int8_t* branch, const int8_t* skip,
                                  int32_t* res, int64_t n, bool first) const {
  // A local table pointer: the int32 stores may alias the layer's members.
  const int32_t* lut = (first ? res1_lut : res2_lut).data() + 128;
  for (int64_t i = 0; i < n; ++i) res[i] = branch[i] + lut[skip[i]];
}

void FqEncoderLayer::apply_softmax(const std::vector<int32_t>& scores,
                                   std::vector<int32_t>& probs,
                                   int64_t s_len) const {
  if (use_int_softmax) {
    softmax->apply(scores, probs, s_len, s_len);
    return;
  }
  // Float softmax on dequantized scores; the output still lands on the
  // 255 grid (it must be 8-bit to enter the next matmul).
  const double score_scale =
      q_scale * k_scale * std::sqrt(static_cast<double>(head_dim));
  probs.resize(static_cast<size_t>(s_len * s_len));
  std::vector<float> row(static_cast<size_t>(s_len));
  std::vector<float> prow(static_cast<size_t>(s_len));
  for (int64_t r = 0; r < s_len; ++r) {
    for (int64_t c = 0; c < s_len; ++c)
      row[static_cast<size_t>(c)] = static_cast<float>(
          scores[static_cast<size_t>(r * s_len + c)] / score_scale);
    quant::softmax_reference(row.data(), prow.data(), s_len);
    for (int64_t c = 0; c < s_len; ++c)
      probs[static_cast<size_t>(r * s_len + c)] = static_cast<int32_t>(
          std::nearbyint(prow[static_cast<size_t>(c)] * 255.0));
  }
}

void FqEncoderLayer::apply_layernorm(const std::vector<int32_t>& res,
                                     std::vector<int8_t>& out, int64_t s_len,
                                     bool first) const {
  if (use_int_layernorm) {
    out.resize(static_cast<size_t>(s_len * hidden));
    layernorm_rows(first ? *ln1 : *ln2, res.data(), out.data(), s_len);
    return;
  }
  // Float fallback: dequantize the residual (scale of the second residual
  // operand), normalize in float, requantize to the stage output grid.
  const double res_scale = first ? attn_out_scale : ffn_out_scale;
  const double o_scale = first ? ffn_in_scale : out_scale;
  const std::vector<float>& gamma = first ? ln1_gamma : ln2_gamma;
  const std::vector<float>& beta = first ? ln1_beta : ln2_beta;

  out.resize(static_cast<size_t>(s_len * hidden));
  std::vector<double> row(static_cast<size_t>(hidden));
  for (int64_t r = 0; r < s_len; ++r) {
    const int32_t* xr = res.data() + r * hidden;
    double mu = 0.0;
    for (int64_t c = 0; c < hidden; ++c) {
      row[static_cast<size_t>(c)] = static_cast<double>(xr[c]) / res_scale;
      mu += row[static_cast<size_t>(c)];
    }
    mu /= static_cast<double>(hidden);
    double var = 0.0;
    for (int64_t c = 0; c < hidden; ++c) {
      const double d = row[static_cast<size_t>(c)] - mu;
      var += d * d;
    }
    var /= static_cast<double>(hidden);
    const double inv_std = 1.0 / std::sqrt(var + 1e-5);
    for (int64_t c = 0; c < hidden; ++c) {
      const double y = (row[static_cast<size_t>(c)] - mu) * inv_std *
                           gamma[static_cast<size_t>(c)] +
                       beta[static_cast<size_t>(c)];
      out[static_cast<size_t>(r * hidden + c)] = static_cast<int8_t>(
          quant::quantize_value(static_cast<float>(y), o_scale, 8));
    }
  }
}

// ---------------------------------------------------------------------------
// FqBertModel
// ---------------------------------------------------------------------------

FqBertModel FqBertModel::convert(QatBert& qat) {
  nn::BertModel& m = qat.model();
  const FqQuantConfig& cfg = qat.config();
  if (!cfg.quantize_weights_acts) {
    throw std::invalid_argument(
        "conversion requires quantize_weights_acts=true (the float "
        "baseline is the nn::BertModel itself)");
  }

  FqBertModel out;
  out.config_ = m.config();
  out.quant_config_ = cfg;
  out.weight_bits_ = cfg.weight_bits;

  // CPU-side front: dequantized low-bit embedding tables.
  out.tok_table_ = dequantized_weights(m.tok_emb.table.value, cfg);
  out.pos_table_ = dequantized_weights(m.pos_emb.table.value, cfg);
  out.seg_table_ = dequantized_weights(m.seg_emb.table.value, cfg);
  const double ln_grid = 1 << quant::IntLayerNorm::kGammaFracBits;
  out.emb_ln_gamma_ = maybe_fixed_grid(m.emb_ln.gamma.value,
                                       cfg.quantize_layernorm, ln_grid);
  out.emb_ln_beta_ = maybe_fixed_grid(m.emb_ln.beta.value,
                                      cfg.quantize_layernorm, ln_grid);

  const size_t num_layers = m.layers.size();
  out.layers_.resize(num_layers);
  for (size_t l = 0; l < num_layers; ++l) {
    const LayerHooks& h = qat.layer_hooks(l);
    nn::EncoderLayer& src = *m.layers[l];
    FqEncoderLayer& dst = out.layers_[l];

    dst.hidden = out.config_.hidden;
    dst.ffn_dim = out.config_.ffn_dim;
    dst.num_heads = out.config_.num_heads;
    dst.head_dim = out.config_.head_dim();
    dst.use_int_softmax = cfg.quantize_softmax;
    dst.use_int_layernorm = cfg.quantize_layernorm;

    dst.in_scale = act_scale_of(*h.input, cfg);
    dst.q_scale = act_scale_of(*h.q, cfg);
    dst.k_scale = act_scale_of(*h.k, cfg);
    dst.v_scale = act_scale_of(*h.v, cfg);
    dst.ctx_scale = act_scale_of(*h.ctx, cfg);
    dst.attn_out_scale = act_scale_of(*h.attn_out, cfg);
    dst.ffn_in_scale = act_scale_of(*h.ffn_in, cfg);
    dst.pre_gelu_scale = act_scale_of(*h.pre_gelu, cfg);
    dst.ffn_mid_scale = act_scale_of(*h.ffn_mid, cfg);
    dst.ffn_out_scale = act_scale_of(*h.ffn_out, cfg);
    dst.out_scale = l + 1 < num_layers
                        ? act_scale_of(*qat.layer_hooks(l + 1).input, cfg)
                        : act_scale_of(qat.final_act_hook(), cfg);

    dst.wq = make_quant_linear(src.attn.wq, dst.in_scale, dst.q_scale, cfg);
    dst.wk = make_quant_linear(src.attn.wk, dst.in_scale, dst.k_scale, cfg);
    dst.wv = make_quant_linear(src.attn.wv, dst.in_scale, dst.v_scale, cfg);
    dst.wo = make_quant_linear(src.attn.wo, dst.ctx_scale,
                               dst.attn_out_scale, cfg);
    dst.ffn1 = make_quant_linear(src.ffn1, dst.ffn_in_scale,
                                 dst.pre_gelu_scale, cfg);
    dst.ffn2 = make_quant_linear(src.ffn2, dst.ffn_mid_scale,
                                 dst.ffn_out_scale, cfg);

    dst.ln1_gamma = maybe_fixed_grid(src.ln1.gamma.value,
                                     cfg.quantize_layernorm, ln_grid);
    dst.ln1_beta = maybe_fixed_grid(src.ln1.beta.value,
                                    cfg.quantize_layernorm, ln_grid);
    dst.ln2_gamma = maybe_fixed_grid(src.ln2.gamma.value,
                                     cfg.quantize_layernorm, ln_grid);
    dst.ln2_beta = maybe_fixed_grid(src.ln2.beta.value,
                                    cfg.quantize_layernorm, ln_grid);
    rebuild_derived_kernels(dst);
  }

  out.emb_scale_ = out.layers_.empty()
                       ? act_scale_of(qat.emb_act_hook(), cfg)
                       : out.layers_[0].in_scale;

  // CPU-side head.
  out.pooler_w_ = dequantized_weights(m.pooler.weight.value, cfg);
  out.classifier_w_ = dequantized_weights(m.classifier.weight.value, cfg);
  out.pooler_b_.assign(m.pooler.bias.value.data(),
                       m.pooler.bias.value.data() +
                           m.pooler.bias.value.numel());
  out.classifier_b_.assign(m.classifier.bias.value.data(),
                           m.classifier.bias.value.data() +
                               m.classifier.bias.value.numel());
  return out;
}

std::vector<int8_t> FqBertModel::embed(const nn::Example& ex) const {
  std::vector<int8_t> codes(ex.tokens.size() *
                            static_cast<size_t>(config_.hidden));
  embed_into(ex, codes.data());
  return codes;
}

void FqBertModel::embed_into(const nn::Example& ex, int8_t* codes) const {
  const int64_t s_len = static_cast<int64_t>(ex.tokens.size());
  const int64_t hdim = config_.hidden;

  // Sum of the three (dequantized) embedding rows; one buffer serves
  // every row.
  std::vector<double> row(static_cast<size_t>(hdim));
  for (int64_t r = 0; r < s_len; ++r) {
    const float* tok = tok_table_.row(ex.tokens[static_cast<size_t>(r)]);
    const float* pos = pos_table_.row(r);
    const float* seg = seg_table_.row(ex.segments[static_cast<size_t>(r)]);
    for (int64_t c = 0; c < hdim; ++c)
      row[static_cast<size_t>(c)] =
          static_cast<double>(tok[c]) + pos[c] + seg[c];

    // Float LayerNorm (CPU side), then quantize to the encoder grid.
    double mu = 0.0;
    for (double vv : row) mu += vv;
    mu /= static_cast<double>(hdim);
    double var = 0.0;
    for (double vv : row) var += (vv - mu) * (vv - mu);
    var /= static_cast<double>(hdim);
    const double inv_std = 1.0 / std::sqrt(var + 1e-5);
    for (int64_t c = 0; c < hdim; ++c) {
      const double xhat = (row[static_cast<size_t>(c)] - mu) * inv_std;
      const double yv = xhat * emb_ln_gamma_[static_cast<size_t>(c)] +
                        emb_ln_beta_[static_cast<size_t>(c)];
      codes[static_cast<size_t>(r * hdim + c)] = static_cast<int8_t>(
          quant::quantize_value(static_cast<float>(yv), emb_scale_, 8));
    }
  }
}

Tensor FqBertModel::head(const std::vector<int8_t>& final_codes) const {
  return head_row(final_codes.data());
}

Tensor FqBertModel::head_row(const int8_t* cls_codes) const {
  const int64_t hdim = config_.hidden;
  const double final_scale =
      layers_.empty() ? emb_scale_ : layers_.back().out_scale;

  // CPU-side head on the dequantized CLS row.
  Tensor cls(Shape{1, hdim});
  for (int64_t c = 0; c < hdim; ++c)
    cls[c] = static_cast<float>(cls_codes[c] / final_scale);

  Tensor pooled;
  matmul_bt(cls, pooler_w_, pooled);
  for (int64_t c = 0; c < hdim; ++c)
    pooled[c] = std::tanh(pooled[c] + pooler_b_[static_cast<size_t>(c)]);

  Tensor logits;
  matmul_bt(pooled, classifier_w_, logits);
  for (int64_t c = 0; c < config_.num_classes; ++c)
    logits[c] += classifier_b_[static_cast<size_t>(c)];
  return logits.reshaped(Shape{config_.num_classes});
}

Tensor FqBertModel::forward(const nn::Example& ex) const {
  // Batch of one through the batched path: same integer arithmetic,
  // same scratch reuse, bit-identical logits.
  std::vector<Tensor> logits = forward_batch({&ex});
  return std::move(logits[0]);
}

std::vector<Tensor> FqBertModel::forward_batch(
    const std::vector<const nn::Example*>& batch) const {
  if (batch.empty()) return {};

  // Pack the examples into one ragged int8 batch (no padding): example
  // i's rows start at offsets[i].
  std::vector<int64_t> seq_lens(batch.size());
  std::vector<int64_t> offsets(batch.size());
  int64_t total = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    seq_lens[i] = static_cast<int64_t>(batch[i]->tokens.size());
    offsets[i] = total;
    total += seq_lens[i];
  }

  // Per-thread grow-only scratch: the serving hot loop stays
  // allocation-free in steady state, which is where most of the
  // batching win over per-example forward() comes from on CPU.
  static thread_local FqBatchScratch scratch;

  const int64_t hdim = config_.hidden;
  std::vector<int8_t>* x = &scratch.act_a;
  std::vector<int8_t>* y = &scratch.act_b;
  x->resize(static_cast<size_t>(total * hdim));
  for (size_t i = 0; i < batch.size(); ++i)
    embed_into(*batch[i], x->data() + offsets[i] * hdim);

  for (const FqEncoderLayer& layer : layers_) {
    layer.forward_batch(*x, *y, seq_lens, scratch);
    std::swap(x, y);
  }

  std::vector<Tensor> logits;
  logits.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i)
    logits.push_back(head_row(x->data() + offsets[i] * hdim));
  return logits;
}

std::vector<Tensor> FqBertModel::forward_batch(
    const std::vector<nn::Example>& batch) const {
  std::vector<const nn::Example*> ptrs;
  ptrs.reserve(batch.size());
  for (const nn::Example& ex : batch) ptrs.push_back(&ex);
  return forward_batch(ptrs);
}

int32_t FqBertModel::predict(const nn::Example& ex) const {
  Tensor logits = forward(ex);
  return static_cast<int32_t>(argmax(logits.data(), logits.numel()));
}

double FqBertModel::accuracy(const std::vector<nn::Example>& data) const {
  if (data.empty()) return 0.0;
  int64_t correct = 0;
  for (const nn::Example& ex : data)
    if (predict(ex) == ex.label) ++correct;
  return 100.0 * static_cast<double>(correct) /
         static_cast<double>(data.size());
}

quant::SizeReport FqBertModel::size_report() const {
  return model_size_report(config_, quant_config_);
}

void rebuild_derived_kernels(FqEncoderLayer& layer) {
  const double score_scale =
      layer.q_scale * layer.k_scale *
      std::sqrt(static_cast<double>(layer.head_dim));
  layer.softmax = std::make_unique<quant::IntSoftmax>(score_scale);
  layer.gelu = std::make_unique<quant::IntGelu>(layer.pre_gelu_scale,
                                                layer.ffn_mid_scale);
  layer.ln1 = std::make_unique<quant::IntLayerNorm>(layer.ln1_gamma,
                                                    layer.ln1_beta,
                                                    layer.ffn_in_scale);
  layer.ln2 = std::make_unique<quant::IntLayerNorm>(layer.ln2_gamma,
                                                    layer.ln2_beta,
                                                    layer.out_scale);
  layer.ctx_rq =
      Requantizer::from_scale(layer.ctx_scale / (255.0 * layer.v_scale));
  layer.res1_rq =
      Requantizer::from_scale(layer.attn_out_scale / layer.in_scale);
  layer.res2_rq =
      Requantizer::from_scale(layer.ffn_out_scale / layer.ffn_in_scale);
  for (int code = -128; code <= 127; ++code) {
    layer.res1_lut[static_cast<size_t>(code + 128)] = layer.res1_rq.apply(code);
    layer.res2_lut[static_cast<size_t>(code + 128)] = layer.res2_rq.apply(code);
  }
}

namespace {

/// Rescale one quantized linear layer onto a new bit-width's grid.
/// The weight scale moves by qmax(new)/qmax(old) so the represented
/// float range is preserved; codes and biases are re-rounded by the
/// exact factor the scale actually moved (which differs from the pure
/// ratio when 8-bit scale quantization re-snaps it).
QuantLinear derive_quant_linear(const QuantLinear& src, int new_bits,
                                const FqQuantConfig& cfg) {
  QuantLinear q;
  q.in = src.in;
  q.out = src.out;
  q.weight_bits = new_bits;
  q.in_scale = src.in_scale;
  q.out_scale = src.out_scale;

  const double ratio =
      static_cast<double>(quant::qmax_signed(new_bits)) /
      static_cast<double>(quant::qmax_signed(src.weight_bits));
  double s_new = src.w_scale * ratio;
  if (cfg.quantize_scales) s_new = quantize_scale_8bit(s_new);
  q.w_scale = s_new;
  const double factor = s_new / src.w_scale;

  // Codes map code-to-code, so one 256-entry table replaces the
  // per-element rounding; padding (code 0) stays 0. One pass over the
  // parent's tiles in storage order ([column tile][group][lane][step])
  // writes the new tiles and their column sums.
  const int64_t qmax = quant::qmax_signed(new_bits);
  int8_t remap[256];
  for (int code = -128; code <= 127; ++code) {
    const auto scaled = static_cast<int64_t>(
        std::nearbyint(static_cast<double>(code) * factor));
    remap[code + 128] =
        static_cast<int8_t>(std::max(-qmax, std::min(qmax, scaled)));
  }
  const int64_t ncols = padded_cols(q.out);
  const int64_t depth = padded_depth(q.in);
  q.w_own.resize(src.weight_bytes());
  q.w_corr.resize(static_cast<size_t>(ncols));
  const int8_t* from = src.tiles();
  int8_t* to = q.w_own.data();
  int32_t* corr = q.w_corr.data();
  for (int64_t j0 = 0; j0 < ncols; j0 += kTileCols) {
    int32_t sums[kTileCols] = {};
    for (int64_t p0 = 0; p0 < depth; p0 += kTileDepth)
      for (int64_t c = 0; c < kTileCols; ++c)
        for (int64_t step = 0; step < kTileDepth; ++step, ++from, ++to) {
          *to = remap[*from + 128];
          sums[c] += *to;
        }
    for (int64_t c = 0; c < kTileCols; ++c) corr[j0 + c] = 128 * sums[c];
  }

  q.bias_q.resize(src.bias_q.size());
  for (size_t i = 0; i < src.bias_q.size(); ++i)
    q.bias_q[i] = static_cast<int32_t>(
        std::nearbyint(static_cast<double>(src.bias_q[i]) * factor));

  // Eq. 5 on the new weight grid.
  q.rq = Requantizer::from_scale(q.out_scale / (q.in_scale * q.w_scale));
  return q;
}

}  // namespace

FqBertModel FqBertModel::derive_tier(int new_bits) const {
  if (new_bits < 2 || new_bits > 8)
    throw std::invalid_argument(
        "derive_tier: weight bits must be in [2, 8]");

  FqBertModel out;
  out.config_ = config_;
  out.quant_config_ = quant_config_;
  out.quant_config_.weight_bits = new_bits;
  out.weight_bits_ = new_bits;

  // The CPU-side front and head are float-compute over already
  // dequantized tables; the tier's bit-width governs the encoder's
  // integer weights, so these carry over unchanged.
  out.tok_table_ = tok_table_;
  out.pos_table_ = pos_table_;
  out.seg_table_ = seg_table_;
  out.emb_ln_gamma_ = emb_ln_gamma_;
  out.emb_ln_beta_ = emb_ln_beta_;
  out.emb_scale_ = emb_scale_;
  out.pooler_w_ = pooler_w_;
  out.classifier_w_ = classifier_w_;
  out.pooler_b_ = pooler_b_;
  out.classifier_b_ = classifier_b_;

  out.layers_.resize(layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    const FqEncoderLayer& src = layers_[l];
    FqEncoderLayer& dst = out.layers_[l];
    dst.hidden = src.hidden;
    dst.ffn_dim = src.ffn_dim;
    dst.num_heads = src.num_heads;
    dst.head_dim = src.head_dim;
    dst.use_int_softmax = src.use_int_softmax;
    dst.use_int_layernorm = src.use_int_layernorm;
    dst.in_scale = src.in_scale;
    dst.q_scale = src.q_scale;
    dst.k_scale = src.k_scale;
    dst.v_scale = src.v_scale;
    dst.ctx_scale = src.ctx_scale;
    dst.attn_out_scale = src.attn_out_scale;
    dst.ffn_in_scale = src.ffn_in_scale;
    dst.pre_gelu_scale = src.pre_gelu_scale;
    dst.ffn_mid_scale = src.ffn_mid_scale;
    dst.ffn_out_scale = src.ffn_out_scale;
    dst.out_scale = src.out_scale;
    dst.ln1_gamma = src.ln1_gamma;
    dst.ln1_beta = src.ln1_beta;
    dst.ln2_gamma = src.ln2_gamma;
    dst.ln2_beta = src.ln2_beta;

    dst.wq = derive_quant_linear(src.wq, new_bits, out.quant_config_);
    dst.wk = derive_quant_linear(src.wk, new_bits, out.quant_config_);
    dst.wv = derive_quant_linear(src.wv, new_bits, out.quant_config_);
    dst.wo = derive_quant_linear(src.wo, new_bits, out.quant_config_);
    dst.ffn1 = derive_quant_linear(src.ffn1, new_bits, out.quant_config_);
    dst.ffn2 = derive_quant_linear(src.ffn2, new_bits, out.quant_config_);

    rebuild_derived_kernels(dst);
  }
  return out;
}

size_t FqBertModel::resident_weight_bytes() const {
  size_t total = 0;
  for (const FqEncoderLayer& layer : layers_)
    for (const QuantLinear* q : {&layer.wq, &layer.wk, &layer.wv, &layer.wo,
                                 &layer.ffn1, &layer.ffn2})
      total += q->weight_bytes();
  return total;
}

}  // namespace fqbert::core
