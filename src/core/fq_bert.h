// FQ-BERT: the integer-only inference engine (the paper's primary
// contribution, Sec. II).
//
// A trained, QAT-instrumented float model is *converted* into this
// engine: weights become int4/int8 codes, biases 32-bit integers
// (Eq. 4), every activation an int8 code on a calibrated scale, and the
// per-matmul rescaling a 32-bit fixed-point requantizer (Eq. 5). Softmax
// runs through the 256-entry exp LUT, LayerNorm through the integer LN
// kernel, GELU through a code-to-code LUT.
//
// Deployment split follows the paper's Fig. 2: embeddings and the task
// head are computed "CPU-side" (float arithmetic over *dequantized*
// low-bit weights), while the encoder stack is strictly integer — the
// part the FPGA executes.
//
// Per-part toggles (FqQuantConfig) select float fallbacks for softmax /
// LayerNorm / scale precision so the Table II ablation runs through the
// very same engine.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "core/fq_config.h"
#include "core/int_kernels.h"
#include "core/qat.h"
#include "platform/mapped_file.h"
#include "quant/int_gelu.h"
#include "quant/int_layernorm.h"
#include "quant/int_softmax.h"
#include "quant/packing.h"

namespace fqbert::core {

/// Reusable scratch for the batched forward path. A batch touches
/// buffers proportional to batch-rows x ffn_dim; reusing them across
/// batches keeps the serving hot loop allocation-free (large per-batch
/// allocations otherwise fall into mmap'd chunks whose page faults
/// dominate the batching win).
struct FqBatchScratch {
  std::vector<int8_t> act_a, act_b;  // ping-pong activations [rows, hidden]
  std::vector<int8_t> q, k, v, ctx, attn_out, ffn_x, pre, mid, fo;
  std::vector<int8_t> head_tiles;  // one head's packed K or Vᵀ
  std::vector<int8_t> probs8;      // one head's probabilities - 128
  std::vector<int32_t> acc, res, scores, probs, ctx_acc, head_corr;
};

/// A quantized linear layer: int8 activations x int2..int8 weights ->
/// int32 accumulators -> requantized int8 outputs.
///
/// Every bit-width stores its codes the same way: int8 tiles in the
/// gemm_tiles layout (int_kernels.h), tile_bytes(out, in) bytes, plus
/// the per-column correction 128·Σw computed when the codes are
/// installed. An int8 tier therefore costs the same resident bytes as
/// an int4 tier.
///
/// The tiles are either OWNED (w_own, filled by conversion, stream
/// load, or tier derivation) or a MAPPED VIEW (w_map, pointing into a
/// read-only mmap of an FQBERT03 engine file; the mapping is kept alive
/// by the owning FqBertModel). A mapped view takes precedence.
struct QuantLinear {
  int64_t in = 0, out = 0;
  int weight_bits = 4;
  std::vector<int8_t> w_own;      // owned tiles
  const int8_t* w_map = nullptr;  // view into a mapped engine file
  std::vector<int32_t> w_corr;    // 128·Σw per padded output column
  std::vector<int32_t> bias_q;    // round(bias * s_in * s_w), Eq. 4
  double w_scale = 1.0;
  double in_scale = 1.0;
  double out_scale = 1.0;
  quant::Requantizer rq;  // s_out / (s_in * s_w), Eq. 5

  const int8_t* tiles() const {
    return w_map != nullptr ? w_map : w_own.data();
  }
  /// Resident bytes of the weight tiles (owned or mapped).
  size_t weight_bytes() const { return tile_bytes(out, in); }

  /// x: int8 codes [rows, in] on in_scale -> y: int8 codes [rows, out]
  /// through the tile GEMM. Reentrant-const (thread-local scratch).
  void forward_i8(const std::vector<int8_t>& x, std::vector<int8_t>& y,
                  int64_t rows) const;

  /// Same, with a caller-provided accumulator (the batched serving hot
  /// loop reuses one across all layers).
  void forward_i8(const std::vector<int8_t>& x, std::vector<int8_t>& y,
                  int64_t rows, std::vector<int32_t>& acc) const;

  /// Pack row-major [out, in] int8 codes into owned tiles (drops any
  /// mapped view) and compute the correction.
  void set_codes(const std::vector<int8_t>& codes);

  /// Point at packed tiles inside a mapped file and compute the
  /// correction from them. Returns false when their padding is not zero.
  bool map_tiles(const int8_t* tiles);

  /// The row-major [out, in] int8 weight codes, unpacked from the tiles.
  std::vector<int8_t> narrow_codes() const;

  /// Packed (2-per-byte) weight bytes for size accounting / streaming.
  std::vector<uint8_t> packed_weights() const;
};

/// One integer encoder layer.
struct FqEncoderLayer {
  int64_t hidden = 0, ffn_dim = 0, num_heads = 0, head_dim = 0;
  bool use_int_softmax = true;
  bool use_int_layernorm = true;

  QuantLinear wq, wk, wv, wo, ffn1, ffn2;

  // Activation scales (from QAT calibration).
  double in_scale = 1.0;        // layer input (LN2 output of prev layer)
  double q_scale = 1.0, k_scale = 1.0, v_scale = 1.0;
  double ctx_scale = 1.0;       // concat output entering Wo
  double attn_out_scale = 1.0;  // Wo output
  double ffn_in_scale = 1.0;    // LN1 output
  double pre_gelu_scale = 1.0;
  double ffn_mid_scale = 1.0;
  double ffn_out_scale = 1.0;
  double out_scale = 1.0;       // LN2 output

  // Integer kernels (built at conversion time).
  std::unique_ptr<quant::IntSoftmax> softmax;
  std::unique_ptr<quant::IntGelu> gelu;
  std::unique_ptr<quant::IntLayerNorm> ln1, ln2;
  quant::Requantizer ctx_rq;   // 1/255 * (255*s_v -> s_ctx)
  quant::Requantizer res1_rq;  // in_scale -> attn_out_scale grid
  quant::Requantizer res2_rq;  // ffn_in_scale -> ffn_out_scale grid
  // res1_rq / res2_rq applied to every int8 code, indexed by code + 128:
  // a residual's skip input is a code, so its requantization is a lookup.
  std::array<int32_t, 256> res1_lut{}, res2_lut{};

  // Float LN parameters for the non-quantized-LN fallback.
  std::vector<float> ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;

  /// x: int8 [S, hidden] on in_scale -> int8 [S, hidden] on out_scale.
  /// Delegates to forward_batch with a single sequence and a
  /// thread-local scratch, so single-request and batched inference run
  /// the identical tile-GEMM compute path. Reentrant-const.
  void forward(const std::vector<int8_t>& x, std::vector<int8_t>& y,
               int64_t s_len) const;

  /// Ragged-batched forward: `x` holds several sequences concatenated
  /// row-wise (sequence i spans seq_lens[i] rows, no padding between
  /// them). The four projections and the FFN run as single matmuls over
  /// all rows; attention runs per sequence, so every sequence's output
  /// is bit-identical to a standalone forward() call. All intermediates
  /// live in `scratch` (grow-only; reuse it across batches to keep the
  /// serving hot loop allocation-free). Reentrant-const as long as each
  /// thread uses its own scratch.
  void forward_batch(const std::vector<int8_t>& x, std::vector<int8_t>& y,
                     const std::vector<int64_t>& seq_lens,
                     FqBatchScratch& scratch) const;

  /// res[i] = branch[i] + res1_rq.apply(skip[i]) (first=true) or
  /// + res2_rq.apply(skip[i]) for i < n, through res1_lut / res2_lut.
  /// The residual add before LN1 / LN2, shared with the accelerator's
  /// functional simulator.
  void add_residual(const int8_t* branch, const int8_t* skip, int32_t* res,
                    int64_t n, bool first) const;

  /// LN1 (first=true) or LN2 over int32 residual rows; integer kernel or
  /// float fallback depending on use_int_layernorm.  The residual input
  /// is on the attn_out (LN1) / ffn_out (LN2) scale. Public so the
  /// accelerator's functional simulator can replay the exact pipeline.
  void apply_layernorm(const std::vector<int32_t>& res,
                       std::vector<int8_t>& out, int64_t s_len,
                       bool first) const;

  /// Integer softmax step on one head's scores (see forward); exposed
  /// for the functional simulator.
  void apply_softmax(const std::vector<int32_t>& scores,
                     std::vector<int32_t>& probs, int64_t s_len) const;
};

/// Full FQ-BERT classifier.
class FqBertModel {
 public:
  /// Convert a trained, instrumented model. The QAT hooks must have seen
  /// data (train or calibrate) so every EMA observer is initialized.
  static FqBertModel convert(QatBert& qat);

  /// Float logits for one example (head computed CPU-side). Runs as a
  /// batch of one through the batched path; reentrant-const.
  Tensor forward(const nn::Example& ex) const;

  /// Batched logits: the examples are packed into one ragged int8 batch
  /// (no padding) and run through the encoder with the projections /
  /// FFN batched across all rows. logits[i] is bit-identical to
  /// forward(*batch[i]). Reentrant-const: safe to call concurrently
  /// from many serving workers on a shared engine.
  std::vector<Tensor> forward_batch(
      const std::vector<const nn::Example*>& batch) const;
  std::vector<Tensor> forward_batch(const std::vector<nn::Example>& batch) const;

  int32_t predict(const nn::Example& ex) const;
  double accuracy(const std::vector<nn::Example>& data) const;

  const nn::BertConfig& config() const { return config_; }
  const FqQuantConfig& quant_config() const { return quant_config_; }
  const std::vector<FqEncoderLayer>& encoder_layers() const { return layers_; }

  /// Byte-level size accounting over this model's parameters.
  quant::SizeReport size_report() const;

  /// Encoder input codes for a given example (exposed so the accelerator
  /// simulator can be fed exactly what the engine computes).
  std::vector<int8_t> embed(const nn::Example& ex) const;

  /// embed() writing straight into a packed batch buffer at `dst`
  /// (must hold tokens.size() * hidden int8 codes).
  void embed_into(const nn::Example& ex, int8_t* dst) const;
  double embed_scale() const { return emb_scale_; }

  /// CPU-side task head applied to the final encoder codes (the
  /// accelerator simulator runs the encoder itself and hands back here).
  Tensor head(const std::vector<int8_t>& final_codes) const;

  /// head() on a raw CLS row pointer (used by the batched path, where
  /// each example's CLS row lives at an offset inside the packed batch).
  Tensor head_row(const int8_t* cls_codes) const;

  /// Serialize the quantized model (int4-packed weights, scales, LUT
  /// parameters) to a deployable binary; load reconstructs a fully
  /// functional engine whose outputs are bit-identical.
  bool save(const std::string& path) const;
  static FqBertModel load(const std::string& path);

  /// Serialize in the mmap-ready FQBERT03 layout: weight tiles stored
  /// exactly as the GEMM reads them, 64-byte aligned, so load_mapped
  /// can point the engine straight at the file pages.
  bool save_mapped(const std::string& path) const;
  /// Zero-copy load of an FQBERT03 file: weights stay in the page
  /// cache (PROT_READ, MAP_SHARED mapping held for the model's
  /// lifetime — N processes loading one file share one physical copy);
  /// only the small sections (scales, embeddings, LN parameters,
  /// biases) are parsed into owned memory. Hot LOAD cost is O(page
  /// faults), not O(read + widen).
  static FqBertModel load_mapped(const std::string& path);
  /// Sniff the magic and dispatch: FQBERT01 -> load (stream),
  /// FQBERT03 -> load_mapped (zero-copy). A retired FQBERT02 file (the
  /// row-major int8/int16 layout) throws. The registry's entry point.
  static FqBertModel load_any(const std::string& path);

  /// Derive a lower-precision tier from this engine using the
  /// quantizer's range math: each layer's weight codes and bias are
  /// rescaled onto the new bit-width's grid (scale ratio
  /// qmax(new)/qmax(old), re-applying 8-bit scale quantization when the
  /// config asks for it) and the requantizers/kernels are rebuilt.
  /// `new_bits` must be in [2, 8]; deriving at the engine's own
  /// bit-width returns an identical engine. The result is a normal
  /// owned-storage engine with the parent's resident weight bytes
  /// (every bit-width stores the same int8 tiles).
  FqBertModel derive_tier(int new_bits) const;

  /// Resident bytes of every weight-tile store (owned or mapped),
  /// Σ padded(out)·padded(in) — the number the per-tier memory
  /// accounting reports.
  size_t resident_weight_bytes() const;

 private:
  nn::BertConfig config_;
  FqQuantConfig quant_config_;

  // CPU-side front: dequantized low-bit embedding tables + float LN.
  Tensor tok_table_, pos_table_, seg_table_;
  std::vector<float> emb_ln_gamma_, emb_ln_beta_;
  double emb_scale_ = 1.0;  // int8 scale of the encoder input

  std::vector<FqEncoderLayer> layers_;

  // CPU-side head: dequantized weights, float compute.
  Tensor pooler_w_, classifier_w_;
  std::vector<float> pooler_b_, classifier_b_;

  // Size bookkeeping of the low-bit parameter stores.
  int weight_bits_ = 4;

  // Alive iff this engine was load_mapped(): owns the read-only mmap
  // that every layer's w_map view points into.
  std::shared_ptr<const platform::MappedFile> mapping_;
};

/// Rebuild the derived integer kernels (softmax / GELU / LayerNorm /
/// residual + context requantizers) of one encoder layer from its
/// scales and LN parameters. Shared by stream load, mapped load and
/// tier derivation; conversion builds the same recipe inline.
void rebuild_derived_kernels(FqEncoderLayer& layer);

}  // namespace fqbert::core
