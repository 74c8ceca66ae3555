// Randomized bit-identity fuzz for the engine's integer inference path.
//
// Every inference entry point — QuantLinear::forward_i8,
// FqEncoderLayer::forward, FqBertModel::forward and forward_batch —
// runs the tile GEMM (src/core/int_kernels.h). The scalar oracle in
// fq_oracle.h re-implements the seed's encoder path over its own
// kernels; this suite asserts the production path is bit-identical to
// it across row counts 1..9 (every register-block remainder), ragged
// batch shapes, and both int4 and int8 weights — once per kernel target
// this CPU supports.
#include <gtest/gtest.h>

#include "core/fq_bert.h"
#include "fq_oracle.h"
#include "kernel_targets.h"
#include "tensor/rng.h"

namespace fqbert::core {
namespace {

using nn::BertConfig;
using nn::BertModel;
using nn::Example;

BertConfig fuzz_config() {
  BertConfig c;
  c.vocab_size = 128;
  c.hidden = 16;
  c.num_layers = 2;
  c.num_heads = 2;
  c.ffn_dim = 32;
  c.max_seq_len = 16;
  c.num_classes = 2;
  return c;
}

/// Random well-formed example of EXACT length `len` (synth_example
/// clamps to >=2, which would skip the rows==1 remainder case).
Example rand_example(Rng& rng, int64_t len, const BertConfig& config) {
  Example ex;
  ex.tokens.resize(static_cast<size_t>(len));
  ex.tokens[0] = 0;  // CLS anchor
  for (int64_t i = 1; i < len; ++i)
    ex.tokens[static_cast<size_t>(i)] =
        static_cast<int32_t>(rng.randint(1, config.vocab_size - 1));
  ex.segments.assign(static_cast<size_t>(len), 0);
  return ex;
}

/// Calibrated engine over random weights (accuracy irrelevant; the
/// integer pipeline is fully exercised).
FqBertModel build_engine(int weight_bits, uint64_t seed,
                         const BertConfig& config = fuzz_config()) {
  Rng rng(seed);
  BertModel model(config, rng);
  FqQuantConfig qcfg = FqQuantConfig::full();
  qcfg.weight_bits = weight_bits;
  QatBert qat(model, qcfg);
  std::vector<Example> calib;
  Rng data_rng(seed + 1);
  for (int i = 0; i < 12; ++i)
    calib.push_back(
        rand_example(data_rng, 3 + (i % 5) * 3, config));
  qat.calibrate(calib);
  return FqBertModel::convert(qat);
}

using oracle::OracleLayer;
using oracle::OracleLinear;
using oracle::OracleModel;

void expect_logits_eq(const Tensor& want, const Tensor& got,
                      const std::string& what) {
  ASSERT_EQ(want.numel(), got.numel()) << what;
  for (int64_t j = 0; j < want.numel(); ++j)
    EXPECT_EQ(want[j], got[j]) << what << " logit " << j;
}

// ---------------------------------------------------------------------------
// QuantLinear: tile GEMM vs oracle over every rows % 4 remainder
// ---------------------------------------------------------------------------

void fuzz_quant_linear(int weight_bits) {
  const FqBertModel engine = build_engine(weight_bits, 31);
  Rng rng(77);
  for (const FqEncoderLayer& layer : engine.encoder_layers()) {
    for (const QuantLinear* ql : {&layer.wq, &layer.wo, &layer.ffn1,
                                  &layer.ffn2}) {
      const OracleLinear ol(*ql);
      for (int64_t rows = 1; rows <= 9; ++rows) {
        std::vector<int8_t> x(static_cast<size_t>(rows * ql->in));
        for (auto& v : x)
          v = static_cast<int8_t>(rng.randint(-128, 127));
        std::vector<int8_t> want, got;
        oracle::oracle_linear(ol, x, want, rows);
        ql->forward_i8(x, got, rows);
        EXPECT_EQ(want, got)
            << "w" << weight_bits << " rows " << rows << " ("
            << ql->in << "->" << ql->out << ")";
      }
    }
  }
}

class ForwardFuzz : public KernelTargetTest {};

TEST_P(ForwardFuzz, QuantLinearMatchesOracleInt4) { fuzz_quant_linear(4); }
TEST_P(ForwardFuzz, QuantLinearMatchesOracleInt8) { fuzz_quant_linear(8); }

// ---------------------------------------------------------------------------
// Full model: forward() and forward_batch() vs the scalar oracle
// ---------------------------------------------------------------------------

void fuzz_model(int weight_bits, uint64_t seed,
                const BertConfig& config = fuzz_config()) {
  const FqBertModel engine = build_engine(weight_bits, seed, config);
  const OracleModel om(engine);
  Rng rng(seed * 13 + 5);

  // Every sequence length 1..9 (each rows % 4 remainder of the register
  // block, including the 1..3-row cases) plus a few longer ones.
  for (int64_t s_len : {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16}) {
    const Example ex = rand_example(rng, s_len, config);
    const Tensor want = oracle::oracle_forward(om, ex);
    expect_logits_eq(want, engine.forward(ex),
                     "forward len " + std::to_string(ex.tokens.size()));
  }

  // Ragged batches with random lengths: forward_batch row totals sweep
  // the remainders too, and each member must match its oracle logits.
  for (int iter = 0; iter < 8; ++iter) {
    const size_t batch_size = 1 + static_cast<size_t>(rng.randint(0, 4));
    std::vector<Example> batch;
    for (size_t i = 0; i < batch_size; ++i)
      batch.push_back(
          rand_example(rng, 1 + rng.randint(0, 8), config));
    const std::vector<Tensor> got = engine.forward_batch(batch);
    ASSERT_EQ(got.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const Tensor want = oracle::oracle_forward(om, batch[i]);
      expect_logits_eq(want, got[i],
                       "batch iter " + std::to_string(iter) + " member " +
                           std::to_string(i) + " len " +
                           std::to_string(batch[i].tokens.size()));
    }
  }
}

TEST_P(ForwardFuzz, ModelMatchesOracleInt4) { fuzz_model(4, 101); }
TEST_P(ForwardFuzz, ModelMatchesOracleInt8) { fuzz_model(8, 202); }

// Dimensions off the tile grid: every weight matrix and head carries
// padding columns and a reduction tail.
TEST_P(ForwardFuzz, UnalignedShapesMatchOracle) {
  BertConfig c = fuzz_config();
  c.hidden = 22;
  c.num_heads = 2;  // head_dim 11
  c.ffn_dim = 37;
  fuzz_model(4, 505, c);
  fuzz_model(8, 606, c);
}

// The layer-level entry point (used by the accelerator simulator) stays
// bit-identical too.
TEST_P(ForwardFuzz, EncoderLayerMatchesOracleAcrossRemainders) {
  const FqBertModel engine = build_engine(4, 303);
  const BertConfig config = fuzz_config();
  const FqEncoderLayer& layer = engine.encoder_layers()[0];
  const OracleLayer ol(layer);
  Rng rng(404);
  for (int64_t s_len = 1; s_len <= 9; ++s_len) {
    const Example ex = rand_example(rng, s_len, config);
    const std::vector<int8_t> x = engine.embed(ex);
    const int64_t rows = static_cast<int64_t>(ex.tokens.size());
    std::vector<int8_t> want, got;
    oracle::oracle_layer_forward(ol, x, want, rows);
    layer.forward(x, got, rows);
    EXPECT_EQ(want, got) << "s_len " << rows;
  }
}

FQBERT_INSTANTIATE_KERNEL_TARGETS(ForwardFuzz);

}  // namespace
}  // namespace fqbert::core
