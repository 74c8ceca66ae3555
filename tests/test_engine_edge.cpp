// Integer-engine edge cases: degenerate shapes, extreme inputs,
// saturation behaviour, and quantize-config corners.
#include <gtest/gtest.h>

#include "core/fq_bert.h"
#include "nn/trainer.h"
#include "test_util.h"

namespace fqbert::core {
namespace {

using fqbert::testing::make_example;

nn::BertConfig edge_config(int64_t layers, int64_t hidden, int64_t heads,
                           int64_t ffn) {
  nn::BertConfig c;
  c.vocab_size = 32;
  c.hidden = hidden;
  c.num_layers = layers;
  c.num_heads = heads;
  c.ffn_dim = ffn;
  c.max_seq_len = 16;
  c.num_classes = 2;
  return c;
}

/// Build a calibrated engine from a lightly trained model.
FqBertModel build_engine(const nn::BertConfig& cfg,
                         const std::vector<nn::Example>& data,
                         const FqQuantConfig& qcfg) {
  Rng rng(11);
  nn::BertModel model(cfg, rng);
  nn::TrainConfig tc;
  tc.epochs = 1;
  nn::train(model, data, data, tc);
  QatBert qat(model, qcfg);
  qat.calibrate(data);
  return FqBertModel::convert(qat);
}

std::vector<nn::Example> small_data() {
  std::vector<nn::Example> out;
  Rng rng(9);
  for (int i = 0; i < 24; ++i) {
    std::vector<int32_t> toks{1};
    const int len = static_cast<int>(rng.randint(2, 10));
    for (int j = 0; j < len; ++j)
      toks.push_back(static_cast<int32_t>(rng.randint(4, 31)));
    toks.push_back(2);
    out.push_back(make_example(toks, static_cast<int32_t>(rng.randint(0, 1))));
  }
  return out;
}

TEST(EngineEdge, SingleLayerSingleHead) {
  const auto data = small_data();
  FqBertModel e =
      build_engine(edge_config(1, 8, 1, 16), data, FqQuantConfig::full());
  for (int i = 0; i < 5; ++i) {
    const Tensor l = e.forward(data[static_cast<size_t>(i)]);
    EXPECT_TRUE(std::isfinite(l[0]));
    EXPECT_TRUE(std::isfinite(l[1]));
  }
}

TEST(EngineEdge, SequenceLengthOne) {
  // A lone [CLS] token: attention over a single position (softmax of a
  // 1-element row must be exactly probability 1).
  const auto data = small_data();
  FqBertModel e =
      build_engine(edge_config(2, 8, 2, 16), data, FqQuantConfig::full());
  nn::Example ex = make_example({1}, 0);
  const Tensor l = e.forward(ex);
  EXPECT_TRUE(std::isfinite(l[0]));
  EXPECT_TRUE(std::isfinite(l[1]));
}

TEST(EngineEdge, MaxLengthSequence) {
  const auto data = small_data();
  const auto cfg = edge_config(1, 8, 2, 16);
  FqBertModel e = build_engine(cfg, data, FqQuantConfig::full());
  std::vector<int32_t> toks(static_cast<size_t>(cfg.max_seq_len), 5);
  toks[0] = 1;
  const Tensor l = e.forward(make_example(toks, 0));
  EXPECT_TRUE(std::isfinite(l[0]));
}

TEST(EngineEdge, RepeatedTokenSequencesAreHandled) {
  // All-identical tokens make rows of the residual nearly constant —
  // exercising the integer LayerNorm's small-variance path.
  const auto data = small_data();
  FqBertModel e =
      build_engine(edge_config(2, 16, 2, 32), data, FqQuantConfig::full());
  for (int32_t tok : {4, 17, 31}) {
    std::vector<int32_t> toks(8, tok);
    toks[0] = 1;
    const Tensor l = e.forward(make_example(toks, 0));
    EXPECT_TRUE(std::isfinite(l[0])) << "token " << tok;
  }
}

TEST(EngineEdge, EightBitWeightsAlsoWork) {
  const auto data = small_data();
  FqQuantConfig q = FqQuantConfig::full();
  q.weight_bits = 8;
  FqBertModel e = build_engine(edge_config(1, 8, 2, 16), data, q);
  for (const auto& layer : e.encoder_layers()) {
    const std::vector<int8_t> codes = layer.wq.narrow_codes();
    for (int8_t c : codes) {
      EXPECT_GE(c, -127);
      EXPECT_LE(c, 127);
    }
    // 8-bit codes live in the same int8 tiles as every bit-width
    // (padded(out) x padded(in) bytes) and are NOT nibble-packed on
    // the wire.
    EXPECT_EQ(layer.wq.weight_bytes(),
              static_cast<size_t>(padded_cols(layer.wq.out) *
                                  padded_depth(layer.wq.in)));
    EXPECT_EQ(layer.wq.packed_weights().size(), codes.size());
  }
  EXPECT_TRUE(std::isfinite(e.forward(data[0])[0]));
}

TEST(EngineEdge, TwoBitWeightsRunAndSaturateGracefully) {
  const auto data = small_data();
  FqQuantConfig q = FqQuantConfig::full();
  q.weight_bits = 2;
  FqBertModel e = build_engine(edge_config(1, 8, 2, 16), data, q);
  for (const auto& layer : e.encoder_layers())
    for (int8_t c : layer.wq.narrow_codes()) {
      EXPECT_GE(c, -1);
      EXPECT_LE(c, 1);
    }
  EXPECT_TRUE(std::isfinite(e.forward(data[0])[0]));
}

TEST(EngineEdge, PredictionsConsistentAcrossCalls) {
  const auto data = small_data();
  FqBertModel e =
      build_engine(edge_config(2, 8, 2, 16), data, FqQuantConfig::full());
  for (int i = 0; i < 5; ++i) {
    const int32_t a = e.predict(data[static_cast<size_t>(i)]);
    const int32_t b = e.predict(data[static_cast<size_t>(i)]);
    EXPECT_EQ(a, b);  // pure integer path: bit-level determinism
  }
}

TEST(EngineEdge, AccuracyOnEmptySetIsZero) {
  const auto data = small_data();
  FqBertModel e =
      build_engine(edge_config(1, 8, 1, 16), data, FqQuantConfig::full());
  EXPECT_EQ(e.accuracy({}), 0.0);
}

}  // namespace
}  // namespace fqbert::core
