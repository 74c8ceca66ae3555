// QAT instrumentation and integer-engine integration tests.
//
// These are the end-to-end checks behind Tables I and II: a small model
// is trained in float, instrumented, calibrated, converted, and the
// integer-only engine must (a) be self-consistent, (b) track the
// fake-quantized model closely, and (c) respond correctly to the
// per-part ablation toggles.
#include <gtest/gtest.h>

#include "accel/functional.h"
#include "core/fq_bert.h"
#include "data/synth_tasks.h"
#include "nn/trainer.h"
#include "test_util.h"

namespace fqbert::core {
namespace {

using data::Sst2Config;
using nn::BertConfig;
using nn::BertModel;
using nn::Example;

BertConfig small_config() {
  BertConfig c;
  c.vocab_size = 512;
  c.hidden = 16;
  c.num_layers = 2;
  c.num_heads = 2;
  c.ffn_dim = 32;
  c.max_seq_len = 32;
  c.num_classes = 2;
  return c;
}

/// Train a small float model once for the whole test suite.
struct TrainedFixture {
  BertConfig config = small_config();
  std::unique_ptr<BertModel> model;
  std::vector<Example> train_set, eval_set;

  TrainedFixture() {
    Sst2Config dcfg;
    dcfg.label_noise = 0.0;
    train_set = data::make_sst2(dcfg, 220, 1001);
    eval_set = data::make_sst2(dcfg, 80, 2002);
    Rng rng(5);
    model = std::make_unique<BertModel>(config, rng);
    nn::TrainConfig tc;
    tc.epochs = 5;
    tc.batch_size = 16;
    tc.adam.lr = 2e-3f;
    nn::train(*model, train_set, eval_set, tc);
  }
};

TrainedFixture& fixture() {
  static TrainedFixture f;
  return f;
}

TEST(Qat, AttachDetachLeavesModelUnchanged) {
  auto& f = fixture();
  const Example& ex = f.eval_set[0];
  const Tensor before = f.model->forward(ex);
  {
    QatBert qat(*f.model, FqQuantConfig::full());
    // Hook installed: the forward changes.
    const Tensor hooked = f.model->forward(ex);
    (void)hooked;
  }
  const Tensor after = f.model->forward(ex);
  EXPECT_EQ(max_abs_diff(before, after), 0.0);
}

TEST(Qat, BaselineConfigInstallsNothing) {
  auto& f = fixture();
  const Example& ex = f.eval_set[0];
  const Tensor before = f.model->forward(ex);
  QatBert qat(*f.model, FqQuantConfig::baseline());
  const Tensor during = f.model->forward(ex);
  EXPECT_EQ(max_abs_diff(before, during), 0.0);
  EXPECT_THROW(FqBertModel::convert(qat), std::invalid_argument);
}

TEST(Qat, FakeQuantChangesForwardButNotCatastrophically) {
  auto& f = fixture();
  QatBert qat(*f.model, FqQuantConfig::full());
  qat.calibrate(f.train_set);
  const double float_acc = [&] {
    QatBert detached_scope(*f.model, FqQuantConfig::baseline());
    return f.model->accuracy(f.eval_set);
  }();
  // With hooks installed, accuracy may drop but should stay in the same
  // regime (w4/a8 QAT-style quantization is mild).
  const double fq_acc = f.model->accuracy(f.eval_set);
  EXPECT_GT(fq_acc, float_acc - 25.0);
}

TEST(Qat, CalibrationInitializesAllObservers) {
  auto& f = fixture();
  QatBert qat(*f.model, FqQuantConfig::full());
  qat.calibrate({f.train_set.begin(), f.train_set.begin() + 8});
  // Conversion would throw if any observer were uninitialized.
  EXPECT_NO_THROW(FqBertModel::convert(qat));
}

TEST(FqEngine, ConvertAndRunProducesFiniteLogits) {
  auto& f = fixture();
  QatBert qat(*f.model, FqQuantConfig::full());
  qat.calibrate(f.train_set);
  FqBertModel engine = FqBertModel::convert(qat);
  for (int i = 0; i < 5; ++i) {
    Tensor logits = engine.forward(f.eval_set[static_cast<size_t>(i)]);
    ASSERT_EQ(logits.numel(), 2);
    EXPECT_TRUE(std::isfinite(logits[0]));
    EXPECT_TRUE(std::isfinite(logits[1]));
  }
}

TEST(FqEngine, TracksFakeQuantModelPredictions) {
  auto& f = fixture();
  QatBert qat(*f.model, FqQuantConfig::full());
  qat.calibrate(f.train_set);
  qat.set_training(false);
  FqBertModel engine = FqBertModel::convert(qat);

  int agree = 0;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    const Example& ex = f.eval_set[static_cast<size_t>(i % f.eval_set.size())];
    const int32_t a = engine.predict(ex);
    Tensor logits = f.model->forward(ex);  // fake-quant model
    const int32_t b = static_cast<int32_t>(argmax(logits.data(), 2));
    agree += a == b ? 1 : 0;
  }
  // The integer engine and the fake-quant model share grids; small
  // rounding-path differences may flip a few near-ties.
  EXPECT_GE(agree, n * 8 / 10);
}

TEST(FqEngine, QuantizedAccuracyWithinAFewPointsOfFloat) {
  auto& f = fixture();
  const double float_acc = f.model->accuracy(f.eval_set);
  QatBert qat(*f.model, FqQuantConfig::full());
  qat.calibrate(f.train_set);
  FqBertModel engine = FqBertModel::convert(qat);
  const double q_acc = engine.accuracy(f.eval_set);
  EXPECT_GT(q_acc, float_acc - 20.0)
      << "float " << float_acc << " quant " << q_acc;
}

TEST(FqEngine, EmbedCodesOnGrid) {
  auto& f = fixture();
  QatBert qat(*f.model, FqQuantConfig::full());
  qat.calibrate(f.train_set);
  FqBertModel engine = FqBertModel::convert(qat);
  const auto codes = engine.embed(f.eval_set[0]);
  EXPECT_EQ(codes.size(),
            f.eval_set[0].tokens.size() * static_cast<size_t>(f.config.hidden));
  EXPECT_GT(engine.embed_scale(), 0.0);
}

TEST(FqEngine, AblationtogglesSelectKernels) {
  auto& f = fixture();
  FqQuantConfig with_int = FqQuantConfig::full();
  FqQuantConfig without_int = FqQuantConfig::full();
  without_int.quantize_softmax = false;
  without_int.quantize_layernorm = false;

  QatBert qat1(*f.model, with_int);
  qat1.calibrate(f.train_set);
  FqBertModel e1 = FqBertModel::convert(qat1);
  EXPECT_TRUE(e1.encoder_layers()[0].use_int_softmax);
  EXPECT_TRUE(e1.encoder_layers()[0].use_int_layernorm);

  QatBert qat2(*f.model, without_int);
  qat2.calibrate(f.train_set);
  FqBertModel e2 = FqBertModel::convert(qat2);
  EXPECT_FALSE(e2.encoder_layers()[0].use_int_softmax);
  EXPECT_FALSE(e2.encoder_layers()[0].use_int_layernorm);

  // Both run and produce sane predictions.
  EXPECT_GE(e2.accuracy({f.eval_set.begin(), f.eval_set.begin() + 20}), 0.0);
}

TEST(FqEngine, ScaleQuantizationRoundsScales) {
  auto& f = fixture();
  FqQuantConfig cfg = FqQuantConfig::full();
  cfg.quantize_scales = true;
  QatBert qat(*f.model, cfg);
  qat.calibrate(f.train_set);
  FqBertModel engine = FqBertModel::convert(qat);
  for (const auto& layer : engine.encoder_layers()) {
    // Every activation scale must be exactly 8-bit representable.
    for (double s : {layer.in_scale, layer.q_scale, layer.k_scale,
                     layer.v_scale, layer.ffn_in_scale, layer.out_scale}) {
      EXPECT_DOUBLE_EQ(s, quant::quantize_scale_8bit(s));
    }
  }
}

TEST(FqEngine, WeightCodesWithinInt4Grid) {
  auto& f = fixture();
  QatBert qat(*f.model, FqQuantConfig::full());
  qat.calibrate(f.train_set);
  FqBertModel engine = FqBertModel::convert(qat);
  for (const auto& layer : engine.encoder_layers()) {
    for (const auto* ql : {&layer.wq, &layer.wk, &layer.wv, &layer.wo,
                           &layer.ffn1, &layer.ffn2}) {
      const std::vector<int8_t> codes = ql->narrow_codes();
      ASSERT_EQ(codes.size(), static_cast<size_t>(ql->in * ql->out));
      for (int8_t c : codes) {
        EXPECT_GE(c, -7);
        EXPECT_LE(c, 7);
      }
      // int4 weights sit in 1-byte tiles: padded(out) x padded(in).
      EXPECT_EQ(ql->weight_bytes(),
                static_cast<size_t>(padded_cols(ql->out) *
                                    padded_depth(ql->in)));
      // Packed form halves the byte count.
      EXPECT_EQ(ql->packed_weights().size(), (codes.size() + 1) / 2);
    }
  }
}

TEST(FunctionalSim, BimDatapathBitExactWithEngine) {
  auto& f = fixture();
  QatBert qat(*f.model, FqQuantConfig::full());
  qat.calibrate(f.train_set);
  FqBertModel engine = FqBertModel::convert(qat);
  const Example& ex = f.eval_set[0];
  const int64_t s_len = static_cast<int64_t>(ex.tokens.size());

  const auto x = engine.embed(ex);
  const auto& layer = engine.encoder_layers()[0];

  std::vector<int8_t> y_engine;
  layer.forward(x, y_engine, s_len);

  for (accel::BimType type : {accel::BimType::kTypeA, accel::BimType::kTypeB}) {
    accel::Bim bim(16, type);
    std::vector<int8_t> y_bim;
    const auto stats = accel::run_layer_on_bim(layer, bim, x, y_bim, s_len);
    EXPECT_EQ(y_engine, y_bim) << "BIM type mismatch";
    EXPECT_GT(stats.bim_cycles_8x4, 0);
    EXPECT_GT(stats.bim_cycles_8x8, 0);
    EXPECT_GT(stats.mac_count, 0);
  }
}

TEST(FunctionalSim, CycleCountsMatchLaneArithmetic) {
  auto& f = fixture();
  QatBert qat(*f.model, FqQuantConfig::full());
  qat.calibrate(f.train_set);
  FqBertModel engine = FqBertModel::convert(qat);
  const Example& ex = f.eval_set[1];
  const int64_t s = static_cast<int64_t>(ex.tokens.size());
  const auto x = engine.embed(ex);
  const auto& layer = engine.encoder_layers()[0];

  accel::Bim bim(8, accel::BimType::kTypeA);
  std::vector<int8_t> y;
  const auto stats = accel::run_layer_on_bim(layer, bim, x, y, s);

  const int64_t h = layer.hidden, fd = layer.ffn_dim, dh = layer.head_dim;
  const int64_t heads = layer.num_heads;
  auto cd = [](int64_t a, int64_t b) { return (a + b - 1) / b; };
  // 8x4: four H*H projections + two FFN matmuls.
  const int64_t want_84 =
      4 * s * h * cd(h, 8) + s * fd * cd(h, 8) + s * h * cd(fd, 8);
  // 8x8: QK^T and Attn*V per head, lanes = M/2 = 4.
  const int64_t want_88 =
      heads * (s * s * cd(dh, 4) + s * dh * cd(s, 4));
  EXPECT_EQ(stats.bim_cycles_8x4, want_84);
  EXPECT_EQ(stats.bim_cycles_8x8, want_88);
}

}  // namespace
}  // namespace fqbert::core
