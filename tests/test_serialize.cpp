// Serialization round-trip tests: a saved+loaded engine must be
// bit-identical to the original on every input.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/fq_bert.h"
#include "data/synth_tasks.h"
#include "nn/trainer.h"
#include "test_util.h"

namespace fqbert::core {
namespace {

struct EngineFixture {
  std::vector<nn::Example> data;
  std::unique_ptr<nn::BertModel> model;
  std::unique_ptr<FqBertModel> engine;

  EngineFixture() {
    data::Sst2Config dcfg;
    data = data::make_sst2(dcfg, 120, 77);
    nn::BertConfig mcfg;
    mcfg.hidden = 16;
    mcfg.num_layers = 2;
    mcfg.num_heads = 2;
    mcfg.ffn_dim = 32;
    mcfg.num_classes = 2;
    Rng rng(3);
    model = std::make_unique<nn::BertModel>(mcfg, rng);
    nn::TrainConfig tc;
    tc.epochs = 2;
    nn::train(*model, data, data, tc);
    QatBert qat(*model, FqQuantConfig::full());
    qat.calibrate(data);
    engine = std::make_unique<FqBertModel>(FqBertModel::convert(qat));
  }
};

EngineFixture& fixture() {
  static EngineFixture f;
  return f;
}

TEST(Serialize, RoundTripIsBitExact) {
  auto& f = fixture();
  const testing::TempFile file("fq_model.bin");
  const std::string& path = file.path();
  ASSERT_TRUE(f.engine->save(path));
  FqBertModel loaded = FqBertModel::load(path);

  for (size_t i = 0; i < 20; ++i) {
    const nn::Example& ex = f.data[i];
    const Tensor a = f.engine->forward(ex);
    const Tensor b = loaded.forward(ex);
    ASSERT_EQ(a.numel(), b.numel());
    for (int64_t j = 0; j < a.numel(); ++j)
      EXPECT_EQ(a[j], b[j]) << "example " << i << " logit " << j;
  }
}

TEST(Serialize, PreservesConfigAndScales) {
  auto& f = fixture();
  const testing::TempFile file("fq_model2.bin");
  const std::string& path = file.path();
  ASSERT_TRUE(f.engine->save(path));
  FqBertModel loaded = FqBertModel::load(path);
  EXPECT_EQ(loaded.config().hidden, f.engine->config().hidden);
  EXPECT_EQ(loaded.config().num_layers, f.engine->config().num_layers);
  EXPECT_EQ(loaded.quant_config().weight_bits,
            f.engine->quant_config().weight_bits);
  ASSERT_EQ(loaded.encoder_layers().size(), f.engine->encoder_layers().size());
  for (size_t l = 0; l < loaded.encoder_layers().size(); ++l) {
    const auto& a = loaded.encoder_layers()[l];
    const auto& b = f.engine->encoder_layers()[l];
    EXPECT_DOUBLE_EQ(a.in_scale, b.in_scale);
    EXPECT_DOUBLE_EQ(a.out_scale, b.out_scale);
    EXPECT_EQ(a.wq.narrow_codes(), b.wq.narrow_codes());
    EXPECT_EQ(a.ffn2.bias_q, b.ffn2.bias_q);
  }
}

TEST(Serialize, EmbedCodesIdentical) {
  auto& f = fixture();
  const testing::TempFile file("fq_model3.bin");
  const std::string& path = file.path();
  ASSERT_TRUE(f.engine->save(path));
  FqBertModel loaded = FqBertModel::load(path);
  EXPECT_EQ(loaded.embed(f.data[0]), f.engine->embed(f.data[0]));
  EXPECT_DOUBLE_EQ(loaded.embed_scale(), f.engine->embed_scale());
}

TEST(Serialize, RejectsMissingAndGarbageFiles) {
  EXPECT_THROW(FqBertModel::load("/nonexistent/x.bin"), std::runtime_error);
  const testing::TempFile file("garbage.bin");
  const std::string& path = file.path();
  {
    std::FILE* fp = std::fopen(path.c_str(), "wb");
    std::fputs("not a model", fp);
    std::fclose(fp);
  }
  EXPECT_THROW(FqBertModel::load(path), std::runtime_error);
}

TEST(Serialize, SaveToUnwritablePathFails) {
  auto& f = fixture();
  EXPECT_FALSE(f.engine->save("/nonexistent/dir/model.bin"));
}

}  // namespace
}  // namespace fqbert::core
