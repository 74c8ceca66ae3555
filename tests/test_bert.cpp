// Full-model tests: forward shapes, determinism, serialization,
// end-to-end gradients, loss/optimizer/trainer machinery.
#include <gtest/gtest.h>

#include <cstdio>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "test_util.h"

namespace fqbert::nn {
namespace {

using fqbert::testing::check_gradients;
using fqbert::testing::make_example;

BertConfig tiny_config() {
  BertConfig c;
  c.vocab_size = 32;
  c.hidden = 8;
  c.num_layers = 2;
  c.num_heads = 2;
  c.ffn_dim = 16;
  c.max_seq_len = 8;
  c.num_classes = 3;
  return c;
}

TEST(BertModel, ForwardShapeAndDeterminism) {
  Rng rng(1);
  BertModel m(tiny_config(), rng);
  Example ex = make_example({1, 5, 9, 2}, 0);
  Tensor l1 = m.forward(ex);
  Tensor l2 = m.forward(ex);
  EXPECT_EQ(l1.numel(), 3);
  EXPECT_EQ(max_abs_diff(l1, l2), 0.0);
}

TEST(BertModel, ParamCountMatchesFormula) {
  Rng rng(2);
  BertConfig c = tiny_config();
  BertModel m(c, rng);
  const int64_t emb = (c.vocab_size + c.max_seq_len + c.num_segments) * c.hidden;
  const int64_t per_layer = 4 * (c.hidden * c.hidden + c.hidden)  // QKVO
                            + c.hidden * c.ffn_dim + c.ffn_dim    // FFN1
                            + c.ffn_dim * c.hidden + c.hidden     // FFN2
                            + 2 * 2 * c.hidden;                   // LN1, LN2
  const int64_t head = c.hidden * c.hidden + c.hidden +
                       c.hidden * c.num_classes + c.num_classes;
  const int64_t emb_ln = 2 * c.hidden;
  EXPECT_EQ(m.num_params(),
            emb + emb_ln + c.num_layers * per_layer + head);
}

TEST(BertModel, RejectsBadHeadDivision) {
  Rng rng(3);
  BertConfig c = tiny_config();
  c.num_heads = 3;
  EXPECT_THROW(BertModel(c, rng), std::invalid_argument);
}

TEST(BertModel, GradCheckThroughWholeModel) {
  Rng rng(4);
  BertConfig c = tiny_config();
  c.num_layers = 1;
  BertModel m(c, rng);
  Example ex = make_example({1, 7, 3}, 2);
  auto loss = [&] {
    Tensor logits = m.forward(ex);
    Tensor dlogits;
    const float l = cross_entropy_with_grad(logits, ex.label, dlogits);
    m.backward(dlogits);
    return l;
  };
  check_gradients(m.params(), loss, 8e-2, 2e-4, 2);
}

TEST(BertModel, SaveLoadRoundTrip) {
  Rng rng(5);
  BertModel a(tiny_config(), rng);
  BertModel b(tiny_config(), rng);  // same shapes, different values
  for (Param* p : b.params())
    for (int64_t i = 0; i < p->value.numel(); ++i) p->value[i] += 0.1f;

  const testing::TempFile file("fqbert_state.bin");
  const std::string& path = file.path();
  save_state(a, path);
  ASSERT_TRUE(load_state(b, path));
  Example ex = make_example({1, 2, 3, 4}, 0);
  EXPECT_EQ(max_abs_diff(a.forward(ex), b.forward(ex)), 0.0);
}

TEST(BertModel, LoadMissingFileFails) {
  Rng rng(6);
  BertModel m(tiny_config(), rng);
  EXPECT_FALSE(load_state(m, "/nonexistent/dir/state.bin"));
}

TEST(StateVector, SizeMismatchThrows) {
  Rng rng(7);
  BertModel m(tiny_config(), rng);
  std::vector<float> v(static_cast<size_t>(m.num_params()) - 1);
  EXPECT_THROW(vector_to_state(m, v), std::runtime_error);
}

TEST(CrossEntropy, LossAndGradient) {
  Tensor logits(Shape{3}, std::vector<float>{2.0f, 0.5f, -1.0f});
  Tensor dl;
  const float loss = cross_entropy_with_grad(logits, 0, dl);
  // p0 = e^2 / (e^2 + e^0.5 + e^-1).
  const double p0 = std::exp(2.0) / (std::exp(2.0) + std::exp(0.5) + std::exp(-1.0));
  EXPECT_NEAR(loss, -std::log(p0), 1e-5);
  EXPECT_NEAR(dl[0], p0 - 1.0, 1e-5);
  double sum = 0;
  for (int64_t i = 0; i < 3; ++i) sum += dl[i];
  EXPECT_NEAR(sum, 0.0, 1e-6);  // gradient of softmax-CE sums to zero
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 with Adam.
  Param w("w", Shape{1});
  w.value[0] = 0.0f;
  AdamConfig cfg;
  cfg.lr = 0.1f;
  cfg.clip_grad_norm = 0.0f;
  Adam opt({&w}, cfg);
  for (int i = 0; i < 300; ++i) {
    w.grad[0] = 2.0f * (w.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(w.value[0], 3.0f, 1e-2);
}

TEST(Adam, GradClippingBoundsNorm) {
  Param w("w", Shape{4});
  AdamConfig cfg;
  cfg.lr = 0.0f;  // no movement; we only exercise the clip path
  cfg.clip_grad_norm = 1.0f;
  Adam opt({&w}, cfg);
  for (int64_t i = 0; i < 4; ++i) w.grad[i] = 100.0f;
  opt.step();  // must not crash; gradients consumed
  EXPECT_EQ(w.grad[0], 0.0f);
}

TEST(Trainer, LearnsTinySeparableTask) {
  // Token 10 => class 1, token 20 => class 0; trivially separable.
  Rng rng(8);
  BertConfig c = tiny_config();
  c.num_classes = 2;
  BertModel m(c, rng);
  std::vector<Example> train_set, eval_set;
  Rng drng(99);
  for (int i = 0; i < 60; ++i) {
    const bool pos = drng.flip(0.5);
    Example ex = make_example({1, pos ? 10 : 20, 2}, pos ? 1 : 0);
    (i < 48 ? train_set : eval_set).push_back(ex);
  }
  TrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 8;
  tc.adam.lr = 3e-3f;
  TrainResult res = train(m, train_set, eval_set, tc);
  EXPECT_GT(res.final_eval_accuracy, 95.0);
  EXPECT_LT(res.final_train_loss, 0.3);
}

}  // namespace
}  // namespace fqbert::nn
