// Pipeline-library tests: task dispatch, cloning, checkpoint-cache
// keying, and the end-to-end quantize pipeline in fast mode.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "pipeline/pipeline.h"

namespace fqbert::pipeline {
namespace {

TEST(Pipeline, NamedTaskDispatch) {
  const TaskData sst2 = make_named_task("sst2", /*fast=*/true);
  EXPECT_EQ(sst2.num_classes, 2);
  EXPECT_FALSE(sst2.train.empty());
  EXPECT_TRUE(sst2.eval_extra.empty());

  const TaskData mnli = make_named_task("mnli", /*fast=*/true);
  EXPECT_EQ(mnli.num_classes, 3);
  EXPECT_FALSE(mnli.eval_extra.empty());

  EXPECT_THROW(make_named_task("qqp", true), std::invalid_argument);
}

TEST(Pipeline, TaskExamplesFitMiniConfig) {
  for (const char* name : {"sst2", "mnli"}) {
    const TaskData t = make_named_task(name, /*fast=*/true);
    const BertConfig cfg = mini_config(t.num_classes);
    for (const auto* split : {&t.train, &t.eval, &t.eval_extra}) {
      for (const Example& ex : *split) {
        EXPECT_LE(static_cast<int64_t>(ex.tokens.size()), cfg.max_seq_len);
        for (int32_t tok : ex.tokens) {
          EXPECT_GE(tok, 0);
          EXPECT_LT(tok, cfg.vocab_size);
        }
        EXPECT_LT(ex.label, t.num_classes);
      }
    }
  }
}

TEST(Pipeline, CloneProducesIdenticalForward) {
  const TaskData t = make_named_task("sst2", /*fast=*/true);
  Rng rng(3);
  BertModel a(mini_config(2), rng);
  auto b = clone_model(a, a.config());
  const Tensor la = a.forward(t.eval[0]);
  const Tensor lb = b->forward(t.eval[0]);
  EXPECT_EQ(la[0], lb[0]);
  EXPECT_EQ(la[1], lb[1]);
  // And mutating the clone leaves the original untouched.
  b->params()[0]->value[0] += 1.0f;
  const Tensor la2 = a.forward(t.eval[0]);
  EXPECT_EQ(la[0], la2[0]);
}

TEST(Pipeline, HyperparametersDifferByTask) {
  const TaskData sst2 = make_named_task("sst2", true);
  const TaskData mnli = make_named_task("mnli", true);
  EXPECT_GT(float_epochs_for(mnli, false), float_epochs_for(sst2, false));
  EXPECT_LT(float_lr_for(mnli), float_lr_for(sst2));
  EXPECT_EQ(float_epochs_for(sst2, true), float_epochs_for(mnli, true));
}

TEST(Pipeline, EndToEndFastQuantizePipeline) {
  TaskData t = make_named_task("sst2", /*fast=*/true);
  // Shrink further: this is a wiring test, not an accuracy test.
  t.train.resize(80);
  t.eval.resize(40);
  auto model = train_float(t, /*fast=*/true, 7, false, /*cache_dir=*/"");
  FqBertModel engine =
      quantize_pipeline(*model, t, FqQuantConfig::full(), /*fast=*/true);
  EXPECT_EQ(engine.config().num_classes, 2);
  EXPECT_GE(engine.accuracy(t.eval), 0.0);
  EXPECT_GT(engine.size_report().compression_ratio(), 4.0);
}

TEST(Pipeline, FloatCheckpointCacheIsKeyedOnConfigAndSeed) {
  namespace fs = std::filesystem;
  // Per-process name: concurrent suite runs on one machine must not
  // share (and count or delete) each other's checkpoints.
  const std::string cache_dir =
      (fs::temp_directory_path() /
       ("fqbert_cache_key_test_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(cache_dir);
  fs::create_directories(cache_dir);
  struct RemoveAtExit {
    std::string dir;
    ~RemoveAtExit() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } const cleanup{cache_dir};

  TaskData t = make_named_task("sst2", /*fast=*/true);
  t.train.resize(60);
  t.eval.resize(30);

  (void)train_float(t, /*fast=*/true, /*seed=*/7, false, cache_dir);
  ASSERT_EQ(std::distance(fs::directory_iterator(cache_dir),
                          fs::directory_iterator{}),
            1);

  // Same inputs -> cache hit, still one file.
  (void)train_float(t, /*fast=*/true, /*seed=*/7, false, cache_dir);
  EXPECT_EQ(std::distance(fs::directory_iterator(cache_dir),
                          fs::directory_iterator{}),
            1);

  // A different seed must not adopt the existing checkpoint.
  (void)train_float(t, /*fast=*/true, /*seed=*/8, false, cache_dir);
  EXPECT_EQ(std::distance(fs::directory_iterator(cache_dir),
                          fs::directory_iterator{}),
            2);

  // A different dataset size (what concurrent fast/full runs differ in)
  // gets its own key too.
  TaskData t2 = t;
  t2.train.resize(40);
  (void)train_float(t2, /*fast=*/true, /*seed=*/7, false, cache_dir);
  EXPECT_EQ(std::distance(fs::directory_iterator(cache_dir),
                          fs::directory_iterator{}),
            3);
}

TEST(Pipeline, MnliGeneratorUsesCompactContentVocab) {
  const auto cfg = mnli_generator_config();
  EXPECT_EQ(cfg.vocab.content_end - cfg.vocab.content_begin, 40);
  // Antonym pairing stays closed under the narrowed range.
  for (int32_t w = cfg.vocab.content_begin; w < cfg.vocab.content_end; ++w) {
    EXPECT_LT(cfg.vocab.antonym(w), cfg.vocab.content_end);
    EXPECT_GE(cfg.vocab.antonym(w), cfg.vocab.content_begin);
  }
}

}  // namespace
}  // namespace fqbert::pipeline
