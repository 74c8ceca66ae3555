#include "engines.h"

#include <chrono>

#include "core/qat.h"
#include "pipeline/pipeline.h"
#include "serve/loadgen.h"
#include "tensor/rng.h"

namespace perfbench {

using fqbert::Rng;
using fqbert::core::FqBertModel;

namespace {

constexpr size_t kCalibrationExamples = 64;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::string write_engine_file(const std::string& dir, const std::string& name,
                              uint64_t weight_seed) {
  const fqbert::nn::BertConfig config = fqbert::pipeline::mini_config(2);
  Rng rng(weight_seed);
  fqbert::nn::BertModel model(config, rng);
  fqbert::core::QatBert qat(model, fqbert::core::FqQuantConfig::full());
  qat.calibrate(make_examples(weight_seed, kCalibrationExamples,
                              lengths_between(2, config.max_seq_len), config));
  const FqBertModel engine = FqBertModel::convert(qat);
  const std::string path = dir + "/" + name + ".fqb";
  return engine.save(path) ? path : "";
}

std::vector<fqbert::nn::Example> make_examples(
    uint64_t seed, size_t count, const std::vector<int64_t>& lengths,
    const fqbert::nn::BertConfig& config) {
  Rng rng(seed);
  std::vector<fqbert::nn::Example> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i)
    out.push_back(fqbert::serve::synth_example(rng, rng.choice(lengths), config));
  return out;
}

std::vector<std::vector<float>> expected_logits(
    const FqBertModel& engine,
    const std::vector<fqbert::nn::Example>& examples) {
  std::vector<std::vector<float>> out;
  out.reserve(examples.size());
  for (const auto& ex : examples) out.push_back(engine.forward(ex).storage());
  return out;
}

LoadedEngine load_engine(const std::string& path, int derive_bits) {
  LoadedEngine e;
  auto t0 = std::chrono::steady_clock::now();
  e.native = FqBertModel::load_any(path);
  e.load_ms = ms_since(t0);
  if (derive_bits > 0) {
    t0 = std::chrono::steady_clock::now();
    e.derived = e.native.derive_tier(derive_bits);
    e.derive_ms = ms_since(t0);
  }
  return e;
}

}  // namespace perfbench
