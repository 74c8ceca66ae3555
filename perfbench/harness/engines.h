// Engine files and inputs of the benchmark.
//
// Engines are MiniBERT (pipeline::mini_config) with w4/a8 full FQ-BERT
// quantization, the configuration `fqbert_cli quantize` ships. Their
// float weights are a fixed random initialisation calibrated on
// synthetic inputs instead of a trained checkpoint: the integer
// kernels' speed and the bit-identity checks do not depend on trained
// values, and generation takes well under a second instead of a
// training run (which would also read and write the float-checkpoint
// cache outside the work directory). Accuracy is not a metric here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fq_bert.h"
#include "nn/bert.h"

namespace perfbench {

// Write the engine file `dir/name.fqb` (FQBERT01, as `fqbert_cli
// quantize` writes it). Weights depend only on `weight_seed`, so every
// run of the benchmark serves the same engine. Returns the path, or ""
// when the file cannot be written.
std::string write_engine_file(const std::string& dir, const std::string& name,
                              uint64_t weight_seed);

// `count` examples shaped for `config`, each length drawn uniformly
// from `lengths`.
std::vector<fqbert::nn::Example> make_examples(
    uint64_t seed, size_t count, const std::vector<int64_t>& lengths,
    const fqbert::nn::BertConfig& config);

// Every length lo..hi inclusive (a uniform mix over the range).
inline std::vector<int64_t> lengths_between(int64_t lo, int64_t hi) {
  std::vector<int64_t> v;
  for (int64_t s = lo; s <= hi; ++s) v.push_back(s);
  return v;
}

// forward() logits of every example, as plain float vectors.
std::vector<std::vector<float>> expected_logits(
    const fqbert::core::FqBertModel& engine,
    const std::vector<fqbert::nn::Example>& examples);

// One timed load of an engine file plus the derivation of `derive_bits`
// (0 = none), as the router does on `serve --model NAME=FILE@intA,intB`.
struct LoadedEngine {
  fqbert::core::FqBertModel native;
  fqbert::core::FqBertModel derived;
  double load_ms = 0.0;
  double derive_ms = 0.0;
};
LoadedEngine load_engine(const std::string& path, int derive_bits);

}  // namespace perfbench
