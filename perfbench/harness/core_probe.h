// In-process measurements of the engine (core, quant) and accelerator
// (accel) layers, timed around calls into their public functions from
// outside the library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fq_bert.h"
#include "report.h"

namespace perfbench {

// forward() against its parts on the same examples: each example runs
// once through forward() and once as embed_into -> FqEncoderLayer::
// forward per layer -> head_row, in alternating order, each call timed.
struct Decomposition {
  // Mean microseconds per call (means add up; see reconcile()).
  double embed_us = 0.0, layer_us = 0.0, head_us = 0.0, forward_us = 0.0;
  // Medians per example of forward() and of the timed parts' sum.
  double forward_p50_us = 0.0, parts_p50_us = 0.0;
  int64_t examples = 0;
  int64_t mismatches = 0;  // parts' logits differ from forward()'s
};
Decomposition decompose_forward(const fqbert::core::FqBertModel& engine,
                                const std::vector<fqbert::nn::Example>& examples,
                                double seconds);

// Replay encoder layer 0 op by op at sequence length `s_len` on the
// engine's own weights (Q/K/V/O projections, PV, context requant,
// softmax, both LayerNorms, FFN1, GELU, FFN2), timing each op and the
// whole FqEncoderLayer::forward in interleaved rounds for `seconds`.
// Sets core.* / quant.* metrics suffixed ".s<S>". Returns 1 when the
// replayed ops do not reproduce forward()'s layer output exactly.
int64_t replay_layer(const fqbert::core::FqBertModel& engine, int64_t s_len,
                     double seconds, Report& report);

// Best-of-passes timing of a fixed example set on one engine. The
// host's speed drifts by up to a third within seconds and for minutes
// at a time; a pass that ran in a slow spell is beaten by one that did
// not, so the fastest pass of each example measures the program, and
// the sum over many examples averages what is left. A slower program is
// slower in every pass and still shows. Every call's logits are checked
// against `expected` (forward() of the same engine and example).
class BestOfPasses {
 public:
  BestOfPasses(const fqbert::core::FqBertModel& engine,
               const std::vector<fqbert::nn::Example>& examples,
               const std::vector<std::vector<float>>& expected);

  // One pass over every group of 8: its examples one by one through
  // forward() (when `with_forward`), then the group through
  // forward_batch.
  void pass(bool with_forward);

  // Fastest forward() of each example, in us.
  const std::vector<double>& forward_us() const { return forward_us_; }
  // Every forward() call, in ms, in call order.
  const std::vector<double>& calls_ms() const { return calls_ms_; }
  // Examples per second of the fastest passes (sum over examples).
  double forward_rps() const;
  double batch_rps() const;

  int64_t passes() const { return passes_; }
  int64_t examples_run() const { return examples_run_; }
  int64_t mismatches() const { return mismatches_; }

 private:
  const fqbert::core::FqBertModel& engine_;
  const std::vector<fqbert::nn::Example>& examples_;
  const std::vector<std::vector<float>>& expected_;
  std::vector<double> forward_us_;  // per example
  std::vector<double> batch_us_;    // per group of 8
  std::vector<double> calls_ms_;
  int64_t passes_ = 0;
  int64_t examples_run_ = 0;
  int64_t mismatches_ = 0;
};

// PerfModel + PowerModel for BERT-base, S=128 on ZCU111 (16,16), and
// run_full_model of the engine on `examples` (host time, logits checked
// against forward()).
struct AccelResult {
  double sim_ms = 0.0;
  double fps_per_w = 0.0;
  std::vector<std::pair<std::string, int64_t>> stage_cycles;  // per layer
  int64_t stall_cycles = 0;  // all layers
  double fullsim_host_ms = 0.0;
  int64_t mismatches = 0;
};
AccelResult accel_models(const fqbert::core::FqBertModel& engine,
                         const std::vector<fqbert::nn::Example>& examples);

// The paper's Table IV figures for ZCU111 (16,16).
inline constexpr double kPaperZcu111Ms = 23.79;
inline constexpr double kPaperZcu111FpsPerW = 3.18;

}  // namespace perfbench
