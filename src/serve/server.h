// InferenceServer: the serving facade. Wires a RequestQueue (deadline-
// aware admission) -> DynamicBatcher (a free worker takes up to
// max_batch of what is queued, never waiting for more) -> EnginePool
// (N workers sharing the one immutable engine from the EngineRegistry),
// with a ServeStats collector across all stages.
//
//   EngineRegistry registry;
//   registry.register_file("sst2", "fq.bin");
//   InferenceServer server(registry, "sst2", cfg);
//   server.start();
//   auto fut = server.submit(example, std::chrono::milliseconds(50));
//   ServeResponse r = fut.get();   // r.predicted, r.latency_us, ...
//   server.shutdown(/*drain=*/true);
#pragma once

#include <atomic>

#include "serve/engine_pool.h"
#include "serve/engine_registry.h"

namespace fqbert::serve {

struct ServerConfig {
  int num_workers = 2;
  RequestQueueConfig queue;
  BatcherConfig batcher;
};

/// True when `ex` is well-formed for an engine of shape `cfg`
/// (non-empty, within max_seq_len, ids in range, segments aligned).
/// Shared by InferenceServer and ModelRouter admission.
bool example_valid_for(const nn::Example& ex, const nn::BertConfig& cfg);

class InferenceServer {
 public:
  InferenceServer(EngineRegistry& registry, std::string engine_name,
                  const ServerConfig& cfg = {});
  ~InferenceServer();

  /// Resolve the shared engine and spawn the workers (all workers share
  /// the registry's one immutable instance — forward_batch is
  /// reentrant-const, so per-worker weight replicas would only multiply
  /// memory). False when the engine name cannot be resolved.
  bool start();

  /// Enqueue one example. The returned future always completes; on
  /// rejection (queue full, dead-on-arrival deadline, or an example
  /// that is malformed for this engine) it carries the kRejected*
  /// status immediately. `deadline_budget` is the wall-time budget
  /// from now; requests that exceed it in the queue are failed with
  /// kTimedOut. `admit` (optional) receives the admission verdict.
  std::future<ServeResponse> submit(nn::Example example,
                                    std::optional<Micros> deadline_budget =
                                        std::nullopt,
                                    AdmitResult* admit = nullptr);

  /// Stop the server. drain=true completes everything already admitted;
  /// drain=false fails pending requests with kShutdown. Idempotent.
  void shutdown(bool drain = true);

  ServeStats& stats() { return stats_; }
  const ServerConfig& config() const { return cfg_; }
  /// Shape of the engine this server runs (valid after start()); the
  /// network transport advertises it so remote clients can synthesize
  /// well-formed examples without the engine file.
  const nn::BertConfig& model_config() const { return model_config_; }
  size_t num_workers() const { return pool_.num_workers(); }
  bool running() const { return started_ && !stopped_; }
  /// Seconds from start() to now (or to shutdown once stopped).
  double uptime_s() const;

 private:
  EngineRegistry& registry_;
  std::string engine_name_;
  ServerConfig cfg_;
  ServeStats stats_;
  RequestQueue queue_;
  DynamicBatcher batcher_;
  EnginePool pool_;
  nn::BertConfig model_config_{};  // set by start()
  std::atomic<uint64_t> next_id_{1};
  // Nanosecond timestamps (atomic: uptime_s() races with shutdown()).
  std::atomic<int64_t> start_ns_{0};
  std::atomic<int64_t> stop_ns_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace fqbert::serve
