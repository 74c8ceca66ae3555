// ModelRouter: the serving front-end. Fronts N named engines in ONE
// process — and each name is served at one or more PRECISION TIERS. A
// serving lane is keyed by (model, tier): its own RequestQueue +
// ServeStats around that tier's engine, with every lane multiplexed
// onto one shared worker set, so K lanes cost K engine bindings (tiers
// derived from one checkpoint share nothing but are individually
// mmap-shareable) and only one thread pool. A free worker takes the
// oldest min(max_batch, queued) requests of a lane at once, of any
// length, and never waits for more to arrive; forward_batch is ragged
// and unpadded, so mixing lengths costs nothing. Requests carry the
// model name AND a tier (weight_bits; 0 = the model's default tier);
// the empty name routes to the default model (the first lane added),
// which is how protocol-v1 clients and in-process single-model callers
// reach it.
//
//   EngineRegistry registry;
//   registry.register_file("sst2", "sst2.bin");   // native int8
//   registry.register_derived("sst2", 4);         // int4 sibling
//   ModelRouter router(registry, cfg);
//   router.add_model("sst2");        // lanes for every registered tier
//   router.start();
//   auto fut = router.submit("sst2", ex, Micros(50'000),
//                            nullptr, 0, /*tier=*/4);
//   router.load_model("mnli", "mnli.bin");       // hot, native tier
//   router.load_model("sst2", "", nullptr, 2);   // hot, derive int2
//   router.unload_model("sst2", nullptr, 4);     // drains ONLY int4
//   router.unload_model("sst2");                 // drains all tiers
//   router.shutdown(/*drain=*/true);
//
// Hot load/unload: load_model() publishes the tier's engine and lane
// without pausing other lanes; unload_model() closes the target
// lane(s)' admission queues, waits until their queued + batched +
// in-flight work has fully completed (other lanes keep serving
// throughout, including sibling tiers of the same model), then removes
// the lane(s) and the registry binding. Admission, execution, and
// stats are strictly per-lane, so each (model, tier)'s `admitted ==
// completed + timed_out + failed` balances independently.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fq_bert.h"
#include "platform/thread_annotations.h"
#include "serve/engine_registry.h"
#include "serve/request_queue.h"
#include "serve/stats.h"

namespace fqbert::serve {

/// What to do with a request naming a tier the model does not serve.
enum class TierFallback {
  kStrict,             // reject with kRejectedUnknownTier
  kFallbackToDefault,  // serve it on the model's default tier
};

struct RouterConfig {
  /// Shared worker threads executing batches across ALL lanes
  /// (clamped to >= 1).
  int num_workers = 2;
  /// Per-lane admission queue (every lane gets its own).
  RequestQueueConfig queue;
  /// Most requests one engine dispatch takes (the only batching knob;
  /// clamped to >= 1).
  int64_t max_batch = 8;
  TierFallback tier_fallback = TierFallback::kStrict;
};

class ModelRouter {
 public:
  /// Per-lane stats row: which model, which tier, the lane's report.
  struct LaneStats {
    std::string model;
    int tier = 0;
    ServeStats::Report report;
  };
  struct LaneDepth {
    std::string model;
    int tier = 0;
    size_t depth = 0;
    /// Batches of this lane currently executing on workers.
    int inflight = 0;
    /// Lifetime maximum admission-queue depth observed at submit time
    /// (the /debug/lanes saturation signal).
    size_t high_watermark = 0;
  };

  explicit ModelRouter(EngineRegistry& registry, const RouterConfig& cfg = {});
  ~ModelRouter();

  ModelRouter(const ModelRouter&) = delete;
  ModelRouter& operator=(const ModelRouter&) = delete;

  /// Spawn the shared workers. Lanes may be added before or after; a
  /// router with zero lanes idles until load_model()/add_model().
  bool start();

  /// Stop every lane and join the workers. drain=true completes all
  /// admitted work first; drain=false fails it with kShutdown.
  /// Idempotent.
  void shutdown(bool drain = true);

  /// Open serving lanes for EVERY registered tier of a model already
  /// in the registry. False (with *error set) when the name is unknown
  /// to the registry or any lane already serves it. The first model
  /// added becomes the default model.
  bool add_model(const std::string& name, std::string* error = nullptr);

  /// Open a lane for one (name, bits) tier already in the registry
  /// (bits 0 = the registry's default tier for the name). False when
  /// that tier is unknown or its lane already exists.
  bool add_tier(const std::string& name, int bits,
                std::string* error = nullptr);

  /// Hot-load one tier under live traffic. With a path: read the
  /// engine file (mmap zero-copy for FQBERT03), publish it in the
  /// registry under `name`, and open its lane. bits 0 serves the
  /// file's native tier; bits != native derives that tier from the
  /// loaded engine first. With an empty path: derive `bits` from the
  /// model's already-registered default tier. Other lanes — including
  /// sibling tiers of `name` — never pause. False when the target
  /// (name, tier) lane already exists or loading/derivation fails.
  bool load_model(const std::string& name, const std::string& path,
                  std::string* error = nullptr, int bits = 0);

  /// Hot-unload: stop admissions on the target lane(s), drain their
  /// queued and in-flight work (every admitted request reaches a
  /// terminal state), then drop the lane(s) and registry binding(s).
  /// bits 0 unloads EVERY tier of `name`; bits != 0 unloads that tier
  /// only, and sibling tiers serve uninterrupted. False when nothing
  /// matches.
  bool unload_model(const std::string& name, std::string* error = nullptr,
                    int bits = 0);

  /// Route one request to (model, tier). "" = default model; tier 0 =
  /// the model's default tier; a tier the model does not serve is
  /// rejected or falls back per RouterConfig::tier_fallback. The
  /// returned future always completes; rejections (unknown model,
  /// unknown tier, queue full, dead deadline, malformed example,
  /// closed lane) resolve immediately with the corresponding status.
  /// A nonzero `trace_id` marks the request traced: its response
  /// carries per-stage timestamps (admission, batch formation, worker
  /// start/end) under that id. The response's `tier` field reports the
  /// weight_bits that actually served the request.
  std::future<ServeResponse> submit(const std::string& model,
                                    nn::Example example,
                                    std::optional<Micros> deadline_budget =
                                        std::nullopt,
                                    AdmitResult* admit = nullptr,
                                    uint64_t trace_id = 0, int tier = 0);

  /// True when any tier of `name` has a lane (tier-specific overload
  /// below).
  bool has_model(const std::string& name) const;
  bool has_tier(const std::string& name, int bits) const;
  std::vector<std::string> model_names() const;
  /// Ascending tiers currently served for `name` ("" = default model).
  std::vector<int> served_tiers(const std::string& name) const;
  /// Engine shape of a served model ("" = default; tier 0 = default
  /// tier). nullopt when the lane does not exist.
  std::optional<nn::BertConfig> model_config(const std::string& name,
                                             int bits = 0) const;
  /// Per-lane stats snapshot ("" = default; tier 0 = default tier).
  /// nullopt when no lane.
  std::optional<ServeStats::Report> stats_report(const std::string& name,
                                                 int bits = 0) const;
  /// One row per lane, (name, tier)-ordered.
  std::vector<LaneStats> all_stats() const;

  /// Instantaneous per-lane backlog (admission queue depth),
  /// (name, tier)-ordered. A point-in-time gauge for the metrics
  /// endpoint.
  std::vector<LaneDepth> queue_depths() const;

  /// Name the empty model id routes to ("" when no lane was ever
  /// added). Unloading the default leaves the name dangling — v1/empty
  /// requests then get kRejectedUnknownModel until it is reloaded.
  std::string default_model() const;
  /// Tier that tier-0 requests for `name` ride ("" = default model; 0
  /// when the model has no lanes).
  int default_tier(const std::string& name) const;

  /// Requests rejected because no lane served their model name (these
  /// have no lane to count them in).
  uint64_t unknown_model_rejections() const { return unknown_rejected_; }
  /// Requests rejected because the model is served but not at the
  /// requested tier (strict fallback policy only).
  uint64_t unknown_tier_rejections() const { return unknown_tier_rejected_; }

  size_t num_workers() const { return workers_.size(); }
  bool running() const { return started_ && !stopped_; }
  double uptime_s() const;

 private:
  /// One (model, tier) serving lane. Owned via shared_ptr so workers
  /// can hold a snapshot across an unload (the lane object outlives
  /// its map entry until the last worker drops it).
  struct Lane {
    Lane(std::string model_name, int tier_bits,
         std::shared_ptr<const core::FqBertModel> model,
         const RouterConfig& cfg)
        : name(std::move(model_name)),
          tier(tier_bits),
          engine(std::move(model)),
          config(engine->config()),
          queue(cfg.queue, &stats) {}

    /// What one take() found.
    enum class Take {
      kBatch,    // `out` holds a batch
      kIdle,     // nothing queued
      kDrained,  // queue closed and empty, or aborted
    };
    /// The lane's batching step (non-blocking): pop the oldest
    /// min(max_batch, queued) live requests, resolve expired ones with
    /// kTimedOut, and journal the formed batch.
    Take take(std::vector<ServeRequest>& out, size_t max_batch);
    /// Fail everything still queued with kShutdown (after an abort,
    /// or when no worker will ever run this lane).
    void fail_queued();

    const std::string name;
    const int tier;  // weight_bits this lane serves
    const std::shared_ptr<const core::FqBertModel> engine;
    const nn::BertConfig config;
    ServeStats stats;
    RequestQueue queue;
    /// Workers parked on this lane's take/execute window. Incremented
    /// BEFORE take() so (queue empty && inflight == 0) can never be
    /// observed while a popped batch is unresolved.
    std::atomic<int> inflight{0};
    std::atomic<bool> closing{false};
    /// Lifetime max queue depth seen at admission (monotone CAS max).
    std::atomic<size_t> depth_high_watermark{0};
  };
  using LaneKey = std::pair<std::string, int>;

  void worker_loop(size_t worker_index);
  std::vector<std::shared_ptr<Lane>> snapshot_lanes() const;
  /// Resolve (name, bits) to a lane. Strict: no cross-tier fallback
  /// (that policy is applied in submit()). `model_known` reports
  /// whether ANY tier of the resolved name has a lane, so the caller
  /// can distinguish unknown-model from unknown-tier.
  std::shared_ptr<Lane> find_lane(const std::string& name, int bits,
                                  bool* model_known = nullptr) const;
  bool insert_lane(const std::string& name, int bits,
                   std::shared_ptr<const core::FqBertModel> engine,
                   std::string* error);
  /// Close + drain + erase one lane (admin_mu_ held by caller).
  void retire_lane(const std::shared_ptr<Lane>& lane);
  /// Bump the work epoch and wake every worker (new request / new lane /
  /// closing lane / shutdown).
  void wake_workers();
  /// True once the lane holds no queued, batched, or in-flight work.
  static bool lane_drained(const Lane& lane);

  EngineRegistry& registry_;
  RouterConfig cfg_;

  mutable Mutex lanes_mu_;
  std::map<LaneKey, std::shared_ptr<Lane>> lanes_ GUARDED_BY(lanes_mu_);
  /// Tier a bits-0 request rides, per model (first tier whose lane was
  /// added; re-pointed at the lowest remaining tier when that lane is
  /// unloaded).
  std::map<std::string, int> default_tier_ GUARDED_BY(lanes_mu_);
  /// Cleared (under lanes_mu_) at the top of shutdown(), atomically
  /// with the lane snapshot whose queues shutdown closes — so a racing
  /// load_model can never publish a lane shutdown would miss.
  bool accepting_lanes_ GUARDED_BY(lanes_mu_) = true;
  std::string default_model_ GUARDED_BY(lanes_mu_);
  /// Signaled by workers when a closing lane's work recedes;
  /// unload_model waits on it under lanes_mu_.
  std::condition_variable drain_cv_;

  /// Serializes load/unload against each other (the data plane never
  /// takes this).
  Mutex admin_mu_;

  Mutex wake_mu_;
  std::condition_variable wake_cv_;
  uint64_t work_epoch_ GUARDED_BY(wake_mu_) = 0;

  std::vector<std::thread> workers_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> unknown_rejected_{0};
  std::atomic<uint64_t> unknown_tier_rejected_{0};
  std::atomic<int64_t> start_ns_{0};
  std::atomic<int64_t> stop_ns_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace fqbert::serve
