#include "serve/router/model_router.h"

#include <algorithm>
#include <chrono>

#include "serve/flight_recorder.h"
#include "tensor/tensor_ops.h"

namespace fqbert::serve {

namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Cap on any worker park so a lost wakeup can only add bounded
/// latency.
constexpr auto kWorkerParkCap = std::chrono::milliseconds(50);

void set_error(std::string* error, const std::string& message) {
  if (error) *error = message;
}

std::string lane_label(const std::string& name, int bits) {
  return "model '" + name + "' tier int" + std::to_string(bits);
}

/// True when `ex` is well-formed for an engine of shape `cfg`
/// (non-empty, within max_seq_len, ids in range, segments aligned).
bool example_valid_for(const nn::Example& ex, const nn::BertConfig& cfg) {
  const int64_t len = static_cast<int64_t>(ex.tokens.size());
  if (len < 1 || len > cfg.max_seq_len) return false;
  if (ex.segments.size() != ex.tokens.size()) return false;
  for (const int32_t tok : ex.tokens)
    if (tok < 0 || tok >= cfg.vocab_size) return false;
  for (const int32_t seg : ex.segments)
    if (seg < 0 || seg >= cfg.num_segments) return false;
  return true;
}

/// Resolve a request that never reached an engine; returns its age.
int64_t resolve_unserved(ServeRequest& req, RequestStatus status,
                         TimePoint now) {
  ServeResponse resp;
  resp.request_id = req.id;
  resp.tier = req.tier;
  resp.status = status;
  resp.latency_us =
      std::chrono::duration_cast<Micros>(now - req.enqueue_time).count();
  const int64_t age_us = resp.latency_us;
  req.promise.set_value(std::move(resp));
  return age_us;
}

/// Execute one formed batch on `engine` and resolve every request's
/// promise (logits + latency breakdown on success, kEngineError for the
/// whole batch when the engine throws), recording into `stats`. `model`
/// tags the flight-recorder worker events and any retained slow-request
/// exemplars.
void execute_batch(const core::FqBertModel& engine, ServeStats& stats,
                   std::vector<ServeRequest>& batch,
                   const std::string& model) {
  const TimePoint formed = Clock::now();
  std::vector<const nn::Example*> examples;
  examples.reserve(batch.size());
  for (const ServeRequest& req : batch) examples.push_back(&req.example);

  FlightRecorder& recorder = FlightRecorder::instance();
  const uint8_t batch_tier = batch.empty() ? 0 : batch.front().tier;
  recorder.record(FlightEventType::kWorkerStart, model, 0, batch_tier, 0,
                  static_cast<uint32_t>(batch.size()));

  std::vector<Tensor> logits;
  bool failed = false;
  const TimePoint start = Clock::now();
  try {
    logits = engine.forward_batch(examples);
  } catch (const std::exception&) {
    failed = true;
  }

  const TimePoint done = Clock::now();
  stats.record_batch(batch.size());
  const auto rel_us = [](TimePoint t, TimePoint base) {
    return std::chrono::duration_cast<Micros>(t - base).count();
  };
  recorder.record(FlightEventType::kWorkerEnd, model, 0, batch_tier, 0,
                  static_cast<uint32_t>(batch.size()),
                  static_cast<uint64_t>(std::max<int64_t>(
                      rel_us(done, start), 0)));
  for (size_t i = 0; i < batch.size(); ++i) {
    ServeRequest& req = batch[i];
    ServeResponse resp;
    resp.request_id = req.id;
    resp.tier = req.tier;
    resp.batch_size = static_cast<int32_t>(batch.size());
    resp.queue_us = rel_us(formed, req.enqueue_time);
    resp.latency_us = rel_us(done, req.enqueue_time);
    if (req.trace_id != 0) {
      resp.trace_id = req.trace_id;
      resp.admitted_at = req.enqueue_time;
      resp.trace = {
          {TraceStage::kAdmitted, 0},
          {TraceStage::kBatchFormed, rel_us(formed, req.enqueue_time)},
          {TraceStage::kWorkerStart, rel_us(start, req.enqueue_time)},
          {TraceStage::kWorkerEnd, rel_us(done, req.enqueue_time)},
      };
    }
    if (failed) {
      resp.status = RequestStatus::kEngineError;
      stats.record_failure();
    } else {
      resp.status = RequestStatus::kOk;
      const Tensor& l = logits[i];
      resp.logits.assign(l.data(), l.data() + l.numel());
      resp.predicted = static_cast<int32_t>(argmax(l.data(), l.numel()));
      stats.record_response(resp.latency_us, resp.queue_us);
      // Retain a slow exemplar with its full stage breakdown, built
      // here even for untraced requests (the timestamps exist either
      // way; only the candidacy check rides the hot path).
      if (recorder.slow_candidate(resp.latency_us)) {
        recorder.note_slow(
            model, resp.tier, req.trace_id, resp.latency_us,
            {{TraceStage::kAdmitted, 0},
             {TraceStage::kBatchFormed, rel_us(formed, req.enqueue_time)},
             {TraceStage::kWorkerStart, rel_us(start, req.enqueue_time)},
             {TraceStage::kWorkerEnd, rel_us(done, req.enqueue_time)}});
      }
    }
    req.promise.set_value(std::move(resp));
  }
}

}  // namespace

ModelRouter::Lane::Take ModelRouter::Lane::take(std::vector<ServeRequest>& out,
                                                size_t max_batch) {
  out.clear();
  std::vector<ServeRequest> expired;
  const TimePoint now = Clock::now();
  const bool open = queue.pop(out, max_batch, now, expired);
  FlightRecorder& recorder = FlightRecorder::instance();
  for (ServeRequest& req : expired) {
    const int64_t age_us = resolve_unserved(req, RequestStatus::kTimedOut, now);
    stats.record_timeout();
    recorder.record(FlightEventType::kRequestTimedOut, name, req.trace_id,
                    req.tier, 0, 0, static_cast<uint64_t>(age_us));
  }
  if (out.empty()) return open ? Take::kIdle : Take::kDrained;

  // Journal the formed batch: size, longest sequence, and how long its
  // oldest request waited — the numbers a p99 postmortem starts from.
  uint64_t trace = 0;
  int64_t longest = 0;
  for (const ServeRequest& r : out) {
    if (trace == 0) trace = r.trace_id;
    longest = std::max(longest, r.seq_len());
  }
  const int64_t wait_us =
      std::chrono::duration_cast<Micros>(now - out.front().enqueue_time)
          .count();
  recorder.record(FlightEventType::kBatchFormed, name, trace,
                  static_cast<uint8_t>(tier),
                  static_cast<uint16_t>(std::min<int64_t>(longest, 0xFFFF)),
                  static_cast<uint32_t>(out.size()),
                  static_cast<uint64_t>(std::max<int64_t>(wait_us, 0)));
  return Take::kBatch;
}

void ModelRouter::Lane::fail_queued() {
  std::vector<ServeRequest> left;
  queue.drain_into(left);
  const TimePoint now = Clock::now();
  for (ServeRequest& req : left) {
    resolve_unserved(req, RequestStatus::kShutdown, now);
    // Shutdown-failed requests are terminal for admitted work: without
    // this, admitted != completed + timed_out + failed at shutdown.
    stats.record_failure();
  }
}

ModelRouter::ModelRouter(EngineRegistry& registry, const RouterConfig& cfg)
    : registry_(registry), cfg_(cfg) {
  if (cfg_.num_workers < 1) cfg_.num_workers = 1;
  if (cfg_.max_batch < 1) cfg_.max_batch = 1;
}

ModelRouter::~ModelRouter() { shutdown(/*drain=*/true); }

bool ModelRouter::start() {
  if (started_.exchange(true)) return true;
  workers_.reserve(static_cast<size_t>(cfg_.num_workers));
  for (int w = 0; w < cfg_.num_workers; ++w)
    workers_.emplace_back(
        [this, w] { worker_loop(static_cast<size_t>(w)); });
  start_ns_ = now_ns();
  return true;
}

void ModelRouter::shutdown(bool drain) {
  if (!started_ || stopped_.exchange(true)) return;
  // Refuse new lanes and snapshot the existing ones in ONE critical
  // section: a load_model racing this shutdown either lands before the
  // snapshot (its queue gets closed below) or fails — never a lane the
  // workers would poll forever waiting for it to drain.
  std::vector<std::shared_ptr<Lane>> lanes;
  {
    MutexLock lock(lanes_mu_);
    accepting_lanes_ = false;
    lanes.reserve(lanes_.size());
    for (const auto& [key, lane] : lanes_) lanes.push_back(lane);
  }
  // Abort mode stops hand-out together with admissions, BEFORE the
  // wakeup below — otherwise a woken worker can pop and complete
  // requests this shutdown promised to fail (racy on multi-core) — and
  // fails the leftovers only after the workers are gone.
  for (const auto& lane : lanes) {
    if (drain)
      lane->queue.close();
    else
      lane->queue.abort();
  }
  stopping_ = true;
  wake_workers();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  if (!drain)
    for (const auto& lane : lanes) lane->fail_queued();
  stop_ns_ = now_ns();
}

bool ModelRouter::insert_lane(
    const std::string& name, int bits,
    std::shared_ptr<const core::FqBertModel> engine, std::string* error) {
  auto lane = std::make_shared<Lane>(name, bits, std::move(engine), cfg_);
  {
    MutexLock lock(lanes_mu_);
    if (!accepting_lanes_) {
      set_error(error, "router is shutting down");
      return false;
    }
    const LaneKey key{name, bits};
    if (lanes_.count(key) > 0) {
      set_error(error, lane_label(name, bits) + " is already being served");
      return false;
    }
    if (default_model_.empty()) default_model_ = name;
    default_tier_.emplace(name, bits);  // no-op when the model has lanes
    lanes_.emplace(key, std::move(lane));
  }
  FlightRecorder::instance().record(FlightEventType::kModelLoaded, name, 0,
                                    static_cast<uint8_t>(bits));
  wake_workers();  // workers must start polling the new lane
  return true;
}

bool ModelRouter::add_model(const std::string& name, std::string* error) {
  const std::vector<int> tiers = registry_.tiers(name);
  if (tiers.empty()) {
    set_error(error, "model '" + name + "' is not in the engine registry");
    return false;
  }
  // Open the default tier's lane first so it becomes the model's
  // tier-0 target, then every sibling tier.
  std::vector<int> ordered;
  ordered.push_back(registry_.default_tier(name));
  for (int bits : tiers)
    if (bits != ordered.front()) ordered.push_back(bits);
  for (int bits : ordered) {
    std::shared_ptr<const core::FqBertModel> engine =
        registry_.get(name, bits);
    if (!engine) {
      set_error(error, lane_label(name, bits) + " vanished from the registry");
      return false;
    }
    if (!insert_lane(name, bits, std::move(engine), error)) return false;
  }
  return true;
}

bool ModelRouter::add_tier(const std::string& name, int bits,
                           std::string* error) {
  std::shared_ptr<const core::FqBertModel> engine = registry_.get(name, bits);
  if (!engine) {
    set_error(error, lane_label(name, bits) + " is not in the engine registry");
    return false;
  }
  const int resolved = bits == 0 ? registry_.default_tier(name) : bits;
  return insert_lane(name, resolved, std::move(engine), error);
}

bool ModelRouter::load_model(const std::string& name, const std::string& path,
                             std::string* error, int bits) {
  MutexLock admin(admin_mu_);
  if (path.empty()) {
    // Derive-only load: mint `bits` from the model's registered
    // default tier.
    if (bits == 0) {
      set_error(error, "deriving a tier for '" + name +
                           "' requires an explicit bit-width");
      return false;
    }
    if (has_tier(name, bits)) {
      set_error(error, lane_label(name, bits) + " is already being served");
      return false;
    }
    if (!registry_.register_derived(name, bits)) {
      set_error(error, "cannot derive " + lane_label(name, bits) +
                           " (model unknown or bits out of [2, 8])");
      return false;
    }
    if (!add_tier(name, bits, error)) {
      if (!has_tier(name, bits)) registry_.unregister_tier(name, bits);
      return false;
    }
    return true;
  }

  if (bits != 0 && has_tier(name, bits)) {
    set_error(error, lane_label(name, bits) + " is already being served");
    return false;
  }
  // The expensive file load happens here, on the control-plane thread;
  // live lanes never notice. FQBERT03 files mmap in O(page faults).
  // Re-registering a (name, tier) that is already bound REPLACES the
  // registry binding; a lane serving the old engine keeps it alive
  // through its own shared_ptr.
  if (!registry_.register_file(name, path)) {
    set_error(error, "cannot load engine file '" + path + "' for model '" +
                         name + "'");
    return false;
  }
  const int native = registry_.get(name)
                         ? registry_.get(name)->quant_config().weight_bits
                         : 0;
  int target = bits == 0 ? native : bits;
  if (bits != 0 && bits != native && !registry_.contains(name, bits)) {
    if (!registry_.register_derived(name, bits)) {
      set_error(error, "cannot derive " + lane_label(name, bits) +
                           " from '" + path + "'");
      return false;
    }
  }
  if (has_tier(name, target)) {
    set_error(error, lane_label(name, target) + " is already being served");
    return false;
  }
  if (!add_tier(name, target, error)) {
    // Lane refused (e.g. shutdown raced in): don't leave the tier
    // dangling in the registry — unless some lane does serve it.
    if (!has_tier(name, target)) registry_.unregister_tier(name, target);
    return false;
  }
  return true;
}

bool ModelRouter::lane_drained(const Lane& lane) {
  // Order-independent given inflight is raised before take(): a
  // request is always visible in the queue or under a nonzero inflight
  // (see Lane::inflight).
  return lane.queue.size() == 0 && lane.inflight.load() == 0;
}

void ModelRouter::retire_lane(const std::shared_ptr<Lane>& lane) {
  // Stop admissions; in-flight and queued work still completes.
  lane->closing = true;
  lane->queue.close();
  wake_workers();
  const uint64_t drain_start_ns = flight_now_ns();

  if (running()) {
    // Drain: other lanes keep serving — only this caller blocks. The
    // timed re-check makes a lost notify cost latency, never a hang.
    MutexLock lock(lanes_mu_);
    while (!lane_drained(*lane))
      drain_cv_.wait_for(lock.native(), std::chrono::milliseconds(20));
  } else {
    // No workers will ever run this lane's work (never started, or
    // already shut down): fail whatever is parked instead of hanging.
    lane->queue.abort();
    lane->fail_queued();
  }

  {
    MutexLock lock(lanes_mu_);
    lanes_.erase(LaneKey{lane->name, lane->tier});
    // Re-point the model's default tier at the lowest survivor, or
    // forget the model entirely when its last lane is gone.
    auto dt = default_tier_.find(lane->name);
    if (dt != default_tier_.end()) {
      int lowest = 0;
      for (const auto& [key, other] : lanes_) {
        if (key.first != lane->name) continue;
        if (lowest == 0 || key.second < lowest) lowest = key.second;
      }
      if (lowest == 0) {
        default_tier_.erase(dt);
      } else if (dt->second == lane->tier) {
        dt->second = lowest;
      }
    }
  }
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.record(FlightEventType::kLaneDrained, lane->name, 0,
                  static_cast<uint8_t>(lane->tier), 0, 0,
                  (flight_now_ns() - drain_start_ns) / 1000);
  recorder.record(FlightEventType::kModelUnloaded, lane->name, 0,
                  static_cast<uint8_t>(lane->tier));
}

bool ModelRouter::unload_model(const std::string& name, std::string* error,
                               int bits) {
  MutexLock admin(admin_mu_);
  std::vector<std::shared_ptr<Lane>> doomed;
  {
    MutexLock lock(lanes_mu_);
    const std::string& resolved = name.empty() ? default_model_ : name;
    for (const auto& [key, lane] : lanes_) {
      if (key.first != resolved) continue;
      if (bits == 0 || key.second == bits) doomed.push_back(lane);
    }
  }
  if (doomed.empty()) {
    set_error(error, bits == 0
                         ? "model '" + name + "' is not being served"
                         : lane_label(name, bits) + " is not being served");
    return false;
  }
  for (const auto& lane : doomed) {
    retire_lane(lane);
    if (bits != 0) {
      registry_.unregister_tier(lane->name, lane->tier);
    }
  }
  if (bits == 0) registry_.unregister(doomed.front()->name);
  return true;
}

std::future<ServeResponse> ModelRouter::submit(
    const std::string& model, nn::Example example,
    std::optional<Micros> deadline_budget, AdmitResult* admit,
    uint64_t trace_id, int tier) {
  ServeRequest req;
  req.id = next_id_.fetch_add(1);
  req.trace_id = trace_id;
  req.example = std::move(example);
  req.enqueue_time = Clock::now();
  if (deadline_budget) req.deadline = req.enqueue_time + *deadline_budget;
  std::future<ServeResponse> fut = req.promise.get_future();

  // Resolve the lane even when the router is not running, so a request
  // to a served lane that races shutdown is counted in its rejected_closed.
  bool model_known = false;
  std::shared_ptr<Lane> lane = find_lane(model, tier, &model_known);
  if (!lane && model_known &&
      cfg_.tier_fallback == TierFallback::kFallbackToDefault)
    lane = find_lane(model, 0);

  AdmitResult result = AdmitResult::kClosed;
  if (!running()) {
    result = AdmitResult::kClosed;
  } else if (!lane) {
    result = model_known ? AdmitResult::kUnknownTier
                         : AdmitResult::kUnknownModel;
  } else if (lane->closing) {
    result = AdmitResult::kClosed;
  } else if (!example_valid_for(req.example, lane->config)) {
    result = AdmitResult::kInvalidExample;
  } else {
    req.tier = static_cast<uint8_t>(lane->tier);
    result = lane->queue.submit(std::move(req));
  }
  if (admit) *admit = result;

  ServeResponse resp;
  resp.request_id = req.id;
  resp.trace_id = trace_id;
  resp.tier = lane ? static_cast<uint8_t>(lane->tier) : 0;
  FlightRecorder& recorder = FlightRecorder::instance();
  switch (result) {
    case AdmitResult::kOk: {
      // The queue counted the admission. Journal it with the observed
      // backlog, and ratchet the lane's lifetime high-watermark (CAS
      // max) — a new maximum gets its own event so saturation onset is
      // timestamped.
      const size_t depth = lane->queue.size();
      recorder.record(FlightEventType::kRequestAdmitted, lane->name,
                      trace_id, req.tier, 0,
                      static_cast<uint32_t>(depth));
      size_t hwm = lane->depth_high_watermark.load(std::memory_order_relaxed);
      while (depth > hwm) {
        if (lane->depth_high_watermark.compare_exchange_weak(
                hwm, depth, std::memory_order_relaxed)) {
          recorder.record(FlightEventType::kQueueHighWatermark, lane->name,
                          trace_id, req.tier, 0, 0, depth);
          break;
        }
      }
      wake_workers();
      return fut;
    }
    case AdmitResult::kQueueFull:
      lane->stats.record_rejected_full();
      resp.status = RequestStatus::kRejectedQueueFull;
      break;
    case AdmitResult::kDeadlineExpired:
      lane->stats.record_rejected_deadline();
      resp.status = RequestStatus::kRejectedDeadline;
      break;
    case AdmitResult::kInvalidExample:
      lane->stats.record_rejected_invalid();
      resp.status = RequestStatus::kRejectedInvalid;
      break;
    case AdmitResult::kClosed:
      if (lane) lane->stats.record_rejected_closed();
      resp.status = RequestStatus::kShutdown;
      break;
    case AdmitResult::kUnknownModel:
      unknown_rejected_.fetch_add(1);
      resp.status = RequestStatus::kRejectedUnknownModel;
      break;
    case AdmitResult::kUnknownTier:
      unknown_tier_rejected_.fetch_add(1);
      resp.status = RequestStatus::kRejectedUnknownTier;
      break;
  }
  recorder.record(FlightEventType::kRequestRejected,
                  lane ? lane->name : model, trace_id, resp.tier,
                  static_cast<uint16_t>(resp.status));
  req.promise.set_value(std::move(resp));
  return fut;
}

void ModelRouter::worker_loop(size_t worker_index) {
  std::vector<ServeRequest> batch;
  const size_t max_batch = static_cast<size_t>(cfg_.max_batch);
  size_t rr = worker_index;  // stagger the lane scan start per worker
  for (;;) {
    const std::vector<std::shared_ptr<Lane>> lanes = snapshot_lanes();

    // Epoch read BEFORE polling: a submit that lands mid-scan bumps the
    // epoch, so the wait below falls through and we re-scan.
    uint64_t epoch;
    {
      MutexLock lock(wake_mu_);
      epoch = work_epoch_;
    }

    bool executed = false;
    bool all_drained = true;
    for (size_t k = 0; k < lanes.size() && !executed; ++k) {
      Lane& lane = *lanes[(rr + k) % lanes.size()];
      lane.inflight.fetch_add(1);
      const Lane::Take take = lane.take(batch, max_batch);
      if (take == Lane::Take::kBatch) {
        execute_batch(*lane.engine, lane.stats, batch, lane.name);
        executed = true;
      }
      lane.inflight.fetch_sub(1);
      if (lane.closing) {
        // unload_model may be parked on this lane's drain.
        MutexLock lock(lanes_mu_);
        drain_cv_.notify_all();
      }
      if (take != Lane::Take::kDrained) all_drained = false;
    }
    ++rr;
    if (executed) continue;  // scan again from the next lane
    if (stopping_ && all_drained) return;

    // Every lane is idle: park until a submit bumps the epoch.
    const TimePoint cap = Clock::now() + kWorkerParkCap;
    MutexLock lock(wake_mu_);
    // Explicit loop: a lambda predicate reading work_epoch_ would be
    // opaque to the thread-safety analysis.
    while (work_epoch_ == epoch && !stopping_) {
      if (wake_cv_.wait_until(lock.native(), cap) == std::cv_status::timeout)
        break;
    }
  }
}

void ModelRouter::wake_workers() {
  {
    MutexLock lock(wake_mu_);
    ++work_epoch_;
  }
  wake_cv_.notify_all();
}

std::vector<std::shared_ptr<ModelRouter::Lane>> ModelRouter::snapshot_lanes()
    const {
  MutexLock lock(lanes_mu_);
  std::vector<std::shared_ptr<Lane>> out;
  out.reserve(lanes_.size());
  for (const auto& [key, lane] : lanes_) out.push_back(lane);
  return out;
}

std::shared_ptr<ModelRouter::Lane> ModelRouter::find_lane(
    const std::string& name, int bits, bool* model_known) const {
  MutexLock lock(lanes_mu_);
  const std::string& resolved = name.empty() ? default_model_ : name;
  auto dt = default_tier_.find(resolved);
  if (model_known) *model_known = dt != default_tier_.end();
  if (dt == default_tier_.end()) return nullptr;
  const int tier = bits == 0 ? dt->second : bits;
  auto it = lanes_.find(LaneKey{resolved, tier});
  return it == lanes_.end() ? nullptr : it->second;
}

bool ModelRouter::has_model(const std::string& name) const {
  bool model_known = false;
  find_lane(name, 0, &model_known);
  return model_known;
}

bool ModelRouter::has_tier(const std::string& name, int bits) const {
  return find_lane(name, bits) != nullptr;
}

std::vector<std::string> ModelRouter::model_names() const {
  MutexLock lock(lanes_mu_);
  std::vector<std::string> out;
  for (const auto& [key, lane] : lanes_)
    if (out.empty() || out.back() != key.first) out.push_back(key.first);
  return out;
}

std::vector<int> ModelRouter::served_tiers(const std::string& name) const {
  MutexLock lock(lanes_mu_);
  const std::string& resolved = name.empty() ? default_model_ : name;
  std::vector<int> out;
  for (const auto& [key, lane] : lanes_)
    if (key.first == resolved) out.push_back(key.second);
  return out;
}

std::optional<nn::BertConfig> ModelRouter::model_config(
    const std::string& name, int bits) const {
  const std::shared_ptr<Lane> lane = find_lane(name, bits);
  if (!lane) return std::nullopt;
  return lane->config;
}

std::optional<ServeStats::Report> ModelRouter::stats_report(
    const std::string& name, int bits) const {
  const std::shared_ptr<Lane> lane = find_lane(name, bits);
  if (!lane) return std::nullopt;
  return lane->stats.report();
}

std::vector<ModelRouter::LaneStats> ModelRouter::all_stats() const {
  std::vector<std::shared_ptr<Lane>> lanes = snapshot_lanes();
  std::vector<LaneStats> out;
  out.reserve(lanes.size());
  for (const auto& lane : lanes)
    out.push_back(LaneStats{lane->name, lane->tier, lane->stats.report()});
  return out;
}

std::vector<ModelRouter::LaneDepth> ModelRouter::queue_depths() const {
  std::vector<std::shared_ptr<Lane>> lanes = snapshot_lanes();
  std::vector<LaneDepth> out;
  out.reserve(lanes.size());
  for (const auto& lane : lanes)
    out.push_back(LaneDepth{
        lane->name, lane->tier,
        lane->queue.size(),
        lane->inflight.load(),
        lane->depth_high_watermark.load(std::memory_order_relaxed)});
  return out;
}

std::string ModelRouter::default_model() const {
  MutexLock lock(lanes_mu_);
  return default_model_;
}

int ModelRouter::default_tier(const std::string& name) const {
  MutexLock lock(lanes_mu_);
  const std::string& resolved = name.empty() ? default_model_ : name;
  auto it = default_tier_.find(resolved);
  return it == default_tier_.end() ? 0 : it->second;
}

double ModelRouter::uptime_s() const {
  const int64_t start = start_ns_;
  if (start == 0) return 0.0;
  const int64_t stop = stop_ns_;
  const int64_t end = stop != 0 ? stop : now_ns();
  return static_cast<double>(end - start) / 1e9;
}

}  // namespace fqbert::serve
