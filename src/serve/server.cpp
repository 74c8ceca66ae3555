#include "serve/server.h"

#include <algorithm>

namespace fqbert::serve {

namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

InferenceServer::InferenceServer(EngineRegistry& registry,
                                 std::string engine_name,
                                 const ServerConfig& cfg)
    : registry_(registry),
      engine_name_(std::move(engine_name)),
      cfg_(cfg),
      queue_(cfg.queue, &stats_),
      batcher_(queue_, cfg.batcher, &stats_),
      pool_(batcher_, stats_) {}

InferenceServer::~InferenceServer() { shutdown(/*drain=*/true); }

bool InferenceServer::start() {
  if (started_) return true;
  std::shared_ptr<const core::FqBertModel> engine =
      registry_.get(engine_name_);
  if (!engine) return false;
  model_config_ = engine->config();
  // 0 workers would admit requests that are never served (futures
  // block forever); clamp like BatcherConfig clamps max_batch.
  pool_.start(std::move(engine), std::max(1, cfg_.num_workers));
  start_ns_ = now_ns();
  started_ = true;
  return true;
}

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

std::future<ServeResponse> InferenceServer::submit(
    nn::Example example, std::optional<Micros> deadline_budget,
    AdmitResult* admit) {
  ServeRequest req;
  req.id = next_id_.fetch_add(1);
  req.example = std::move(example);
  req.enqueue_time = Clock::now();
  if (deadline_budget) req.deadline = req.enqueue_time + *deadline_budget;
  std::future<ServeResponse> fut = req.promise.get_future();

  // On any rejection the queue leaves `req` untouched (the move only
  // happens on kOk), so the promise below is still ours to fail.
  AdmitResult result = AdmitResult::kClosed;
  if (running()) {
    result = example_valid_for(req.example, model_config_)
                 ? queue_.submit(std::move(req))
                 : AdmitResult::kInvalidExample;
  }
  if (admit) *admit = result;

  ServeResponse resp;
  resp.request_id = req.id;
  switch (result) {
    case AdmitResult::kOk:  // the queue counted the admission
      return fut;
    case AdmitResult::kQueueFull:
      stats_.record_rejected_full();
      resp.status = RequestStatus::kRejectedQueueFull;
      break;
    case AdmitResult::kDeadlineExpired:
      stats_.record_rejected_deadline();
      resp.status = RequestStatus::kRejectedDeadline;
      break;
    case AdmitResult::kInvalidExample:
      stats_.record_rejected_invalid();
      resp.status = RequestStatus::kRejectedInvalid;
      break;
    case AdmitResult::kClosed:
      stats_.record_rejected_closed();
      resp.status = RequestStatus::kShutdown;
      break;
    case AdmitResult::kUnknownModel:  // router-only; unreachable here
      resp.status = RequestStatus::kRejectedUnknownModel;
      break;
    case AdmitResult::kUnknownTier:  // router-only; unreachable here
      resp.status = RequestStatus::kRejectedUnknownTier;
      break;
  }
  req.promise.set_value(std::move(resp));
  return fut;
}

void InferenceServer::shutdown(bool drain) {
  if (!started_ || stopped_.exchange(true)) return;
  // Abort mode: stop batch handout BEFORE waking the workers via
  // close(), then fail whatever is left only after they have exited —
  // otherwise a woken worker can pop and complete requests this
  // shutdown promised to fail (racy on multi-core).
  if (!drain) batcher_.abort();
  queue_.close();
  pool_.join();
  if (!drain) batcher_.fail_pending(RequestStatus::kShutdown);
  stop_ns_ = now_ns();
}

double InferenceServer::uptime_s() const {
  const int64_t start = start_ns_;
  if (start == 0) return 0.0;
  const int64_t stop = stop_ns_;
  const int64_t end = stop != 0 ? stop : now_ns();
  return static_cast<double>(end - start) / 1e9;
}

}  // namespace fqbert::serve
