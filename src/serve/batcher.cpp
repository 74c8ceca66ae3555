#include "serve/batcher.h"

#include <cstring>

#include "serve/flight_recorder.h"

namespace fqbert::serve {

namespace {

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

}  // namespace

void DynamicBatcher::set_event_tag(std::string_view model, uint8_t tier) {
  const size_t n = std::min(model.size(), sizeof(event_tag_) - 1);
  // lint-wire: bounded copy into a process-local tag buffer, no wire data
  std::memcpy(event_tag_, model.data(), n);
  event_tag_[n] = '\0';
  event_tier_ = tier;
}

void DynamicBatcher::time_out(ServeRequest& req, TimePoint now) {
  const int64_t age_us = resolve_unserved(req, RequestStatus::kTimedOut, now);
  if (stats_) stats_->record_timeout();
  FlightRecorder::instance().record(FlightEventType::kRequestTimedOut,
                                    event_tag_, req.trace_id, req.tier, 0,
                                    0, static_cast<uint64_t>(age_us));
}

void DynamicBatcher::abort() {
  MutexLock lock(mu_);
  aborted_ = true;
}

bool DynamicBatcher::next_batch(std::vector<ServeRequest>& out) {
  for (;;) {
    const Poll poll = poll_batch(out);
    if (poll != Poll::kIdle) return poll == Poll::kBatch;
    // Nothing queued: park until a submit or close() wakes us (bounded
    // so an abort() without a close() can never park a worker forever).
    queue_.wait_until(Clock::now() + std::chrono::milliseconds(50));
  }
}

DynamicBatcher::Poll DynamicBatcher::poll_batch(
    std::vector<ServeRequest>& out) {
  out.clear();
  std::vector<ServeRequest> expired;
  const TimePoint now = Clock::now();
  bool open = true;
  {
    MutexLock lock(mu_);
    // Aborting: queued work is fail_pending's to resolve, not ours.
    if (aborted_) return Poll::kDrained;
    open = queue_.pop(out, max_batch_, now, expired);
  }
  for (ServeRequest& req : expired) time_out(req, now);
  if (out.empty()) return open ? Poll::kIdle : Poll::kDrained;

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
  FlightRecorder::instance().record(
      FlightEventType::kBatchFormed, event_tag_, trace, event_tier_,
      static_cast<uint16_t>(std::min<int64_t>(longest, 0xFFFF)),
      static_cast<uint32_t>(out.size()),
      static_cast<uint64_t>(std::max<int64_t>(wait_us, 0)));
  return Poll::kBatch;
}

void DynamicBatcher::fail_pending(RequestStatus status) {
  std::vector<ServeRequest> left;
  queue_.drain_into(left);
  const TimePoint now = Clock::now();
  for (ServeRequest& req : left) {
    resolve_unserved(req, status, now);
    // Shutdown-failed requests are terminal for admitted work: without
    // this, admitted != completed + timed_out + failed at shutdown.
    if (stats_) stats_->record_failure();
  }
}

}  // namespace fqbert::serve
