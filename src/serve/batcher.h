// Work-conserving batching. Requests stay in the lane's RequestQueue
// until a free worker pops them: it takes what is queued at that
// moment, of any length, in admission order, and never waits for more
// to arrive. forward_batch is ragged and unpadded, so mixing lengths
// costs nothing. Expired-deadline requests are failed here instead of
// reaching an engine.
#pragma once

#include <algorithm>
#include <string_view>

#include "serve/request_queue.h"
#include "serve/stats.h"

namespace fqbert::serve {

struct BatcherConfig {
  /// Most requests one engine dispatch takes (the only batching knob).
  int64_t max_batch = 8;
};

class DynamicBatcher {
 public:
  DynamicBatcher(RequestQueue& queue, const BatcherConfig& cfg,
                 ServeStats* stats = nullptr)
      : queue_(queue),
        max_batch_(static_cast<size_t>(std::max<int64_t>(1, cfg.max_batch))),
        stats_(stats) {}

  /// Blocks until a request is queued, then returns the oldest
  /// min(max_batch, queued) of them. Returns false only when the queue
  /// is closed AND empty (or after abort()) — i.e. shutdown drains by
  /// construction. Safe to call from many worker threads.
  bool next_batch(std::vector<ServeRequest>& out);

  /// Non-blocking flavor for callers multiplexing several batchers on
  /// one worker set (the model router). Never sleeps; same batch.
  enum class Poll {
    kBatch,    // `out` holds a batch
    kIdle,     // nothing queued
    kDrained,  // queue closed and empty (or aborted)
  };
  Poll poll_batch(std::vector<ServeRequest>& out);

  /// Abort-mode shutdown, step 1: stop handing out batches. Call
  /// BEFORE RequestQueue::close() — otherwise a worker woken by
  /// close() can pop and complete requests the caller intended to
  /// fail, racing fail_pending on multi-core hosts. Batches already
  /// handed to workers still complete normally.
  void abort();

  /// Abort-mode shutdown, step 2: fail everything still queued with the
  /// given status. Call after the workers have been joined.
  void fail_pending(RequestStatus status);

  /// Identity stamped on this batcher's flight-recorder events
  /// (kBatchFormed / kRequestTimedOut). Call once at lane construction,
  /// before any traffic — the fields are read without a lock on the
  /// batching hot path.
  void set_event_tag(std::string_view model, uint8_t tier);

 private:
  /// Resolve an expired request with kTimedOut and count it.
  void time_out(ServeRequest& req, TimePoint now);

  RequestQueue& queue_;
  const size_t max_batch_;
  ServeStats* stats_;
  /// Journal identity; written only by set_event_tag before traffic.
  char event_tag_[24] = "default";
  uint8_t event_tier_ = 0;
  /// Held across the aborted_ check and the pop, so no batch is handed
  /// out once abort() has returned.
  Mutex mu_;
  bool aborted_ GUARDED_BY(mu_) = false;
};

}  // namespace fqbert::serve
