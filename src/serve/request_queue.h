// Thread-safe bounded FIFO between client threads and the serving
// workers, with deadline-aware admission: a request whose deadline has
// already passed (or whose queue is full) is rejected at submit time
// instead of wasting engine cycles downstream. Admitted requests stay
// here until a router worker pops them as a batch.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <optional>
#include <vector>

#include "nn/bert.h"
#include "platform/thread_annotations.h"
#include "serve/stats.h"
#include "serve/trace.h"

namespace fqbert::serve {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using Micros = std::chrono::microseconds;

/// Terminal status delivered through the response future. Appended-only:
/// the values travel the wire as u8, so reordering would break protocol
/// compatibility.
enum class RequestStatus {
  kOk,
  kRejectedQueueFull,
  kRejectedDeadline,  // dead on arrival at admission
  kRejectedInvalid,   // example malformed for the target engine
  kTimedOut,          // admitted, but expired before an engine ran it
  kEngineError,       // engine threw while executing this batch
  kShutdown,          // server aborted without draining
  kRejectedUnknownModel,  // router: no lane serves the requested model
  kRejectedUnknownTier,   // router: model known, requested tier is not
};
inline constexpr RequestStatus kLastRequestStatus =
    RequestStatus::kRejectedUnknownTier;

const char* request_status_name(RequestStatus s);

struct ServeResponse {
  uint64_t request_id = 0;
  RequestStatus status = RequestStatus::kOk;
  std::vector<float> logits;  // [num_classes], empty unless kOk
  int32_t predicted = -1;
  int64_t queue_us = 0;    // admission -> batch formation
  int64_t latency_us = 0;  // admission -> response
  int32_t batch_size = 0;  // occupancy of the batch this request rode in
  uint8_t tier = 0;        // weight_bits of the lane that served it
  uint64_t trace_id = 0;   // 0 = request was not traced
  // Per-stage timestamps (us, relative to admission) when traced.
  std::vector<TraceEvent> trace;
  // Admission instant, so a later hop (the transport completion path)
  // can stamp admission-relative stages. Process-local; never wired.
  TimePoint admitted_at{};
};

struct ServeRequest {
  uint64_t id = 0;
  uint8_t tier = 0;       // weight_bits of the lane this request rides
  uint64_t trace_id = 0;  // 0 = untraced; carried into the response
  nn::Example example;
  TimePoint enqueue_time{};
  std::optional<TimePoint> deadline;  // absolute wall deadline
  std::promise<ServeResponse> promise;

  int64_t seq_len() const {
    return static_cast<int64_t>(example.tokens.size());
  }
  bool expired(TimePoint now) const { return deadline && *deadline <= now; }
};

enum class AdmitResult {
  kOk,
  kQueueFull,
  kDeadlineExpired,
  kInvalidExample,
  kClosed,
  kUnknownModel,  // router: the named model has no serving lane
  kUnknownTier,   // router: model known, requested tier is not served
};

const char* admit_result_name(AdmitResult r);

struct RequestQueueConfig {
  size_t capacity = 4096;
};

/// MPMC bounded FIFO. Producers call submit(); workers pop up to a
/// batch at a time, oldest first. close() stops admissions (pending
/// requests stay poppable); abort() also stops hand-out.
class RequestQueue {
 public:
  /// `stats` (optional) counts each admission.
  explicit RequestQueue(const RequestQueueConfig& cfg,
                        ServeStats* stats = nullptr)
      : cfg_(cfg), stats_(stats) {}

  /// Deadline-aware admission. On kOk the request is owned by the
  /// queue and counted as admitted before any worker can pop it (so a
  /// stats snapshot never shows it completed yet not admitted); on any
  /// rejection the request is left untouched so the caller can fail
  /// its promise.
  AdmitResult submit(ServeRequest&& req);

  /// Move up to `max` live requests, oldest first, onto `out`
  /// (non-blocking). Requests whose deadline has passed by `now` move to
  /// `expired` instead and do not count against `max`. Returns false
  /// once the queue is closed and empty, or aborted: nothing more will
  /// ever be handed out.
  bool pop(std::vector<ServeRequest>& out, size_t max, TimePoint now,
           std::vector<ServeRequest>& expired);

  /// Move every pending request out (non-blocking).
  void drain_into(std::vector<ServeRequest>& out);

  void close();
  /// Abort-mode shutdown: close() and stop hand-out in one step. Once
  /// abort() returns, pop() hands out nothing, so a worker cannot run
  /// requests the caller is about to fail; what is still queued stays
  /// for drain_into().
  void abort();
  bool closed() const;
  size_t size() const;

 private:
  RequestQueueConfig cfg_;
  ServeStats* stats_;
  mutable Mutex mu_;
  std::deque<ServeRequest> pending_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
  bool aborted_ GUARDED_BY(mu_) = false;
};

}  // namespace fqbert::serve
