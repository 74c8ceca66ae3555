#include "serve/request_queue.h"

namespace fqbert::serve {

const char* request_status_name(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kRejectedQueueFull: return "rejected-queue-full";
    case RequestStatus::kRejectedDeadline: return "rejected-deadline";
    case RequestStatus::kRejectedInvalid: return "rejected-invalid";
    case RequestStatus::kTimedOut: return "timed-out";
    case RequestStatus::kEngineError: return "engine-error";
    case RequestStatus::kShutdown: return "shutdown";
    case RequestStatus::kRejectedUnknownModel: return "rejected-unknown-model";
    case RequestStatus::kRejectedUnknownTier: return "rejected-unknown-tier";
  }
  return "unknown";
}

const char* admit_result_name(AdmitResult r) {
  switch (r) {
    case AdmitResult::kOk: return "ok";
    case AdmitResult::kQueueFull: return "queue-full";
    case AdmitResult::kDeadlineExpired: return "deadline-expired";
    case AdmitResult::kInvalidExample: return "invalid-example";
    case AdmitResult::kClosed: return "closed";
    case AdmitResult::kUnknownModel: return "unknown-model";
    case AdmitResult::kUnknownTier: return "unknown-tier";
  }
  return "unknown";
}

AdmitResult RequestQueue::submit(ServeRequest&& req) {
  MutexLock lock(mu_);
  if (closed_) return AdmitResult::kClosed;
  if (req.expired(Clock::now())) return AdmitResult::kDeadlineExpired;
  if (pending_.size() >= cfg_.capacity) return AdmitResult::kQueueFull;
  if (stats_) stats_->record_admitted();
  pending_.push_back(std::move(req));
  return AdmitResult::kOk;
}

bool RequestQueue::pop(std::vector<ServeRequest>& out, size_t max,
                       TimePoint now, std::vector<ServeRequest>& expired) {
  MutexLock lock(mu_);
  // Aborting: queued work is the aborter's to fail, not ours to run.
  if (aborted_) return false;
  for (size_t taken = 0; taken < max && !pending_.empty();) {
    ServeRequest& front = pending_.front();
    if (front.expired(now)) {
      expired.push_back(std::move(front));
    } else {
      out.push_back(std::move(front));
      ++taken;
    }
    pending_.pop_front();
  }
  return !(closed_ && pending_.empty());
}

void RequestQueue::drain_into(std::vector<ServeRequest>& out) {
  MutexLock lock(mu_);
  while (!pending_.empty()) {
    out.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
}

void RequestQueue::close() {
  MutexLock lock(mu_);
  closed_ = true;
}

void RequestQueue::abort() {
  MutexLock lock(mu_);
  closed_ = true;
  aborted_ = true;
}

bool RequestQueue::closed() const {
  MutexLock lock(mu_);
  return closed_;
}

size_t RequestQueue::size() const {
  MutexLock lock(mu_);
  return pending_.size();
}

}  // namespace fqbert::serve
