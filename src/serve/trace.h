// End-to-end request tracing. Every request carries one u64 trace ID
// minted at the first v3-speaking hop (the client, or the proxy when
// fronting a v1/v2 client) and a list of per-stage timestamps.
//
// Timestamp convention: each hop stamps stages in MICROSECONDS relative
// to its own first event (admission for a backend, frame receipt for
// the proxy), so stamps need no cross-host clock sync. When the proxy
// splices a backend's trace into its own, it shifts the backend stages
// by the forward offset measured on its own clock, producing one
// monotonic timeline per request — including across failover retries,
// where each attempt contributes a kProxyForward/kProxyRetry pair.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace fqbert::serve {

/// Stage codes are appended-only (they travel on the wire).
enum class TraceStage : uint8_t {
  kAdmitted = 0,       // backend: request accepted into its lane queue
  kBatchFormed = 1,    // backend: a worker took the batch it rode in
  kWorkerStart = 2,    // backend: worker began the batch forward pass
  kWorkerEnd = 3,      // backend: forward pass done, logits ready
  kResponded = 4,      // backend: response handed to the transport
  kProxyReceived = 5,  // proxy: serve frame fully received
  kProxyForward = 6,   // proxy: attempt dispatched to a backend
  kProxyRetry = 7,     // proxy: previous attempt failed, failing over
  kProxyResponse = 8,  // proxy: relay handed to the client connection
};
inline constexpr uint8_t kLastTraceStage =
    static_cast<uint8_t>(TraceStage::kProxyResponse);

struct TraceEvent {
  TraceStage stage = TraceStage::kAdmitted;
  int64_t t_us = 0;  // relative to the hop's first event (see above)
};

inline const char* trace_stage_name(TraceStage s) {
  switch (s) {
    case TraceStage::kAdmitted: return "admitted";
    case TraceStage::kBatchFormed: return "batch_formed";
    case TraceStage::kWorkerStart: return "worker_start";
    case TraceStage::kWorkerEnd: return "worker_end";
    case TraceStage::kResponded: return "responded";
    case TraceStage::kProxyReceived: return "proxy_received";
    case TraceStage::kProxyForward: return "proxy_forward";
    case TraceStage::kProxyRetry: return "proxy_retry";
    case TraceStage::kProxyResponse: return "proxy_response";
  }
  return "unknown";
}

/// Process-unique, never zero (zero on the wire means "unset; mint one
/// for me"). High bits carry per-process entropy from the clock at
/// first use so IDs minted by different processes in one trace tree
/// don't collide in practice.
inline uint64_t mint_trace_id() {
  static const uint64_t salt = [] {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    const auto wall = std::chrono::system_clock::now().time_since_epoch();
    uint64_t s = static_cast<uint64_t>(now.count()) * 0x9e3779b97f4a7c15ull ^
                 static_cast<uint64_t>(wall.count());
    s ^= s >> 29;
    return s << 20;  // leave 20 low bits for the counter
  }();
  static std::atomic<uint64_t> next{1};
  const uint64_t id = salt + next.fetch_add(1, std::memory_order_relaxed);
  return id == 0 ? 1 : id;
}

}  // namespace fqbert::serve
