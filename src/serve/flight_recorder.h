// FlightRecorder: an always-on, in-process black box for the serving
// stack. Every layer appends typed, fixed-size binary events (request
// admitted/rejected/timed-out, batch formed, worker start/end, queue
// high-watermarks, hot LOAD/UNLOAD lifecycle, proxy health transitions
// and failover retries) into a fixed-capacity per-thread ring journal.
// Events are stamped with a CLOCK_MONOTONIC nanosecond timestamp —
// machine-wide comparable, so a proxy's journal and its backends'
// journals merge into one timeline on the same host — and carry the
// wire trace id, so journal entries join against v3/v4 traces.
//
// Design constraints, in order:
//   * recording must be cheap enough to never turn off: one
//     thread-local lookup, one uncontended per-thread mutex, one
//     clock_gettime, a fixed-size slot write. bench_flight_recorder
//     FAILS a Release build where this costs > 100 ns/event or moves
//     serve p50 by > 2%.
//   * lock-light, not lock-free: each ring's mutex is only ever
//     contended by a snapshot (rare: a /debug scrape, a DUMP_EVENTS
//     frame), so the write path pays an uncontended futex. This keeps
//     the whole structure inside PR 7's Clang thread-safety regime
//     (GUARDED_BY on the slots, provable at compile time) instead of
//     a seqlock TSan cannot vouch for.
//   * crash-safe: install_crash_handler() arms SIGSEGV/SIGABRT/SIGBUS
//     to async-signal-safely dump the last events and the build info
//     to stderr (write(2) + preformatted buffers only, no locks, no
//     allocation) before re-raising, turning any crash into a
//     postmortem artifact.
//
// Rings are claimed by threads on first record() and released (but
// never freed or cleared) at thread exit, so a dead worker's last
// events stay visible to snapshots and a new thread reuses the slot —
// memory is bounded by peak thread concurrency, not thread churn.
#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "platform/thread_annotations.h"
#include "serve/trace.h"

namespace fqbert::serve {

/// Journal event types. Appended-only (values travel in kEventDump
/// frames as u8); kLastFlightEventType gates hostile decodes.
enum class FlightEventType : uint8_t {
  kRequestAdmitted = 0,   // a=queue depth after admit
  kRequestRejected = 1,   // detail=RequestStatus code
  kRequestTimedOut = 2,   // expired in queue; b=age us
  kBatchFormed = 3,       // a=batch size, detail=max seq_len, b=wait us
  kWorkerStart = 4,       // a=batch size
  kWorkerEnd = 5,         // a=batch size, b=compute us
  kQueueHighWatermark = 6,  // b=new high-watermark depth
  kModelLoaded = 7,       // hot LOAD: tag=model, tier
  kModelUnloaded = 8,     // hot UNLOAD issued: tag=model, tier
  kLaneDrained = 9,       // retire drain completed; b=drain wait us
  kHealthTransition = 10,  // tag=backend, detail=(from<<4)|to BackendState
  kFailoverRetry = 11,    // tag=next backend, detail=attempt number
  kPlacementChanged = 12,  // tag=model or "", b=new placement epoch
  kBackendAdded = 13,     // tag=backend address, b=new placement epoch
  kBackendRemoved = 14,   // tag=backend address, b=new placement epoch
};
inline constexpr uint8_t kLastFlightEventType =
    static_cast<uint8_t>(FlightEventType::kBackendRemoved);

/// Stable short name ("admitted", "batch_formed", ...) for JSON, the
/// CLI and the crash dump. Returns a static string; async-signal-safe.
const char* flight_event_type_name(FlightEventType type);

/// One journal entry. Fixed-size POD so a ring slot write is a plain
/// member-wise copy; `tag` is the model name or backend address,
/// truncated and NUL-terminated.
struct FlightEvent {
  uint64_t t_ns = 0;      // CLOCK_MONOTONIC, comparable across processes
  uint64_t trace_id = 0;  // joins wire traces; 0 = untraced
  uint8_t type = 0;       // FlightEventType
  uint8_t tier = 0;       // weight_bits, 0 = default/none
  uint16_t detail = 0;    // type-specific small code (see enum)
  uint32_t a = 0;         // type-specific count
  uint64_t b = 0;         // type-specific value
  char tag[24] = {};      // model / backend, truncated, NUL-terminated
};

/// A retained slow-request exemplar: the full per-stage breakdown of a
/// completed request whose latency cleared the slow threshold, kept in
/// a bounded top-K (slowest-first) store.
struct SlowExemplar {
  uint64_t trace_id = 0;
  int64_t latency_us = 0;
  uint8_t tier = 0;
  std::string model;
  std::vector<TraceEvent> stages;  // relative us since admission
};

/// CLOCK_MONOTONIC now, in nanoseconds. Async-signal-safe.
uint64_t flight_now_ns();

class FlightRecorder {
 public:
  static constexpr size_t kRingCapacity = 1024;  // events per thread
  static constexpr size_t kMaxRings = 256;       // peak thread bound
  static constexpr size_t kSlowK = 16;           // retained exemplars
  static constexpr size_t kDefaultSnapshotMax = 4096;

  /// The process-wide journal. First call constructs it (and formats
  /// the crash banner); never destroyed.
  static FlightRecorder& instance();

  /// Append one event to the calling thread's ring. Safe from any
  /// thread, including while holding serving-stack locks (the ring
  /// mutex is a leaf). `tag` is truncated to fit the slot.
  void record(FlightEventType type, std::string_view tag,
              uint64_t trace_id = 0, uint8_t tier = 0, uint16_t detail = 0,
              uint32_t a = 0, uint64_t b = 0);

  /// Merge every ring into one timestamp-ordered view of events with
  /// t_ns >= since_ns, keeping at most the `max_events` most recent.
  std::vector<FlightEvent> snapshot(
      uint64_t since_ns = 0, size_t max_events = kDefaultSnapshotMax) const;

  /// Cheap pre-check for the exemplar store: true when a completed
  /// request of this latency would be retained (clears the threshold
  /// and the current top-K floor). Lets the worker skip building the
  /// stage vector for the common fast request.
  bool slow_candidate(int64_t latency_us) const;

  /// Retain a completed slow request. Inserted at most once per call;
  /// evicts the fastest retained exemplar once kSlowK are held.
  void note_slow(const std::string& model, uint8_t tier, uint64_t trace_id,
                 int64_t latency_us, std::vector<TraceEvent> stages);

  /// Slowest-first copy of the retained exemplars.
  std::vector<SlowExemplar> slow_exemplars() const;

  /// Requests at or above this latency are exemplar candidates.
  /// Default 0: every completed request competes and the store keeps
  /// the K slowest — so /debug/slow is non-empty on any live server.
  void set_slow_threshold_us(int64_t threshold_us);
  int64_t slow_threshold_us() const;

  /// Drop every retained exemplar (test isolation; the journal itself
  /// is never cleared).
  void clear_slow_exemplars();

  /// A/B switch for bench_flight_recorder only — production keeps the
  /// recorder always on. Disabled record() is a single relaxed load.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Arm SIGSEGV/SIGABRT/SIGBUS to dump the journal tail + build info
  /// to stderr and re-raise with default disposition. Idempotent.
  void install_crash_handler();

  /// Write the crash-dump format (banner, build info, the last
  /// `max_per_ring` events of every ring) to `fd`. Async-signal-safe:
  /// write(2) and integer formatting only, no locks taken — under a
  /// live writer the tail slot may be torn, which a postmortem
  /// tolerates and no test exercises concurrently.
  void dump_to_fd(int fd, size_t max_per_ring = 64) const;

 private:
  struct Ring {
    mutable Mutex mu;
    std::array<FlightEvent, kRingCapacity> slots GUARDED_BY(mu);
    /// Events ever appended; next write lands at seq % kRingCapacity.
    /// Atomic so the crash dump can read it lock-free.
    std::atomic<uint64_t> seq{0};
    std::atomic<bool> claimed{false};
  };

  FlightRecorder();
  ~FlightRecorder() = delete;  // process-lifetime singleton

  Ring* claim_ring();
  void copy_ring(const Ring& ring, uint64_t since_ns,
                 std::vector<FlightEvent>* out) const;
  void dump_ring_unlocked(const Ring& ring, int fd,
                          size_t max_per_ring) const
      NO_THREAD_SAFETY_ANALYSIS;

  /// Append-only registry: slots are published with a release store at
  /// num_rings_, never moved or freed, so the signal handler can walk
  /// them without a lock.
  std::array<std::atomic<Ring*>, kMaxRings> rings_{};
  std::atomic<size_t> num_rings_{0};
  Mutex claim_mu_;  // serializes ring claim/reuse, not recording

  mutable Mutex slow_mu_;
  std::vector<SlowExemplar> slow_ GUARDED_BY(slow_mu_);  // latency desc
  std::atomic<int64_t> slow_threshold_us_{0};
  /// Latency of the fastest retained exemplar once the store is full;
  /// below it a candidate cannot place (relaxed pre-check only).
  std::atomic<int64_t> slow_floor_us_{0};

  std::atomic<bool> enabled_{true};

  friend struct FlightRecorderTestPeer;
};

}  // namespace fqbert::serve
