// Serving-side metrics: admission counters, latency quantiles and batch
// occupancy. One collector per router lane is shared by its queue and
// the workers that run its batches; everything is mutex-guarded and cheap enough to sit on
// the request path.
//
// Latency lives in a mergeable DDSketch-style quantile sketch (see
// quantile_sketch.h): O(log-range) memory regardless of history length,
// every quantile within the sketch's relative error (default 1%) of the
// true lifetime quantile, and — the property the shard proxy's STATS
// fan-out relies on — merging per-replica sketches is bit-for-bit
// identical to sketching the pooled samples, so `aggregate` yields
// exact shard-wide quantiles instead of sample-weighted guesses.
// Counters (admitted / completed / failed / timed out / rejected)
// remain exact over the full lifetime, as does max_ms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "platform/thread_annotations.h"
#include "serve/quantile_sketch.h"

namespace fqbert::serve {

class ServeStats {
 public:
  explicit ServeStats(double alpha = QuantileSketch::kDefaultAlpha)
      : latencies_us_(alpha) {}

  struct Report {
    uint64_t admitted = 0;
    uint64_t rejected_full = 0;
    uint64_t rejected_deadline = 0;
    uint64_t rejected_invalid = 0;  // malformed for the target engine
    uint64_t rejected_closed = 0;   // submitted after shutdown
    uint64_t timed_out = 0;   // admitted but expired before execution
    uint64_t completed = 0;   // exact lifetime count (not windowed)
    uint64_t failed = 0;      // engine error or shutdown-failed
    uint64_t batches = 0;
    uint64_t latency_samples = 0;  // lifetime samples behind the sketch
    double mean_batch_occupancy = 0.0;  // batched requests / batches
    double mean_queue_ms = 0.0;         // admission -> batch formation
    // Lifetime quantiles, within the sketch's relative error.
    double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0, p999_ms = 0.0;
    double max_ms = 0.0;  // exact, not bucket-rounded
    // The sketch the quantiles came from; carried so aggregate() can
    // merge exactly and the v3 STATS wire format can ship it. A report
    // decoded from a v1/v2 peer has an empty sketch but non-zero
    // quantile fields.
    QuantileSketch latency_sketch;

    double throughput_rps(double wall_s) const {
      return wall_s > 0.0 ? static_cast<double>(completed) / wall_s : 0.0;
    }

    /// Every admitted request reaches exactly one terminal state.
    bool accounting_balances() const {
      return admitted == completed + timed_out + failed;
    }
  };

  /// Merge per-replica reports into one shard-level view (the proxy's
  /// STATS fan-out): counters sum exactly (so the aggregate balances
  /// iff every part does); mean_queue_ms / mean_batch_occupancy are
  /// re-weighted by completions / batches; quantiles come from the
  /// MERGED latency sketches, so they are exactly what a single
  /// collector over the pooled samples would report. Parts whose
  /// sketch is empty but that claim samples (reports decoded from a
  /// pre-sketch wire peer) degrade those quantiles to the old
  /// sample-weighted mean, flagged by latency_samples exceeding the
  /// merged sketch count.
  static Report aggregate(const std::vector<Report>& parts);

  void record_admitted();
  void record_rejected_full();
  void record_rejected_deadline();
  void record_rejected_invalid();
  void record_rejected_closed();
  void record_timeout();
  /// Terminal failure of an *admitted* request: engine error while
  /// executing its batch, or failed by an abort-mode shutdown.
  void record_failure();
  void record_batch(size_t batch_size);
  void record_response(int64_t latency_us, int64_t queue_us);

  Report report() const;
  void reset();

 private:
  mutable Mutex mu_;
  uint64_t admitted_ GUARDED_BY(mu_) = 0;
  uint64_t rejected_full_ GUARDED_BY(mu_) = 0;
  uint64_t rejected_deadline_ GUARDED_BY(mu_) = 0;
  uint64_t rejected_invalid_ GUARDED_BY(mu_) = 0;
  uint64_t rejected_closed_ GUARDED_BY(mu_) = 0;
  uint64_t timed_out_ GUARDED_BY(mu_) = 0;
  uint64_t failed_ GUARDED_BY(mu_) = 0;
  uint64_t batches_ GUARDED_BY(mu_) = 0;
  uint64_t batched_requests_ GUARDED_BY(mu_) = 0;
  uint64_t completed_ GUARDED_BY(mu_) = 0;
  int64_t queue_us_sum_ GUARDED_BY(mu_) = 0;
  QuantileSketch latencies_us_ GUARDED_BY(mu_);
};

}  // namespace fqbert::serve
