// The benchmark's own arithmetic, kept apart so perfbench_selftest can
// check it: which percentiles a sample supports, how the per-layer
// times reconcile with forward(), the computed bytes-per-MAC of the
// replayed operations, and the load generator's backlog-growth check.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// A percentile is reported only when at least this many samples lie
// beyond it; otherwise the run has too few samples to state it.
inline constexpr int64_t kMinBeyond = 10;

// Percentiles are given in parts per 10000 so the rank is integer
// arithmetic (0.99 * 1000 is not exactly 990 in floating point).
inline constexpr int64_t kP50 = 5000;
inline constexpr int64_t kP99 = 9900;

struct Percentile {
  double value = 0.0;
  int64_t samples = 0;  // sample count behind the value
  int64_t beyond = 0;   // samples strictly above its rank
  bool supported = false;
};

// Nearest-rank percentile: the value at rank ceil(q * n) of the sorted
// samples. `supported` holds when kMinBeyond samples lie past that rank.
inline Percentile percentile(std::vector<double> v, int64_t q_per10k) {
  Percentile p;
  p.samples = static_cast<int64_t>(v.size());
  if (v.empty()) return p;
  const int64_t rank =
      std::max<int64_t>(1, (q_per10k * p.samples + 9999) / 10000);
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  p.value = v[static_cast<size_t>(rank - 1)];
  p.beyond = p.samples - rank;
  p.supported = p.beyond >= kMinBeyond;
  return p;
}

// Nearest-rank quantile of plain values (0 when there are none).
inline double quantile(std::vector<double> v, int64_t q_per10k) {
  return percentile(std::move(v), q_per10k).value;
}

// ---- Values robust to a noisy host ----------------------------------
//
// The shared host's speed drifts by up to a third within seconds, and
// the hypervisor now and then stops a vCPU for milliseconds. Timings are
// therefore taken as the best of several passes over the same work: a
// pass that met a stall is beaten by one that did not, while a slower
// program is slower in every pass. A closed loop cannot be replayed, so
// its rate is taken in short windows and the run reports the rate that
// its fastest tenth of windows reaches.

// Which pass holds each item's best (smallest) value, where a negative
// value means the pass has none; -1 for an item no pass has. Passes may
// differ in length; item i exists where at least one pass reaches it.
inline std::vector<int> best_pass(const std::vector<std::vector<double>>& passes) {
  size_t n = 0;
  for (const auto& p : passes) n = std::max(n, p.size());
  std::vector<int> best(n, -1);
  for (size_t i = 0; i < n; ++i)
    for (size_t k = 0; k < passes.size(); ++k) {
      const auto& p = passes[k];
      if (i < p.size() && p[i] >= 0.0 &&
          (best[i] < 0 || p[i] < passes[static_cast<size_t>(best[i])][i]))
        best[i] = static_cast<int>(k);
    }
  return best;
}

// Each item's best value over the passes; items no pass has are left
// out.
inline std::vector<double> best_over_passes(
    const std::vector<std::vector<double>>& passes) {
  const std::vector<int> k = best_pass(passes);
  std::vector<double> best;
  for (size_t i = 0; i < k.size(); ++i)
    if (k[i] >= 0) best.push_back(passes[static_cast<size_t>(k[i])][i]);
  return best;
}

// Event rate per fixed time window: events whose time falls in
// [t0 + k*window, t0 + (k+1)*window), for every whole window before
// `t_end`. Empty when no whole window fits.
inline std::vector<double> window_rates(const std::vector<int64_t>& event_ns,
                                        int64_t t0_ns, int64_t t_end_ns,
                                        int64_t window_ns) {
  const int64_t windows = std::max<int64_t>(0, (t_end_ns - t0_ns) / window_ns);
  std::vector<double> rates(static_cast<size_t>(windows), 0.0);
  for (const int64_t t : event_ns) {
    if (t < t0_ns) continue;
    const int64_t k = (t - t0_ns) / window_ns;
    if (k < windows) rates[static_cast<size_t>(k)] += 1e9 / static_cast<double>(window_ns);
  }
  return rates;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), kP50).value;
}

// forward() against its parts: embed + L x encoder layer + head, all as
// mean microseconds per call over the same examples (means add; medians
// do not). `unattributed_us` is what forward() spends outside the three
// (packing, dispatch, logits allocation).
struct Reconciliation {
  double parts_us = 0.0;
  double unattributed_us = 0.0;
  double err_pct = 0.0;  // |unattributed| as a share of forward()
  bool ok = false;
};

// Stated tolerance of the reconciliation.
inline constexpr double kReconcileTolPct = 15.0;

inline Reconciliation reconcile(double embed_us, double layer_us,
                                int64_t num_layers, double head_us,
                                double forward_us,
                                double tol_pct = kReconcileTolPct) {
  Reconciliation r;
  r.parts_us =
      embed_us + layer_us * static_cast<double>(num_layers) + head_us;
  r.unattributed_us = forward_us - r.parts_us;
  r.err_pct = forward_us > 0.0
                  ? 100.0 * std::fabs(r.unattributed_us) / forward_us
                  : 100.0;
  r.ok = forward_us > 0.0 && r.err_pct <= tol_pct;
  return r;
}

// Work and data movement of one replayed operation, computed from its
// tensor sizes (not measured): every operand read once, every result
// written once.
struct OpCost {
  int64_t macs = 0;
  int64_t bytes = 0;
  double bytes_per_mac() const {
    return macs > 0 ? static_cast<double>(bytes) / static_cast<double>(macs)
                    : 0.0;
  }
};

// QuantLinear::forward_i8 over `rows` rows: int8 input [rows, in],
// weights [out, in] at `weight_elem_bytes` each (the resident width),
// int32 bias [out], int8 output [rows, out].
inline OpCost linear_cost(int64_t rows, int64_t in, int64_t out,
                          int64_t weight_elem_bytes) {
  OpCost c;
  c.macs = rows * in * out;
  c.bytes = rows * in + out * in * weight_elem_bytes + out * 4 + rows * out;
  return c;
}

// int_matmul_pv per head, over all heads: int32 probabilities [S, S],
// int8 V head [S, head_dim], int32 context accumulators [S, head_dim].
inline OpCost pv_cost(int64_t s_len, int64_t num_heads, int64_t head_dim) {
  OpCost c;
  c.macs = num_heads * s_len * s_len * head_dim;
  c.bytes = num_heads * (s_len * s_len * 4 + s_len * head_dim +
                         s_len * head_dim * 4);
  return c;
}

// A generator's backlog (requests due but not yet written) "grows
// steadily" when it never drains: each quarter of the phase ends with a
// larger backlog than the quarter before, and the last ends above
// `floor`. `backlog_at_quarter_end` holds the backlog sampled at the end
// of each quarter.
inline bool backlog_grows(const std::vector<int64_t>& backlog_at_quarter_end,
                          int64_t floor) {
  if (backlog_at_quarter_end.size() < 2) return false;
  for (size_t i = 1; i < backlog_at_quarter_end.size(); ++i)
    if (backlog_at_quarter_end[i] <= backlog_at_quarter_end[i - 1])
      return false;
  return backlog_at_quarter_end.back() > floor;
}

}  // namespace perfbench
