// Tests of the benchmark's own math (bench_math.h). Exits 1 on the first
// failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_math.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void percentile_support() {
  using perfbench::percentile;
  // p99 of 1000 samples is rank 990: exactly 10 samples beyond it.
  const auto p = percentile(iota(1000), perfbench::kP99);
  expect(near(p.value, 990.0), "p99 of 1..1000 is 990");
  expect(p.beyond == 10 && p.supported, "1000 samples support p99");
  // One sample fewer leaves only 9 beyond: not reportable.
  const auto q = percentile(iota(999), perfbench::kP99);
  expect(q.beyond == 9 && !q.supported, "999 samples do not support p99");
  expect(!percentile(iota(19), perfbench::kP50).supported,
         "19 samples do not support p50");
  const auto m = percentile(iota(20), perfbench::kP50);
  expect(near(m.value, 10.0) && m.supported, "p50 of 1..20 is 10, supported");
  expect(!percentile({}, perfbench::kP50).supported, "no samples, no p50");
  // Order of the input does not matter.
  std::vector<double> rev = iota(1000);
  std::vector<double> shuffled(rev.rbegin(), rev.rend());
  expect(near(percentile(shuffled, perfbench::kP99).value, 990.0),
         "p99 independent of input order");
}

void best_of_passes() {
  using perfbench::best_over_passes;
  // A stall in one pass (item 1 of pass 0, item 2 of pass 1) is beaten
  // by the other pass; a slower item in every pass (item 3) stays slow.
  const auto b = best_over_passes({{1.0, 9.0, 2.0, 5.0}, {1.5, 2.0, 8.0, 6.0}});
  expect(b.size() == 4 && near(b[0], 1.0) && near(b[1], 2.0) &&
             near(b[2], 2.0) && near(b[3], 5.0),
         "best over passes per item");
  // Negative marks no value: an item failed in one pass keeps the other
  // pass's value; an item no pass has is left out; passes may be short.
  const auto c = best_over_passes({{-1.0, 3.0, -1.0}, {4.0, -1.0}});
  expect(c.size() == 2 && near(c[0], 4.0) && near(c[1], 3.0),
         "missing values and short passes");
  expect(best_over_passes({}).empty(), "no passes, no items");
  const auto k = perfbench::best_pass({{-1.0, 3.0, -1.0}, {4.0, -1.0}});
  expect(k.size() == 3 && k[0] == 1 && k[1] == 0 && k[2] == -1,
         "the pass that holds each best");
  // Rates: 10 events per 1 ms window for 10 windows, one window slow
  // (2 events) and one fast (20).
  std::vector<int64_t> t;
  for (int w = 0; w < 10; ++w)
    for (int i = 0; i < (w == 2 ? 20 : w == 5 ? 2 : 10); ++i)
      t.push_back(w * 1'000'000 + i * 1000);
  const auto r = perfbench::window_rates(t, 0, 10'000'000, 1'000'000);
  expect(r.size() == 10 && near(r[0], 10000.0) && near(r[2], 20000.0) &&
             near(r[5], 2000.0),
         "events per window as a rate");
  // The 90th percentile over the ten windows is rank 9 of 10: 10000,
  // the fast window (rank 10) alone does not set it.
  expect(near(perfbench::quantile(r, 9000), 10000.0), "p90 over windows");
  expect(perfbench::window_rates(t, 0, 500'000, 1'000'000).empty(),
         "no whole window, no rate");
}

void reconciliation() {
  // 10 + 2 x 100 + 5 = 215 us of parts against a 230 us forward().
  const auto r = perfbench::reconcile(10.0, 100.0, 2, 5.0, 230.0);
  expect(near(r.parts_us, 215.0), "parts add embed + L x layer + head");
  expect(near(r.unattributed_us, 15.0), "unattributed is forward - parts");
  expect(r.ok, "6.5% apart is within the 15% tolerance");
  const auto bad = perfbench::reconcile(10.0, 100.0, 2, 5.0, 300.0);
  expect(!bad.ok && near(bad.err_pct, 100.0 * 85.0 / 300.0),
         "28% apart fails the tolerance");
  // Parts exceeding forward() count as apart too.
  expect(!perfbench::reconcile(10.0, 150.0, 2, 5.0, 230.0).ok,
         "parts 35% above forward() fail");
  expect(!perfbench::reconcile(0, 0, 2, 0, 0).ok, "zero forward() never ok");
}

void bytes_per_mac() {
  // 16 rows x 64 in x 64 out at int8 weights: x 1024 B + w 4096 B +
  // bias 256 B + y 1024 B = 6400 B over 65536 MACs.
  const auto c = perfbench::linear_cost(16, 64, 64, 1);
  expect(c.macs == 65536 && c.bytes == 6400, "linear MACs and bytes");
  expect(near(c.bytes_per_mac(), 6400.0 / 65536.0), "linear bytes per MAC");
  // int16-resident weights double the weight term only.
  expect(perfbench::linear_cost(16, 64, 64, 2).bytes == 6400 + 4096,
         "wide weights add 4096 B");
  // PV at S=16, 4 heads of 16: per head probs 1024 B + V 256 B + acc
  // 1024 B, 4096 MACs.
  const auto pv = perfbench::pv_cost(16, 4, 16);
  expect(pv.macs == 4 * 4096 && pv.bytes == 4 * (1024 + 256 + 1024),
         "PV MACs and bytes");
  expect(perfbench::OpCost{}.bytes_per_mac() == 0.0, "no MACs, no ratio");
}

void backlog() {
  expect(perfbench::backlog_grows({1, 5, 20, 60}, 8), "rising backlog grows");
  expect(!perfbench::backlog_grows({1, 5, 20, 6}, 8), "a drained backlog");
  expect(!perfbench::backlog_grows({0, 1, 2, 3}, 8), "below the floor");
  expect(!perfbench::backlog_grows({0, 0, 0, 0}, 8), "no backlog");
}

}  // namespace

int main() {
  percentile_support();
  best_of_passes();
  reconciliation();
  bytes_per_mac();
  backlog();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
