// Network transport overhead: client-observed closed-loop latency of
// the SAME ModelRouter lane driven (a) in-process through submit(),
// (b) across the loopback TCP transport over ONE persistent
// TransportClient connection — the wire cost loadgen's per-thread
// persistent clients pay — and (c) reconnecting per request, the
// pre-PR-4 loadgen behavior kept here as a guardrail: the bench FAILS
// if the persistent path's p50 ever stops beating the reconnecting
// path. Responses are verified identical across paths while measuring.
//
//   ./build/bench/bench_net_overhead [--fast]
#include <algorithm>
#include <chrono>

#include "bench_common.h"
#include "serve/loadgen.h"
#include "serve/net/transport_client.h"
#include "serve/net/transport_server.h"
#include "serve/router/model_router.h"

namespace {

using namespace fqbert;
using namespace fqbert::bench;

struct LatencyStats {
  double p50_us = 0, p99_us = 0, mean_us = 0, rps = 0;
};

LatencyStats summarize(std::vector<double>& us, double wall_s) {
  std::sort(us.begin(), us.end());
  LatencyStats s;
  if (us.empty()) return s;
  s.p50_us = us[us.size() / 2];
  s.p99_us = us[std::min(us.size() - 1, us.size() * 99 / 100)];
  double sum = 0;
  for (const double v : us) sum += v;
  s.mean_us = sum / static_cast<double>(us.size());
  s.rps = static_cast<double>(us.size()) / wall_s;
  return s;
}

std::vector<nn::Example> make_workload(const nn::BertConfig& cfg, int count,
                                       uint64_t seed) {
  const std::vector<int64_t> mix = {12, 16, 24};
  Rng rng(seed);
  std::vector<nn::Example> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i)
    out.push_back(serve::synth_example(rng, rng.choice(mix), cfg));
  return out;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = fast_mode(argc, argv);
  const int requests = fast ? 500 : 4000;

  std::printf("building serving engine (fast pipeline)...\n");
  serve::EngineRegistry registry;
  auto engine = pipeline::build_and_register_engine(
      registry, "bench", "sst2", core::FqQuantConfig::full(), /*fast=*/true);
  const nn::BertConfig& mcfg = engine->config();
  const std::vector<nn::Example> workload =
      make_workload(mcfg, requests, 1234);

  serve::RouterConfig rcfg;
  rcfg.num_workers = 1;
  rcfg.max_batch = 8;

  serve::ModelRouter router(registry, rcfg);
  if (!router.add_model("bench")) return 1;
  router.start();
  serve::net::TransportConfig tcfg;
  tcfg.port = 0;
  serve::net::TransportServer transport(router, tcfg);
  if (!transport.start()) return 1;

  print_rule();
  std::printf("closed-loop single client, %d requests, seq mix 12/16/24, "
              "1 worker\n",
              requests);

  // Warm up both paths (engine scratch, connection, caches).
  serve::net::TransportClient client;
  if (!client.connect("127.0.0.1", transport.port())) {
    std::fprintf(stderr, "connect failed: %s\n", client.error().c_str());
    return 1;
  }
  for (int i = 0; i < 50; ++i) {
    (void)router.submit("bench", workload[static_cast<size_t>(i)]).get();
    (void)client.call(workload[static_cast<size_t>(i)]);
  }

  // (a) in-process submit().
  std::vector<double> local_us;
  local_us.reserve(workload.size());
  double t0 = now_s();
  std::vector<serve::ServeResponse> local_responses;
  local_responses.reserve(workload.size());
  for (const nn::Example& ex : workload) {
    const double s = now_s();
    local_responses.push_back(router.submit("bench", ex).get());
    local_us.push_back((now_s() - s) * 1e6);
  }
  const double local_wall = now_s() - t0;

  // (b) loopback TCP round trip, verifying bit-identical logits.
  std::vector<double> remote_us;
  remote_us.reserve(workload.size());
  uint64_t mismatches = 0, failures = 0;
  t0 = now_s();
  for (size_t i = 0; i < workload.size(); ++i) {
    const double s = now_s();
    const auto resp = client.call(workload[i]);
    remote_us.push_back((now_s() - s) * 1e6);
    if (!resp || resp->status != serve::RequestStatus::kOk) {
      ++failures;
      continue;
    }
    const serve::ServeResponse& local = local_responses[i];
    if (resp->logits != local.logits || resp->predicted != local.predicted)
      ++mismatches;
  }
  const double remote_wall = now_s() - t0;

  // (c) loopback TCP, reconnecting per request (the pre-persistent
  // loadgen behavior): connect + round trip + teardown every time.
  std::vector<double> reconnect_us;
  reconnect_us.reserve(workload.size());
  uint64_t reconnect_failures = 0;
  t0 = now_s();
  for (size_t i = 0; i < workload.size(); ++i) {
    serve::net::TransportClient per_request;
    const double s = now_s();
    const bool ok = per_request.connect("127.0.0.1", transport.port()) &&
                    per_request.call(workload[i]).has_value();
    reconnect_us.push_back((now_s() - s) * 1e6);
    if (!ok) ++reconnect_failures;
  }
  const double reconnect_wall = now_s() - t0;

  transport.stop();
  router.shutdown(/*drain=*/true);

  LatencyStats local = summarize(local_us, local_wall);
  LatencyStats remote = summarize(remote_us, remote_wall);
  LatencyStats reconnect = summarize(reconnect_us, reconnect_wall);
  print_rule();
  std::printf("%-22s %10s %10s %10s %10s\n", "path", "p50 us", "p99 us",
              "mean us", "req/s");
  std::printf("%-22s %10.1f %10.1f %10.1f %10.1f\n", "in-process submit()",
              local.p50_us, local.p99_us, local.mean_us, local.rps);
  std::printf("%-22s %10.1f %10.1f %10.1f %10.1f\n", "loopback persistent",
              remote.p50_us, remote.p99_us, remote.mean_us, remote.rps);
  std::printf("%-22s %10.1f %10.1f %10.1f %10.1f\n", "loopback reconnect",
              reconnect.p50_us, reconnect.p99_us, reconnect.mean_us,
              reconnect.rps);
  print_rule();
  std::printf("loopback overhead: p50 %+.1f us (%.2fx), mean %+.1f us; "
              "responses: %llu transport failures, %llu mismatches vs "
              "in-process\n",
              remote.p50_us - local.p50_us,
              local.p50_us > 0 ? remote.p50_us / local.p50_us : 0.0,
              remote.mean_us - local.mean_us,
              static_cast<unsigned long long>(failures),
              static_cast<unsigned long long>(mismatches));
  std::printf("persistent connection saves %+.1f us p50 vs "
              "reconnect-per-request (%llu reconnect failures)\n",
              reconnect.p50_us - remote.p50_us,
              static_cast<unsigned long long>(reconnect_failures));
  const bool persistent_wins = remote.p50_us < reconnect.p50_us;
  if (!persistent_wins)
    std::printf("FAIL: persistent p50 (%.1f us) did not beat "
                "reconnect-per-request p50 (%.1f us)\n",
                remote.p50_us, reconnect.p50_us);
  return failures == 0 && mismatches == 0 && reconnect_failures == 0 &&
                 persistent_wins
             ? 0
             : 1;
}
