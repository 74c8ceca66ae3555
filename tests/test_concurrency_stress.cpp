// Concurrency stress for the full serving stack, built to run under
// ThreadSanitizer in CI (the `tsan` job): every shared structure the
// annotations in src/platform/thread_annotations.h protect is exercised
// from several threads AT ONCE — hot LOAD/UNLOAD churning a lane while
// traced wire traffic flows, /metrics scrapes racing the stats
// recorders, and shard-proxy failover racing health checks and
// fleet-stats fan-out. Iterations are bounded (wall-clock stop flags +
// fixed admin cycles) so the whole file stays well under a minute even
// with TSan's ~5-15x slowdown on one core.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/loadgen.h"
#include "serve/metrics_http.h"
#include "serve/metrics_text.h"
#include "serve/net/transport_client.h"
#include "serve/net/transport_server.h"
#include "serve/router/model_router.h"
#include "serve/shard/shard_proxy.h"
#include "serve/trace.h"
#include "test_util.h"

namespace fqbert::serve {
namespace {

using core::FqBertModel;
using core::FqQuantConfig;
using core::QatBert;
using nn::BertConfig;
using nn::BertModel;
using nn::Example;

std::shared_ptr<const FqBertModel> make_engine(const BertConfig& config,
                                               uint64_t seed) {
  Rng rng(seed);
  BertModel model(config, rng);
  QatBert qat(model, FqQuantConfig::full());
  std::vector<Example> calib;
  Rng data_rng(seed * 31 + 7);
  for (int i = 0; i < 12; ++i)
    calib.push_back(synth_example(data_rng, 4 + (i % 3) * 5, config));
  qat.calibrate(calib);
  return std::make_shared<const FqBertModel>(FqBertModel::convert(qat));
}

BertConfig tiny_shape() {
  BertConfig c;
  c.vocab_size = 96;
  c.hidden = 16;
  c.num_layers = 2;
  c.num_heads = 2;
  c.ffn_dim = 32;
  c.max_seq_len = 24;
  c.num_classes = 2;
  return c;
}

std::shared_ptr<const FqBertModel>& stress_engine() {
  static std::shared_ptr<const FqBertModel> e = make_engine(tiny_shape(), 4242);
  return e;
}

/// Raw HTTP GET against 127.0.0.1:port, reading to connection close.
std::string http_get(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), MSG_NOSIGNAL);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    out.append(buf, static_cast<size_t>(n));
  ::close(fd);
  return out;
}

/// Statuses a request may legitimately come back with while its lane is
/// being churned: the serve path never invents anything else.
bool acceptable_churn_status(RequestStatus s) {
  return s == RequestStatus::kOk ||
         s == RequestStatus::kRejectedUnknownModel ||
         s == RequestStatus::kShutdown || s == RequestStatus::kTimedOut ||
         s == RequestStatus::kEngineError;
}

// ---------------------------------------------------------------------------
// Router stack: hot load/unload + traced wire traffic + /metrics
// scrapes + direct stats snapshots, all concurrent.
// ---------------------------------------------------------------------------

TEST(ConcurrencyStress, RouterHotChurnTracedTrafficAndScrapes) {
  const testing::TempFile churn_file("stress_churn_engine.bin");
  const std::string& churn_path = churn_file.path();
  ASSERT_TRUE(stress_engine()->save(churn_path));

  EngineRegistry registry;
  registry.register_model("base", stress_engine());
  RouterConfig rcfg;
  rcfg.num_workers = 2;
  rcfg.max_batch = 4;
  ModelRouter router(registry, rcfg);
  ASSERT_TRUE(router.add_model("base"));
  ASSERT_TRUE(router.start());

  net::TransportServer transport(router, {});
  ASSERT_TRUE(transport.start());
  MetricsHttpServer metrics([&router] {
    return render_router_metrics(router);
  });
  ASSERT_TRUE(metrics.start("127.0.0.1", 0));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_calls{0}, traced_ok{0}, scrapes{0};
  std::atomic<bool> bad_status{false};

  // Traced + untraced inference traffic on the stable lane and the
  // churned lane alike (the latter exercises unknown-model rejection
  // racing the lane map).
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      net::TransportClient client;
      if (!client.connect("127.0.0.1", transport.port())) return;
      for (int i = 0; !stop; ++i) {
        const bool traced = i % 4 == 0;
        const std::string model = i % 3 == 0 ? "churn" : "base";
        Example ex = synth_example(rng, 4 + i % 8, tiny_shape());
        const auto resp =
            client.call(ex, Micros(2'000'000), model,
                        traced ? mint_trace_id() : 0);
        if (!resp) {  // transport failure: reconnect and continue
          if (!client.connect("127.0.0.1", transport.port())) return;
          continue;
        }
        if (!acceptable_churn_status(resp->status)) bad_status = true;
        if (resp->status == RequestStatus::kOk) {
          ++ok_calls;
          if (traced && !resp->trace.empty()) ++traced_ok;
        }
      }
    });
  }

  // Hot load/unload churn on its own admin connection, with LIST and
  // STATS fan-in sprinkled between cycles.
  std::thread admin([&] {
    net::TransportClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", transport.port()));
    for (int cycle = 0; cycle < 10; ++cycle) {
      std::string message;
      EXPECT_TRUE(client.load_model("churn", churn_path, &message))
          << message;
      (void)client.list_models();
      (void)client.query_stats("base");
      EXPECT_TRUE(client.unload_model("churn", &message)) << message;
    }
  });

  // Prometheus scrapes racing the recorders behind the rendered stats.
  std::thread scraper([&] {
    while (!stop) {
      const std::string body = http_get(metrics.port(), "/metrics");
      if (body.find("200 OK") != std::string::npos) ++scrapes;
    }
  });

  // Direct snapshot reader (no HTTP): ServeStats::report vs concurrent
  // recorders, plus the lane-map reads under churn.
  std::thread snapshotter([&] {
    while (!stop) {
      const auto report = router.stats_report("base");
      if (report) {
        // In-flight requests are admitted but not yet terminal, so a
        // concurrent snapshot shows admitted >= the terminal sum; a
        // snapshot where the sum EXCEEDS admissions would mean the
        // sketch/counter recorders tore.
        EXPECT_GE(report->admitted,
                  report->completed + report->timed_out + report->failed);
      }
      (void)router.model_names();
      std::this_thread::yield();
    }
  });

  admin.join();  // the churn cycles bound the test's duration
  stop = true;
  for (std::thread& t : traffic) t.join();
  scraper.join();
  snapshotter.join();

  EXPECT_FALSE(bad_status);
  EXPECT_GT(ok_calls.load(), 0u);
  EXPECT_GT(traced_ok.load(), 0u);
  EXPECT_GT(scrapes.load(), 0u);

  transport.stop();
  metrics.stop();
  router.shutdown(/*drain=*/true);
}

// ---------------------------------------------------------------------------
// Shard stack: failover (a backend dying mid-traffic) racing health
// probes, fleet-stats fan-out, and backend-status reads.
// ---------------------------------------------------------------------------

/// One in-process backend host: ModelRouter + TransportServer.
struct StressBackend {
  EngineRegistry registry;
  std::unique_ptr<ModelRouter> router;
  std::unique_ptr<net::TransportServer> transport;
  bool stopped = false;

  StressBackend() {
    RouterConfig rcfg;
    rcfg.num_workers = 1;
    rcfg.max_batch = 4;
    router = std::make_unique<ModelRouter>(registry, rcfg);
    registry.register_model("shared", stress_engine());
    EXPECT_TRUE(router->add_model("shared"));
    EXPECT_TRUE(router->start());
    transport =
        std::make_unique<net::TransportServer>(*router, net::TransportConfig{});
    EXPECT_TRUE(transport->start());
  }

  uint16_t port() const { return transport->port(); }

  void kill() {
    if (stopped) return;
    transport->stop();
    router->shutdown(/*drain=*/true);
    stopped = true;
  }

  ~StressBackend() { kill(); }
};

TEST(ConcurrencyStress, ProxyFailoverRacesHealthChecksAndStatsFanOut) {
  StressBackend a, b;
  shard::ShardProxyConfig pcfg;
  pcfg.connect_timeout = Micros(500'000);
  pcfg.call_timeout = Micros(5'000'000);
  pcfg.health_interval = Micros(20'000);  // hammer the state machine
  pcfg.health_timeout = Micros(500'000);
  pcfg.suspect_after = 1;
  pcfg.down_after = 2;
  pcfg.recover_after = 2;
  shard::ShardProxy proxy(pcfg);
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", a.port(), {"shared"}));
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", b.port(), {"shared"}));
  ASSERT_TRUE(proxy.start());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_calls{0};
  std::atomic<bool> bad_response{false};

  // Traced traffic through the proxy; every call must get SOME terminal
  // response (failover absorbs the dying backend).
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&, t] {
      Rng rng(2000 + static_cast<uint64_t>(t));
      net::TransportClient client;
      if (!client.connect("127.0.0.1", proxy.port())) return;
      for (int i = 0; !stop; ++i) {
        Example ex = synth_example(rng, 4 + i % 6, tiny_shape());
        const auto resp = client.call(ex, Micros(4'000'000), "shared",
                                      i % 5 == 0 ? mint_trace_id() : 0);
        if (!resp) {
          if (!client.connect("127.0.0.1", proxy.port())) return;
          continue;
        }
        if (resp->status == RequestStatus::kOk)
          ++ok_calls;
        else if (resp->status != RequestStatus::kEngineError)
          // kEngineError is the sanctioned every-replica-failed
          // synthesis; anything else here is a routing bug.
          bad_response = true;
      }
    });
  }

  // Scrape the fleet stats + per-backend status + synchronous health
  // rounds, all racing the data path and the background health loop.
  std::thread scraper([&] {
    while (!stop) {
      (void)proxy.aggregate_stats();
      (void)proxy.backend_status();
      (void)render_proxy_metrics(proxy);
      proxy.check_backends_now();
    }
  });

  // Let traffic flow both-backends for a moment, then kill one.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const uint64_t before_kill = ok_calls.load();
  a.kill();
  // Keep serving through the survivor long enough for failover +
  // health transitions to churn.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  stop = true;
  for (std::thread& t : traffic) t.join();
  scraper.join();

  EXPECT_FALSE(bad_response);
  EXPECT_GT(ok_calls.load(), before_kill)
      << "no request succeeded after the backend died";
  proxy.stop();
}

}  // namespace
}  // namespace fqbert::serve
