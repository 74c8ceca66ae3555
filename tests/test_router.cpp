// Multi-tenant model router tests: several engines served from ONE
// process must be bit-identical to dedicated single-model routers; hot
// LOAD/UNLOAD under live wire traffic must leave every lane's
// accounting balanced (admitted == completed + timed_out + failed) and
// never wedge other lanes; protocol-v1 clients must keep being served
// on the default model; and EngineRegistry::unregister must be safe
// under concurrent get/register/unregister.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "serve/loadgen.h"
#include "serve/net/transport_client.h"
#include "serve/net/transport_server.h"
#include "serve/router/model_router.h"
#include "test_util.h"

namespace fqbert::serve {
namespace {

using core::FqBertModel;
using core::FqQuantConfig;
using core::QatBert;
using nn::BertConfig;
using nn::BertModel;
using nn::Example;

/// Random-weight calibrated engine of an arbitrary tiny shape —
/// different seeds/shapes give different logits, which is exactly what
/// routing tests need to prove requests hit the right model.
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

BertConfig shape_a() {
  BertConfig c;
  c.vocab_size = 128;
  c.hidden = 16;
  c.num_layers = 2;
  c.num_heads = 2;
  c.ffn_dim = 32;
  c.max_seq_len = 32;
  c.num_classes = 2;
  return c;
}

/// Deliberately a different shape from A (vocab, width, classes, max
/// length) so cross-model routing mistakes cannot decode as valid.
BertConfig shape_b() {
  BertConfig c;
  c.vocab_size = 64;
  c.hidden = 24;
  c.num_layers = 2;
  c.num_heads = 3;
  c.ffn_dim = 48;
  c.max_seq_len = 20;
  c.num_classes = 3;
  return c;
}

struct TwoEngines {
  std::shared_ptr<const FqBertModel> a = make_engine(shape_a(), 1001);
  std::shared_ptr<const FqBertModel> b = make_engine(shape_b(), 2002);
};

TwoEngines& engines() {
  static TwoEngines e;
  return e;
}

RouterConfig fast_router_config(int workers = 2) {
  RouterConfig cfg;
  cfg.num_workers = workers;
  cfg.max_batch = 4;
  return cfg;
}

// ---------------------------------------------------------------------------
// Acceptance: one router == K dedicated routers, bit for bit.
// ---------------------------------------------------------------------------

TEST(ModelRouter, TwoModelsBitIdenticalToDedicatedServers) {
  // One process, two lanes, shared workers.
  EngineRegistry registry;
  registry.register_model("a", engines().a);
  registry.register_model("b", engines().b);
  ModelRouter router(registry, fast_router_config());
  ASSERT_TRUE(router.add_model("a"));
  ASSERT_TRUE(router.add_model("b"));
  ASSERT_TRUE(router.start());

  // Two dedicated single-lane routers, one worker each (one server
  // per model).
  EngineRegistry reg_a, reg_b;
  reg_a.register_model("a", engines().a);
  reg_b.register_model("b", engines().b);
  ModelRouter server_a(reg_a, fast_router_config(1));
  ModelRouter server_b(reg_b, fast_router_config(1));
  ASSERT_TRUE(server_a.add_model("a"));
  ASSERT_TRUE(server_b.add_model("b"));
  ASSERT_TRUE(server_a.start());
  ASSERT_TRUE(server_b.start());

  constexpr int kPerModel = 40;
  std::atomic<int> mismatches{0};
  auto drive = [&](const char* model, const BertConfig& cfg,
                   ModelRouter& dedicated, uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < kPerModel; ++i) {
      const Example ex =
          synth_example(rng, 2 + rng.randint(0, cfg.max_seq_len - 2), cfg);
      ServeResponse via_router = router.submit(model, ex).get();
      ServeResponse via_dedicated = dedicated.submit("", ex).get();
      if (via_router.status != RequestStatus::kOk ||
          via_dedicated.status != RequestStatus::kOk ||
          via_router.logits != via_dedicated.logits ||
          via_router.predicted != via_dedicated.predicted)
        mismatches.fetch_add(1);
    }
  };
  // Both models concurrently: lane isolation under interleaved batches.
  std::thread ta(drive, "a", shape_a(), std::ref(server_a), 11);
  std::thread tb(drive, "b", shape_b(), std::ref(server_b), 22);
  ta.join();
  tb.join();
  EXPECT_EQ(mismatches.load(), 0);

  server_a.shutdown();
  server_b.shutdown();
  router.shutdown();
  for (const auto& [name, lane_tier, st] : router.all_stats()) {
    EXPECT_TRUE(st.accounting_balances()) << name;
    EXPECT_EQ(st.completed, kPerModel) << name;
  }
}

// ---------------------------------------------------------------------------
// In-process routing edges.
// ---------------------------------------------------------------------------

TEST(ModelRouter, UnknownModelRejectsImmediately) {
  EngineRegistry registry;
  registry.register_model("a", engines().a);
  ModelRouter router(registry, fast_router_config());
  ASSERT_TRUE(router.add_model("a"));
  ASSERT_TRUE(router.start());

  Rng rng(5);
  AdmitResult admit;
  auto fut = router.submit("nope", synth_example(rng, 8, shape_a()),
                           std::nullopt, &admit);
  EXPECT_EQ(admit, AdmitResult::kUnknownModel);
  EXPECT_EQ(fut.get().status, RequestStatus::kRejectedUnknownModel);
  EXPECT_EQ(router.unknown_model_rejections(), 1u);

  // The empty name routes to the default model (first lane added).
  EXPECT_EQ(router.default_model(), "a");
  auto ok = router.submit("", synth_example(rng, 8, shape_a()));
  EXPECT_EQ(ok.get().status, RequestStatus::kOk);
  router.shutdown();
}

TEST(ModelRouter, PerLaneShapeValidation) {
  // A request valid for B (seq 20, 3 segments worth of ids) but not for
  // A must be judged against the lane it routes to, not some global
  // shape.
  EngineRegistry registry;
  registry.register_model("a", engines().a);
  registry.register_model("b", engines().b);
  ModelRouter router(registry, fast_router_config());
  ASSERT_TRUE(router.add_model("a"));
  ASSERT_TRUE(router.add_model("b"));
  ASSERT_TRUE(router.start());

  Example too_long_for_b;
  too_long_for_b.tokens.assign(32, 1);  // A allows 32, B caps at 20
  too_long_for_b.segments.assign(32, 0);
  EXPECT_EQ(router.submit("a", too_long_for_b).get().status,
            RequestStatus::kOk);
  EXPECT_EQ(router.submit("b", too_long_for_b).get().status,
            RequestStatus::kRejectedInvalid);
  router.shutdown();
}

TEST(ModelRouter, UnloadDrainsOnlyItsLane) {
  EngineRegistry registry;
  registry.register_model("a", engines().a);
  registry.register_model("b", engines().b);
  ModelRouter router(registry, fast_router_config(1));
  ASSERT_TRUE(router.add_model("a"));
  ASSERT_TRUE(router.add_model("b"));
  ASSERT_TRUE(router.start());

  // Park work on both lanes, then unload B: its futures must all
  // resolve (drain), while A keeps serving afterwards.
  Rng rng(7);
  std::vector<std::future<ServeResponse>> b_futures;
  for (int i = 0; i < 12; ++i)
    b_futures.push_back(
        router.submit("b", synth_example(rng, 6, shape_b())));
  ASSERT_TRUE(router.unload_model("b"));
  // A running unload DRAINS: every admitted request completes (the
  // abort path only exists for never-started/stopped routers), so kOk
  // strictly — anything else means drained work was dropped.
  for (auto& fut : b_futures)
    EXPECT_EQ(fut.get().status, RequestStatus::kOk);
  EXPECT_FALSE(router.has_model("b"));
  EXPECT_FALSE(registry.contains("b"));
  // B is gone; A is untouched.
  EXPECT_EQ(router.submit("b", synth_example(rng, 6, shape_b()))
                .get()
                .status,
            RequestStatus::kRejectedUnknownModel);
  EXPECT_EQ(router.submit("a", synth_example(rng, 8, shape_a()))
                .get()
                .status,
            RequestStatus::kOk);
  router.shutdown();
}

// ---------------------------------------------------------------------------
// Acceptance: hot LOAD/UNLOAD under live wire traffic, per-lane balance.
// ---------------------------------------------------------------------------

TEST(ModelRouterWire, HotLoadUnloadUnderLiveTraffic) {
  // Serialize C so the control plane can hot-load it from a file.
  const testing::TempFile c_file("router_model_c.bin");
  const std::string& c_path = c_file.path();
  ASSERT_TRUE(engines().b->save(c_path));

  EngineRegistry registry;
  registry.register_model("a", engines().a);
  registry.register_model("b", engines().b);
  ModelRouter router(registry, fast_router_config());
  ASSERT_TRUE(router.add_model("a"));
  ASSERT_TRUE(router.add_model("b"));
  ASSERT_TRUE(router.start());
  net::TransportConfig tcfg;
  tcfg.port = 0;
  net::TransportServer transport(router, tcfg);
  ASSERT_TRUE(transport.start());
  const uint16_t port = transport.port();

  // Live background traffic over A and B for the whole test.
  std::atomic<bool> stop{false};
  std::atomic<int> transport_failures{0};
  std::atomic<int> live_streams{0};
  auto traffic = [&](const std::string& model, const BertConfig& cfg,
                     uint64_t seed) {
    net::TransportClient client;
    if (!client.connect("127.0.0.1", port)) {
      transport_failures.fetch_add(1);
      return;
    }
    Rng rng(seed);
    for (bool served = false; !stop.load();) {
      const auto resp =
          client.call(synth_example(rng, 4 + rng.randint(0, 8), cfg),
                      std::nullopt, model);
      if (!resp || resp->status != RequestStatus::kOk) {
        transport_failures.fetch_add(1);
      } else if (!served) {
        served = true;
        live_streams.fetch_add(1);
      }
    }
  };
  std::thread ta(traffic, "a", shape_a(), 101);
  std::thread tb(traffic, "b", shape_b(), 202);
  // The churn below takes a few ms now that nothing waits on a batch
  // timer; start it only once both streams are being served.
  while (live_streams.load() < 2 && transport_failures.load() == 0)
    std::this_thread::yield();

  // Control plane on its own connection: load C, serve it, unload it —
  // several times, all under the live A/B traffic.
  net::TransportClient admin;
  ASSERT_TRUE(admin.connect("127.0.0.1", port)) << admin.error();
  Rng rng(303);
  for (int round = 0; round < 3; ++round) {
    std::string message;
    ASSERT_TRUE(admin.load_model("c", c_path, &message)) << message;
    // Double-load must fail in-band without killing the connection.
    EXPECT_FALSE(admin.load_model("c", c_path, &message));
    EXPECT_TRUE(admin.connected());

    const auto names = admin.list_models();
    ASSERT_TRUE(names.has_value()) << admin.error();
    EXPECT_EQ(names->size(), 3u);  // a, b, c

    // C must actually serve (same weights as B: spot-check equality).
    const Example ex = synth_example(rng, 6, shape_b());
    const auto via_c = admin.call(ex, std::nullopt, "c");
    ASSERT_TRUE(via_c.has_value()) << admin.error();
    ASSERT_EQ(via_c->status, RequestStatus::kOk);
    const Tensor expect = engines().b->forward(ex);
    ASSERT_EQ(static_cast<size_t>(expect.numel()), via_c->logits.size());
    for (int64_t j = 0; j < expect.numel(); ++j)
      EXPECT_EQ(expect[j], via_c->logits[static_cast<size_t>(j)]);

    // C's lane must balance before it disappears (nothing in flight on
    // it: this admin connection is its only traffic source).
    const auto c_stats = admin.query_stats("c");
    ASSERT_TRUE(c_stats.has_value()) << admin.error();
    EXPECT_TRUE(c_stats->report.accounting_balances());

    ASSERT_TRUE(admin.unload_model("c", &message)) << message;
    EXPECT_FALSE(admin.unload_model("c", &message));  // already gone
    EXPECT_TRUE(admin.connected());

    // Unloaded: rejected in-band, not a transport error.
    const auto after = admin.call(ex, std::nullopt, "c");
    ASSERT_TRUE(after.has_value()) << admin.error();
    EXPECT_EQ(after->status, RequestStatus::kRejectedUnknownModel);
  }

  stop = true;
  ta.join();
  tb.join();
  EXPECT_EQ(transport_failures.load(), 0);

  transport.stop();
  router.shutdown(/*drain=*/true);
  // Every surviving lane balances; the A/B lanes were never disturbed.
  const auto stats = router.all_stats();
  ASSERT_EQ(stats.size(), 2u);
  for (const auto& [name, lane_tier, st] : stats) {
    EXPECT_TRUE(st.accounting_balances())
        << name << ": admitted " << st.admitted << " completed "
        << st.completed << " timed_out " << st.timed_out << " failed "
        << st.failed;
    EXPECT_GT(st.completed, 0u) << name;
  }
  EXPECT_EQ(router.unknown_model_rejections(), 3u);  // one per round
}

// ---------------------------------------------------------------------------
// Acceptance: protocol-v1 clients still get served on the default model.
// ---------------------------------------------------------------------------

TEST(ModelRouterWire, V1ClientServedOnDefaultModel) {
  EngineRegistry registry;
  registry.register_model("a", engines().a);
  registry.register_model("b", engines().b);
  ModelRouter router(registry, fast_router_config());
  ASSERT_TRUE(router.add_model("a"));  // default
  ASSERT_TRUE(router.add_model("b"));
  ASSERT_TRUE(router.start());
  net::TransportConfig tcfg;
  tcfg.port = 0;
  net::TransportServer transport(router, tcfg);
  ASSERT_TRUE(transport.start());

  // A client pinned to protocol v1 emits exactly the pre-router wire
  // format: no model strings anywhere.
  net::TransportClient v1(/*protocol_version=*/1);
  ASSERT_TRUE(v1.connect("127.0.0.1", transport.port())) << v1.error();
  const auto info = v1.query_info();
  ASSERT_TRUE(info.has_value()) << v1.error();
  EXPECT_EQ(info->hidden, shape_a().hidden);
  EXPECT_EQ(info->max_seq_len, shape_a().max_seq_len);

  Rng rng(77);
  for (int i = 0; i < 10; ++i) {
    const Example ex = synth_example(rng, 5 + i, shape_a());
    const auto resp = v1.call(ex);
    ASSERT_TRUE(resp.has_value()) << v1.error();
    ASSERT_EQ(resp->status, RequestStatus::kOk);
    const Tensor expect = engines().a->forward(ex);
    ASSERT_EQ(static_cast<size_t>(expect.numel()), resp->logits.size());
    for (int64_t j = 0; j < expect.numel(); ++j)
      EXPECT_EQ(expect[j], resp->logits[static_cast<size_t>(j)]);
  }
  // v1 cannot address models or the control plane by construction.
  EXPECT_FALSE(v1.call(synth_example(rng, 5, shape_a()), std::nullopt, "b")
                   .has_value());
  EXPECT_TRUE(v1.connected());  // rejected client-side, socket untouched
  EXPECT_FALSE(v1.query_info("b").has_value());  // would silently misroute
  EXPECT_TRUE(v1.connected());
  EXPECT_FALSE(v1.list_models().has_value());

  // With the default lane unloaded, a v1 request resolves to an
  // unknown model server-side — but that status postdates v1, so the
  // wire must degrade it to a v1-era rejection instead of sending a
  // byte old decoders treat as malformed.
  ASSERT_TRUE(router.unload_model("a"));
  const auto resp = v1.call(synth_example(rng, 5, shape_a()));
  ASSERT_TRUE(resp.has_value()) << v1.error();
  EXPECT_EQ(resp->status, RequestStatus::kRejectedInvalid);

  transport.stop();
  router.shutdown();
}

TEST(ModelRouter, LoadRefusedOnceShutdown) {
  const testing::TempFile file("router_model_s.bin");
  const std::string& path = file.path();
  ASSERT_TRUE(engines().a->save(path));
  EngineRegistry registry;
  registry.register_model("a", engines().a);
  ModelRouter router(registry, fast_router_config());
  ASSERT_TRUE(router.add_model("a"));
  ASSERT_TRUE(router.start());
  router.shutdown();
  // A lane published after the shutdown snapshot would never drain and
  // would hang the worker-exit condition; it must be refused instead.
  std::string error;
  EXPECT_FALSE(router.load_model("late", path, &error));
  EXPECT_FALSE(router.has_model("late"));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Wire control plane details.
// ---------------------------------------------------------------------------

TEST(ModelRouterWire, AdminFailuresAreInBand) {
  EngineRegistry registry;
  registry.register_model("a", engines().a);
  ModelRouter router(registry, fast_router_config());
  ASSERT_TRUE(router.add_model("a"));
  ASSERT_TRUE(router.start());
  net::TransportConfig tcfg;
  tcfg.port = 0;
  net::TransportServer transport(router, tcfg);
  ASSERT_TRUE(transport.start());

  net::TransportClient admin;
  ASSERT_TRUE(admin.connect("127.0.0.1", transport.port()));
  std::string message;
  // Unloadable file: failure message travels in-band.
  EXPECT_FALSE(admin.load_model("x", "/nonexistent/engine.bin", &message));
  EXPECT_FALSE(message.empty());
  EXPECT_TRUE(admin.connected());
  EXPECT_EQ(admin.error_kind(), net::ClientError::kNone);
  // Stats/info for unknown models likewise.
  EXPECT_FALSE(admin.query_stats("ghost").has_value());
  EXPECT_TRUE(admin.connected());
  EXPECT_FALSE(admin.query_info("ghost").has_value());
  EXPECT_TRUE(admin.connected());
  // And the connection still serves admin + data requests afterwards.
  const auto names = admin.list_models();
  ASSERT_TRUE(names.has_value());
  EXPECT_EQ(names->size(), 1u);
  Rng rng(9);
  const auto resp = admin.call(synth_example(rng, 8, shape_a()));
  ASSERT_TRUE(resp.has_value()) << admin.error();
  EXPECT_EQ(resp->status, RequestStatus::kOk);

  transport.stop();
  router.shutdown();
}

TEST(ModelRouterWire, RecvTimeoutSurfacesAsTimedOut) {
  // A listener that accepts but never answers: the client's receive
  // timeout must fire with a clean kTimedOut, not block forever.
  net::TransportClient client;
  client.set_timeouts(Micros(1'000'000), Micros(150'000));

  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);

  ASSERT_TRUE(client.connect("127.0.0.1", ntohs(addr.sin_port)))
      << client.error();
  const auto t0 = Clock::now();
  EXPECT_FALSE(client.query_info().has_value());
  EXPECT_EQ(client.error_kind(), net::ClientError::kTimedOut);
  EXPECT_FALSE(client.connected());  // a half-read stream cannot resync
  const auto waited =
      std::chrono::duration_cast<Micros>(Clock::now() - t0);
  EXPECT_LT(waited.count(), 5'000'000);  // bounded, not forever
  ::close(listen_fd);
}

// ---------------------------------------------------------------------------
// Satellite: EngineRegistry::unregister + thread safety.
// ---------------------------------------------------------------------------

TEST(EngineRegistry, UnregisterRemovesOnlyTheName) {
  EngineRegistry registry;
  registry.register_model("a", engines().a);
  std::shared_ptr<const FqBertModel> held = registry.get("a");
  ASSERT_TRUE(held);
  EXPECT_TRUE(registry.unregister("a"));
  EXPECT_FALSE(registry.contains("a"));
  EXPECT_EQ(registry.get("a"), nullptr);
  EXPECT_FALSE(registry.unregister("a"));  // second time: unknown
  // Existing holders keep the engine alive and usable.
  Rng rng(3);
  const Example ex = synth_example(rng, 6, shape_a());
  EXPECT_NO_THROW({ (void)held->forward(ex); });
}

TEST(EngineRegistry, ConcurrentGetRegisterUnregister) {
  EngineRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string name = "m" + std::to_string(t % 3);
      for (int i = 0; i < kIters; ++i) {
        switch ((t + i) % 4) {
          case 0:
            registry.register_model(name,
                                    (t % 2) ? engines().a : engines().b);
            break;
          case 1:
            if (registry.get(name)) hits.fetch_add(1);
            break;
          case 2:
            registry.unregister(name);
            break;
          case 3: {
            // names()/contains()/source_path() race the writers too.
            const auto names = registry.names();
            for (const auto& n : names) (void)registry.source_path(n);
            (void)registry.contains(name);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // No crash/race (ASan/TSan-clean) and every surviving name resolves.
  for (const auto& name : registry.names())
    EXPECT_NE(registry.get(name), nullptr) << name;
}

}  // namespace
}  // namespace fqbert::serve
