// Shard proxy tests: forwarding helpers (peek / model rewrite without
// re-decoding payloads), ClientPool reuse-after-error rules, the proxy
// end-to-end (K models split across 2 backends bit-identical to one
// router holding all K, failover across a backend death with zero
// client-visible failures, v1 clients, admin LIST/STATS fan-out with
// exact-mergeable quantile sketches, trace splicing across a failover,
// health state machine down->recovered), and the TransportClient
// recv-timeout regression suite (a connection that times out mid-frame
// is condemned — never reused into reading stale bytes — and a
// trickling peer cannot stretch the whole-frame budget).
#include <gtest/gtest.h>

#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>

#include "serve/flight_recorder.h"
#include "serve/loadgen.h"
#include "serve/net/client_pool.h"
#include "serve/net/transport_client.h"
#include "serve/net/transport_server.h"
#include "serve/router/model_router.h"
#include "serve/shard/shard_proxy.h"

namespace fqbert::serve {
namespace {

using core::FqBertModel;
using core::FqQuantConfig;
using core::QatBert;
using nn::BertConfig;
using nn::BertModel;
using nn::Example;

BertConfig tiny_config() {
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

std::shared_ptr<const FqBertModel> build_engine(uint64_t seed) {
  const BertConfig config = tiny_config();
  Rng rng(seed);
  BertModel model(config, rng);
  QatBert qat(model, FqQuantConfig::full());
  std::vector<Example> calib;
  Rng data_rng(seed * 31 + 7);
  for (int i = 0; i < 12; ++i)
    calib.push_back(synth_example(data_rng, 4 + (i % 3) * 6, config));
  qat.calibrate(calib);
  return std::make_shared<const FqBertModel>(FqBertModel::convert(qat));
}

/// Three distinct-weight engines shared by every test (built once).
struct Engines {
  BertConfig config = tiny_config();
  std::shared_ptr<const FqBertModel> e0 = build_engine(42);
  std::shared_ptr<const FqBertModel> e1 = build_engine(43);
  std::shared_ptr<const FqBertModel> e2 = build_engine(44);
};

Engines& engines() {
  static Engines e;
  return e;
}

using NamedEngine =
    std::pair<std::string, std::shared_ptr<const FqBertModel>>;

/// One in-process "backend host": ModelRouter + TransportServer on an
/// ephemeral (or explicitly reused) loopback port.
struct BackendHost {
  EngineRegistry registry;
  std::unique_ptr<ModelRouter> router;
  std::unique_ptr<net::TransportServer> transport;
  bool stopped = false;

  explicit BackendHost(const std::vector<NamedEngine>& models,
                       uint16_t fixed_port = 0) {
    RouterConfig rcfg;
    rcfg.num_workers = 1;
    rcfg.max_batch = 4;
    router = std::make_unique<ModelRouter>(registry, rcfg);
    for (const auto& [name, engine] : models) {
      registry.register_model(name, engine);
      EXPECT_TRUE(router->add_model(name));
    }
    EXPECT_TRUE(router->start());
    net::TransportConfig tcfg;
    tcfg.port = fixed_port;
    transport = std::make_unique<net::TransportServer>(*router, tcfg);
    EXPECT_TRUE(transport->start());
  }

  uint16_t port() const { return transport->port(); }

  /// Simulate the host dying: transport torn down, router drained.
  void kill() {
    if (stopped) return;
    transport->stop();
    router->shutdown(/*drain=*/true);
    stopped = true;
  }

  ~BackendHost() { kill(); }
};

shard::ShardProxyConfig fast_proxy_config() {
  shard::ShardProxyConfig cfg;
  cfg.connect_timeout = Micros(500'000);
  cfg.call_timeout = Micros(5'000'000);
  cfg.health_interval = Micros(50'000);
  cfg.health_timeout = Micros(500'000);
  cfg.suspect_after = 1;
  cfg.down_after = 2;
  cfg.recover_after = 2;
  return cfg;
}

/// Raw single-connection server whose behavior is scripted by the test
/// (stalls, trickles) — things a real TransportServer never does.
struct StallServer {
  int listen_fd = -1;
  uint16_t port = 0;
  std::thread thread;

  explicit StallServer(std::function<void(int)> session) {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd, 0);
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd, 4), 0);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
    port = ntohs(bound.sin_port);
    thread = std::thread([this, session = std::move(session)] {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd >= 0) {
        session(fd);
        ::close(fd);
      }
    });
  }

  ~StallServer() {
    ::close(listen_fd);
    if (thread.joinable()) thread.join();
  }
};

std::vector<uint8_t> ok_response_frame(uint64_t correlation,
                                       size_t num_logits) {
  net::WireResponse resp;
  resp.correlation_id = correlation;
  resp.response.status = RequestStatus::kOk;
  resp.response.predicted = 1;
  resp.response.logits.assign(num_logits, 0.5f);
  std::vector<uint8_t> out;
  net::encode_serve_response(resp, out);
  return out;
}

void expect_bit_identical(const ServeResponse& local,
                          const std::optional<ServeResponse>& remote,
                          int* mismatches) {
  if (!remote || remote->status != RequestStatus::kOk ||
      local.status != RequestStatus::kOk ||
      local.logits.size() != remote->logits.size() ||
      local.predicted != remote->predicted) {
    ++*mismatches;
    return;
  }
  for (size_t i = 0; i < local.logits.size(); ++i)
    if (local.logits[i] != remote->logits[i]) ++*mismatches;
}

// ---------------------------------------------------------------------------
// Forwarding helpers: peek / rewrite without re-decoding token arrays
// ---------------------------------------------------------------------------

TEST(FrameForwarding, PeekReadsRoutingFieldsAndValidatesCounts) {
  net::WireRequest req;
  req.correlation_id = 0xFEEDFACEull;
  req.deadline_budget_us = 1234;
  req.model = "m1";
  req.trace_id = 0xABCDull;
  Rng rng(3);
  req.example = synth_example(rng, 11, engines().config);
  std::vector<uint8_t> frame;
  net::encode_serve_request(req, frame);

  uint64_t corr = 0;
  uint64_t trace = 0;
  uint8_t tier = 0;
  std::string model;
  ASSERT_TRUE(net::peek_serve_request(frame.data() + net::kHeaderSize,
                                      frame.size() - net::kHeaderSize,
                                      net::kProtocolVersion, &corr, &trace,
                                      &tier, &model));
  EXPECT_EQ(corr, req.correlation_id);
  EXPECT_EQ(trace, req.trace_id);
  EXPECT_EQ(tier, req.tier);
  EXPECT_EQ(model, "m1");

  // A lying token count must fail the peek (offset 25 + 2 + 2 = 29 for
  // a 2-byte model string in a v4 payload: u64 corr + i64 deadline +
  // u64 trace + u8 tier + u16 len + "m1").
  std::vector<uint8_t> lying = frame;
  lying[net::kHeaderSize + 29] += 1;
  EXPECT_FALSE(net::peek_serve_request(lying.data() + net::kHeaderSize,
                                       lying.size() - net::kHeaderSize,
                                       net::kProtocolVersion, &corr, &trace,
                                       &tier, &model));
}

TEST(FrameForwarding, RewritePreservesExampleBytesAndUpgradesV1) {
  Rng rng(4);
  net::WireRequest req;
  req.correlation_id = 99;
  req.deadline_budget_us = 777;
  req.example = synth_example(rng, 9, engines().config);

  for (const uint8_t version : {uint8_t{1}, uint8_t{2}}) {
    std::vector<uint8_t> frame;
    net::encode_serve_request(req, frame, version);
    std::vector<uint8_t> rewritten;
    ASSERT_TRUE(net::rewrite_serve_request_model(
        frame.data(), frame.size(), "routed", /*trace_id=*/0x1234,
        &rewritten));
    net::FrameHeader hdr;
    ASSERT_EQ(net::decode_header(rewritten.data(), rewritten.size(), &hdr),
              net::DecodeStatus::kFrame);
    EXPECT_EQ(hdr.version, 4);  // v1/v2 inputs upgraded
    net::WireRequest back;
    ASSERT_TRUE(net::decode_serve_request(
        rewritten.data() + net::kHeaderSize, hdr.payload_len, hdr.version,
        &back));
    EXPECT_EQ(back.model, "routed");
    EXPECT_EQ(back.correlation_id, req.correlation_id);
    EXPECT_EQ(back.deadline_budget_us, req.deadline_budget_us);
    // Pre-v3 frames have no trace field: the proxy-minted id is stamped.
    EXPECT_EQ(back.trace_id, 0x1234u);
    EXPECT_EQ(back.example.tokens, req.example.tokens);
    EXPECT_EQ(back.example.segments, req.example.segments);
  }

  // A v3 frame that already carries a client trace id keeps it: the
  // rewrite only fills the field when the client left it zero.
  {
    req.trace_id = 0xBEEFull;
    std::vector<uint8_t> frame;
    net::encode_serve_request(req, frame);
    std::vector<uint8_t> rewritten;
    ASSERT_TRUE(net::rewrite_serve_request_model(
        frame.data(), frame.size(), "routed", /*trace_id=*/0x1234,
        &rewritten));
    net::FrameHeader hdr;
    ASSERT_EQ(net::decode_header(rewritten.data(), rewritten.size(), &hdr),
              net::DecodeStatus::kFrame);
    net::WireRequest back;
    ASSERT_TRUE(net::decode_serve_request(
        rewritten.data() + net::kHeaderSize, hdr.payload_len, hdr.version,
        &back));
    EXPECT_EQ(back.trace_id, 0xBEEFull);
    EXPECT_EQ(back.model, "routed");
    req.trace_id = 0;
  }

  // Non-serve frames are refused.
  std::vector<uint8_t> info;
  net::encode_info_request("", info);
  std::vector<uint8_t> out;
  EXPECT_FALSE(net::rewrite_serve_request_model(info.data(), info.size(),
                                                "routed", /*trace_id=*/1,
                                                &out));
}

// ---------------------------------------------------------------------------
// ClientPool reuse rules
// ---------------------------------------------------------------------------

TEST(ClientPoolRules, ReusesAlignedConnectionsDiscardsBrokenOnes) {
  BackendHost host({{"m0", engines().e0}});
  net::ClientPoolConfig cfg;
  cfg.capacity = 2;
  cfg.recv_timeout = Micros(5'000'000);
  net::ClientPool pool("127.0.0.1", host.port(), cfg);
  Rng rng(9);
  const Example ex = synth_example(rng, 8, engines().config);

  {
    net::ClientPool::Handle h = pool.checkout();
    ASSERT_TRUE(bool(h));
    const auto resp = h->call(ex, std::nullopt, "m0");
    ASSERT_TRUE(resp.has_value()) << h->error();
    EXPECT_EQ(resp->status, RequestStatus::kOk);
  }  // aligned -> pooled
  net::ClientPool::Stats s = pool.stats();
  EXPECT_EQ(s.created, 1u);
  EXPECT_EQ(s.pooled, 1u);
  EXPECT_EQ(s.idle, 1u);

  {
    net::ClientPool::Handle h = pool.checkout();
    ASSERT_TRUE(bool(h));
    // An in-band admin failure consumes its whole frame: the stream is
    // still aligned, so the connection stays reusable.
    EXPECT_FALSE(h->query_stats("no-such-model").has_value());
    EXPECT_EQ(h->error_kind(), net::ClientError::kNone);
    EXPECT_TRUE(h->connected());
  }
  s = pool.stats();
  EXPECT_EQ(s.reused, 1u);
  EXPECT_EQ(s.pooled, 2u);
  EXPECT_EQ(s.idle, 1u);

  {
    net::ClientPool::Handle h = pool.checkout();
    ASSERT_TRUE(bool(h));
    h->close();  // transport gone: must never be pooled again
  }
  s = pool.stats();
  EXPECT_EQ(s.discarded, 1u);
  EXPECT_EQ(s.idle, 0u);

  // Returns beyond capacity are dropped, not hoarded.
  {
    net::ClientPool::Handle a = pool.checkout();
    net::ClientPool::Handle b = pool.checkout();
    net::ClientPool::Handle c = pool.checkout();
    ASSERT_TRUE(bool(a) && bool(b) && bool(c));
  }
  s = pool.stats();
  EXPECT_LE(s.idle, 2u);
  EXPECT_GE(s.discarded, 2u);
}

// ---------------------------------------------------------------------------
// Proxy end-to-end
// ---------------------------------------------------------------------------

TEST(ShardProxy, BitIdenticalToSingleRouterAcrossBackends) {
  Engines& fx = engines();
  BackendHost a({{"m0", fx.e0}, {"m1", fx.e1}});
  BackendHost b({{"m1", fx.e1}, {"m2", fx.e2}});

  // Reference: ONE router holding all three models in-process.
  EngineRegistry ref_registry;
  ref_registry.register_model("m0", fx.e0);
  ref_registry.register_model("m1", fx.e1);
  ref_registry.register_model("m2", fx.e2);
  RouterConfig rcfg;
  rcfg.num_workers = 1;
  ModelRouter reference(ref_registry, rcfg);
  ASSERT_TRUE(reference.add_model("m0"));
  ASSERT_TRUE(reference.add_model("m1"));
  ASSERT_TRUE(reference.add_model("m2"));
  ASSERT_TRUE(reference.start());

  shard::ShardProxy proxy(fast_proxy_config());
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", a.port(), {"m0", "m1"}));
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", b.port(), {"m1", "m2"}));
  ASSERT_TRUE(proxy.start());
  EXPECT_EQ(proxy.default_model(), "m0");
  EXPECT_EQ(proxy.model_names(),
            (std::vector<std::string>{"m0", "m1", "m2"}));

  constexpr int kClients = 2, kPerClient = 30;
  const char* models[3] = {"m0", "m1", "m2"};
  std::vector<int> mismatches(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::TransportClient client;
      if (!client.connect("127.0.0.1", proxy.port())) {
        mismatches[static_cast<size_t>(c)] = kPerClient;
        return;
      }
      Rng rng(900 + c);
      for (int i = 0; i < kPerClient; ++i) {
        const std::string model = models[(c + i) % 3];
        const Example ex =
            synth_example(rng, 2 + rng.randint(0, 30), engines().config);
        const auto remote = client.call(ex, std::nullopt, model);
        const ServeResponse local = reference.submit(model, ex).get();
        expect_bit_identical(local, remote,
                             &mismatches[static_cast<size_t>(c)]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(mismatches[c], 0);

  const shard::ShardProxy::Counters counters = proxy.counters();
  EXPECT_EQ(counters.served, kClients * kPerClient);
  EXPECT_EQ(counters.exhausted, 0u);
  EXPECT_EQ(counters.unknown_model, 0u);
  EXPECT_EQ(counters.protocol_errors, 0u);

  proxy.stop();
  reference.shutdown(/*drain=*/true);
}

TEST(ShardProxy, FailoverOnBackendDeathZeroClientVisibleFailures) {
  Engines& fx = engines();
  BackendHost a({{"m0", fx.e0}, {"shared", fx.e1}});
  BackendHost b({{"shared", fx.e1}});

  shard::ShardProxy proxy(fast_proxy_config());
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", a.port(), {"m0", "shared"}));
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", b.port(), {"shared"}));
  ASSERT_TRUE(proxy.start());

  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", proxy.port())) << client.error();
  Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    if (i == 15) a.kill();  // primary replica dies mid-load
    const Example ex = synth_example(rng, 8, fx.config);
    const auto resp = client.call(ex, std::nullopt, "shared");
    ASSERT_TRUE(resp.has_value()) << "request " << i << ": "
                                  << client.error();
    EXPECT_EQ(resp->status, RequestStatus::kOk) << "request " << i;
  }
  const shard::ShardProxy::Counters counters = proxy.counters();
  EXPECT_EQ(counters.served, 40u);
  EXPECT_EQ(counters.exhausted, 0u);
  EXPECT_GE(counters.failovers, 1u);  // the death was absorbed, observed

  // A model whose ONLY replica died still gets a terminal response —
  // synthesized kEngineError — never a hang or a dropped connection.
  const auto orphan =
      client.call(synth_example(rng, 8, fx.config), std::nullopt, "m0");
  ASSERT_TRUE(orphan.has_value()) << client.error();
  EXPECT_EQ(orphan->status, RequestStatus::kEngineError);
  EXPECT_GE(proxy.counters().exhausted, 1u);

  // The dead backend's state machine reflects the failures.
  const auto status = proxy.backend_status();
  ASSERT_EQ(status.size(), 2u);
  EXPECT_NE(status[0].state, shard::BackendState::kHealthy);
  EXPECT_GE(status[0].forward_failures, 1u);
  EXPECT_GE(status[1].forwarded, 1u);
}

TEST(ShardProxy, UnknownModelRejectedInBandConnectionStaysUsable) {
  Engines& fx = engines();
  BackendHost a({{"m0", fx.e0}});
  shard::ShardProxy proxy(fast_proxy_config());
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", a.port(), {"m0"}));
  ASSERT_TRUE(proxy.start());

  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", proxy.port()));
  Rng rng(21);
  const Example ex = synth_example(rng, 8, fx.config);
  const auto bad = client.call(ex, std::nullopt, "nope");
  ASSERT_TRUE(bad.has_value()) << client.error();
  EXPECT_EQ(bad->status, RequestStatus::kRejectedUnknownModel);
  EXPECT_EQ(proxy.counters().unknown_model, 1u);

  const auto good = client.call(ex, std::nullopt, "m0");
  ASSERT_TRUE(good.has_value()) << client.error();
  EXPECT_EQ(good->status, RequestStatus::kOk);
}

TEST(ShardProxy, V1ClientServedOnDefaultModelBitIdentically) {
  Engines& fx = engines();
  BackendHost a({{"m0", fx.e0}});
  BackendHost b({{"m0", fx.e0}});  // replica
  shard::ShardProxy proxy(fast_proxy_config());
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", a.port(), {"m0"}));
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", b.port(), {"m0"}));
  ASSERT_TRUE(proxy.start());

  net::TransportClient v1(/*protocol_version=*/1);
  ASSERT_TRUE(v1.connect("127.0.0.1", proxy.port())) << v1.error();
  const auto info = v1.query_info();
  ASSERT_TRUE(info.has_value()) << v1.error();
  EXPECT_EQ(info->hidden, fx.config.hidden);
  EXPECT_EQ(info->max_seq_len, fx.config.max_seq_len);

  Rng rng(33);
  for (int i = 0; i < 5; ++i) {
    const Example ex = synth_example(rng, 6 + i, fx.config);
    const auto resp = v1.call(ex);
    ASSERT_TRUE(resp.has_value()) << v1.error();
    ASSERT_EQ(resp->status, RequestStatus::kOk);
    const Tensor expect = fx.e0->forward(ex);
    ASSERT_EQ(static_cast<size_t>(expect.numel()), resp->logits.size());
    for (int64_t j = 0; j < expect.numel(); ++j)
      EXPECT_EQ(expect[j], resp->logits[static_cast<size_t>(j)]);
  }
}

TEST(ShardProxy, AdminFanOutListStatsAndRefusedLoad) {
  Engines& fx = engines();
  BackendHost a({{"m0", fx.e0}, {"m1", fx.e1}});
  BackendHost b({{"m1", fx.e1}, {"m2", fx.e2}});
  shard::ShardProxy proxy(fast_proxy_config());
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", a.port(), {"m0", "m1"}));
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", b.port(), {"m1", "m2"}));
  ASSERT_TRUE(proxy.start());

  // Put traffic on m1 on BOTH backends directly, so the fan-out has
  // something non-trivial to aggregate.
  Rng rng(55);
  for (const uint16_t port : {a.port(), b.port()}) {
    net::TransportClient direct;
    ASSERT_TRUE(direct.connect("127.0.0.1", port));
    for (int i = 0; i < 3; ++i) {
      const auto resp = direct.call(synth_example(rng, 8, fx.config),
                                    std::nullopt, "m1");
      ASSERT_TRUE(resp.has_value() && resp->status == RequestStatus::kOk);
    }
  }

  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", proxy.port()));

  // LIST fans out and returns the union of backend model sets.
  const auto list = client.list_models();
  ASSERT_TRUE(list.has_value()) << client.error();
  EXPECT_EQ(*list, (std::vector<std::string>{"m0", "m1", "m2"}));

  // STATS fans out to m1's replicas and sums their counters.
  const auto stats = client.query_stats("m1");
  ASSERT_TRUE(stats.has_value()) << client.error();
  const uint64_t truth_admitted = a.router->stats_report("m1")->admitted +
                                  b.router->stats_report("m1")->admitted;
  EXPECT_EQ(stats->model, "m1");
  EXPECT_EQ(stats->report.admitted, truth_admitted);
  EXPECT_EQ(stats->report.admitted, 6u);
  EXPECT_TRUE(stats->report.accounting_balances());

  // LOAD/UNLOAD are refused in-band; the connection stays usable.
  std::string message;
  EXPECT_FALSE(client.load_model("x", "/tmp/nope.bin", &message));
  EXPECT_NE(message.find("not routed"), std::string::npos) << message;
  EXPECT_EQ(client.error_kind(), net::ClientError::kNone);
  EXPECT_FALSE(client.unload_model("m1", &message));
  EXPECT_TRUE(client.connected());

  // STATS for a name outside the placement table fails in-band.
  EXPECT_FALSE(client.query_stats("zzz").has_value());
  EXPECT_EQ(client.error_kind(), net::ClientError::kNone);
  EXPECT_TRUE(client.list_models().has_value());  // still usable
}

TEST(ShardProxy, StatsFanOutQuantilesExactlyMergeBackendSketches) {
  Engines& fx = engines();
  BackendHost a({{"m0", fx.e0}, {"m1", fx.e1}});
  BackendHost b({{"m1", fx.e1}, {"m2", fx.e2}});
  shard::ShardProxy proxy(fast_proxy_config());
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", a.port(), {"m0", "m1"}));
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", b.port(), {"m1", "m2"}));
  ASSERT_TRUE(proxy.start());

  // Traffic on every model through the proxy, plus direct traffic on
  // m1's replicas so its two shards hold genuinely different samples.
  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", proxy.port()));
  Rng rng(83);
  const char* models[3] = {"m0", "m1", "m2"};
  for (int i = 0; i < 45; ++i) {
    const auto resp = client.call(
        synth_example(rng, 2 + rng.randint(0, 30), fx.config), std::nullopt,
        models[i % 3]);
    ASSERT_TRUE(resp.has_value()) << client.error();
    ASSERT_EQ(resp->status, RequestStatus::kOk);
  }
  for (const uint16_t port : {a.port(), b.port()}) {
    net::TransportClient direct;
    ASSERT_TRUE(direct.connect("127.0.0.1", port));
    for (int i = 0; i < 5; ++i) {
      const auto resp = direct.call(synth_example(rng, 8, fx.config),
                                    std::nullopt, "m1");
      ASSERT_TRUE(resp.has_value() && resp->status == RequestStatus::kOk);
    }
  }

  // For each model: merge the per-backend sketches locally (ground
  // truth read straight off the routers) and demand the proxy's
  // fanned-out aggregate match bit-for-bit — merge of sketches must
  // equal the sketch of the pooled samples, including over the wire.
  for (const char* model : models) {
    QuantileSketch merged;
    uint64_t admitted = 0, samples = 0;
    for (BackendHost* host : {&a, &b}) {
      const auto part = host->router->stats_report(model);
      if (!part.has_value()) continue;
      merged.merge(part->latency_sketch);
      admitted += part->admitted;
      samples += part->latency_samples;
    }
    ASSERT_GT(samples, 0u) << model;

    const auto agg = client.query_stats(model);
    ASSERT_TRUE(agg.has_value()) << model << ": " << client.error();
    EXPECT_EQ(agg->report.admitted, admitted);
    EXPECT_EQ(agg->report.latency_samples, samples);
    EXPECT_TRUE(agg->report.accounting_balances());
    EXPECT_TRUE(agg->report.latency_sketch == merged) << model;
    EXPECT_EQ(agg->report.p50_ms, merged.quantile_ms(0.50)) << model;
    EXPECT_EQ(agg->report.p95_ms, merged.quantile_ms(0.95)) << model;
    EXPECT_EQ(agg->report.p99_ms, merged.quantile_ms(0.99)) << model;
    EXPECT_EQ(agg->report.p999_ms, merged.quantile_ms(0.999)) << model;
    EXPECT_EQ(agg->report.max_ms, merged.quantile_ms(1.0)) << model;
  }
}

TEST(ShardProxy, TraceSurvivesFailoverWithMonotonicStages) {
  Engines& fx = engines();
  BackendHost a({{"shared", fx.e1}});
  BackendHost b({{"shared", fx.e1}});

  shard::ShardProxyConfig cfg = fast_proxy_config();
  cfg.health_interval = Micros(3'600'000'000);  // no background repair:
  // the dead backend stays eligible, so the forward attempt on it
  // deterministically fails over inside the traced request.
  shard::ShardProxy proxy(cfg);
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", a.port(), {"shared"}));
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", b.port(), {"shared"}));
  ASSERT_TRUE(proxy.start());

  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", proxy.port()));
  Rng rng(91);

  // Healthy path first: the proxy splices its own stages around the
  // backend's, one id end-to-end.
  const uint64_t warm_id = mint_trace_id();
  const auto warm = client.call(synth_example(rng, 8, fx.config),
                                std::nullopt, "shared", warm_id);
  ASSERT_TRUE(warm.has_value()) << client.error();
  ASSERT_EQ(warm->status, RequestStatus::kOk);
  EXPECT_EQ(warm->trace_id, warm_id);
  ASSERT_GE(warm->trace.size(), 6u);
  EXPECT_EQ(warm->trace.front().stage, TraceStage::kProxyReceived);
  EXPECT_EQ(warm->trace.front().t_us, 0);
  EXPECT_EQ(warm->trace.back().stage, TraceStage::kProxyResponse);

  // Kill every backend the proxy might try first, then trace through
  // the failover. Up to a handful of attempts in case the rotation
  // starts on the surviving replica.
  a.kill();
  bool saw_retry = false;
  for (int i = 0; i < 6 && !saw_retry; ++i) {
    const uint64_t tid = mint_trace_id();
    const TimePoint sent_at = Clock::now();
    const auto resp = client.call(synth_example(rng, 8, fx.config),
                                  std::nullopt, "shared", tid);
    const int64_t wall_us =
        std::chrono::duration_cast<Micros>(Clock::now() - sent_at).count();
    ASSERT_TRUE(resp.has_value()) << client.error();
    ASSERT_EQ(resp->status, RequestStatus::kOk);
    EXPECT_EQ(resp->trace_id, tid);
    ASSERT_FALSE(resp->trace.empty());

    int64_t prev = 0;
    int admissions = 0, forwards = 0;
    for (const TraceEvent& ev : resp->trace) {
      EXPECT_GE(ev.t_us, prev);  // one monotonic spliced timeline
      prev = ev.t_us;
      if (ev.stage == TraceStage::kAdmitted) ++admissions;
      if (ev.stage == TraceStage::kProxyForward ||
          ev.stage == TraceStage::kProxyRetry)
        ++forwards;
      if (ev.stage == TraceStage::kProxyRetry) saw_retry = true;
    }
    EXPECT_LE(prev, wall_us);  // stages fit the client-observed wall
    EXPECT_EQ(resp->trace.front().stage, TraceStage::kProxyReceived);
    EXPECT_EQ(resp->trace.back().stage, TraceStage::kProxyResponse);
    // Only the SUCCESSFUL attempt's backend stages are spliced in.
    EXPECT_EQ(admissions, 1);
    EXPECT_GE(forwards, 1);
  }
  EXPECT_TRUE(saw_retry) << "no traced request observed the failover";
  EXPECT_GE(proxy.counters().failovers, 1u);
}

TEST(ShardProxy, HealthStateMachineMarksDownAndRecovers) {
  Engines& fx = engines();
  auto host = std::make_unique<BackendHost>(
      std::vector<NamedEngine>{{"m0", fx.e0}});
  const uint16_t backend_port = host->port();

  shard::ShardProxyConfig cfg = fast_proxy_config();
  cfg.health_interval = Micros(3'600'000'000);  // driven manually below
  cfg.health_timeout = Micros(300'000);
  cfg.connect_timeout = Micros(300'000);
  shard::ShardProxy proxy(cfg);
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", backend_port, {"m0"}));
  ASSERT_TRUE(proxy.start());

  proxy.check_backends_now();
  auto status = proxy.backend_status();
  EXPECT_EQ(status[0].state, shard::BackendState::kHealthy);
  EXPECT_GE(status[0].health_ok, 1u);

  host->kill();
  host.reset();
  proxy.check_backends_now();  // failure 1 -> suspect (suspect_after=1)
  EXPECT_EQ(proxy.backend_status()[0].state, shard::BackendState::kSuspect);
  proxy.check_backends_now();  // failure 2 -> down (down_after=2)
  EXPECT_EQ(proxy.backend_status()[0].state, shard::BackendState::kDown);

  // While down, a serve request still gets a terminal response (the
  // down backend is tried as a last resort, fails, synthesized error).
  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", proxy.port()));
  Rng rng(61);
  const auto down_resp =
      client.call(synth_example(rng, 8, fx.config), std::nullopt, "m0");
  ASSERT_TRUE(down_resp.has_value()) << client.error();
  EXPECT_EQ(down_resp->status, RequestStatus::kEngineError);

  // Backend returns on the SAME port: recover_after successes flip it
  // back to healthy and count a recovery.
  host = std::make_unique<BackendHost>(
      std::vector<NamedEngine>{{"m0", fx.e0}}, backend_port);
  ASSERT_EQ(host->port(), backend_port);
  proxy.check_backends_now();
  proxy.check_backends_now();
  status = proxy.backend_status();
  EXPECT_EQ(status[0].state, shard::BackendState::kHealthy);
  EXPECT_GE(status[0].recoveries, 1u);
  EXPECT_GE(proxy.counters().health_transitions, 3u);

  const auto resp =
      client.call(synth_example(rng, 8, fx.config), std::nullopt, "m0");
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_EQ(resp->status, RequestStatus::kOk);

  proxy.stop();
}

TEST(ShardProxy, StaleParkedConnectionsNeverFailRequestsOrHealth) {
  Engines& fx = engines();
  auto host = std::make_unique<BackendHost>(
      std::vector<NamedEngine>{{"m0", fx.e0}});
  const uint16_t backend_port = host->port();

  shard::ShardProxyConfig cfg = fast_proxy_config();
  cfg.health_interval = Micros(3'600'000'000);  // no background repair
  shard::ShardProxy proxy(cfg);
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", backend_port, {"m0"}));
  ASSERT_TRUE(proxy.start());

  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", proxy.port()));
  Rng rng(71);
  const Example ex = synth_example(rng, 8, fx.config);
  const auto warm = client.call(ex, std::nullopt, "m0");
  ASSERT_TRUE(warm.has_value() && warm->status == RequestStatus::kOk);

  // Restart the backend on the same port: the connection parked in the
  // proxy's pool is now dead, but that says nothing about the backend.
  host->kill();
  host = std::make_unique<BackendHost>(
      std::vector<NamedEngine>{{"m0", fx.e0}}, backend_port);
  ASSERT_EQ(host->port(), backend_port);

  // The stale lease must be discarded and retried on a fresh dial —
  // no synthesized failure, no forward_failures, no health downgrade.
  const auto resp = client.call(ex, std::nullopt, "m0");
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_EQ(resp->status, RequestStatus::kOk);
  EXPECT_EQ(proxy.counters().exhausted, 0u);
  EXPECT_EQ(proxy.counters().failovers, 0u);
  const auto status = proxy.backend_status();
  EXPECT_EQ(status[0].forward_failures, 0u);
  EXPECT_EQ(status[0].state, shard::BackendState::kHealthy);
}

TEST(ShardProxy, LoadgenDrivesTheProxyUnchanged) {
  Engines& fx = engines();
  BackendHost a({{"m0", fx.e0}, {"m1", fx.e1}});
  BackendHost b({{"m1", fx.e1}});
  shard::ShardProxy proxy(fast_proxy_config());
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", a.port(), {"m0", "m1"}));
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", b.port(), {"m1"}));
  ASSERT_TRUE(proxy.start());

  LoadgenConfig lcfg;
  lcfg.num_clients = 3;
  lcfg.requests_per_client = 30;
  const std::vector<RemoteModelTarget> targets = {{"m0", fx.config},
                                                  {"m1", fx.config}};
  const LoadgenReport lg =
      run_loadgen_remote("127.0.0.1", proxy.port(), targets, lcfg);
  EXPECT_EQ(lg.sent, 90u);
  EXPECT_EQ(lg.ok, 90u);
  EXPECT_EQ(lg.failed, 0u);
  EXPECT_EQ(lg.rejected, 0u);
}

TEST(ShardProxy, RejectsBadPlacementDeclarations) {
  shard::ShardProxy proxy;
  std::string error;
  EXPECT_TRUE(proxy.add_backend("127.0.0.1", 19001, {"m0"}, &error));
  EXPECT_FALSE(proxy.add_backend("127.0.0.1", 19001, {"m1"}, &error));
  EXPECT_NE(error.find("twice"), std::string::npos);
  EXPECT_FALSE(proxy.add_backend("127.0.0.1", 19002, {}, &error));
  EXPECT_FALSE(proxy.add_backend("127.0.0.1", 19003, {"a", "a"}, &error));
  EXPECT_NE(error.find("repeated"), std::string::npos);
  EXPECT_FALSE(proxy.add_backend("127.0.0.1", 19004, {""}, &error));
}

// ---------------------------------------------------------------------------
// Dynamic placement control plane: live membership over the wire,
// zero-drop migration under traffic, fan-out resilience, connection
// retirement, and the plain-backend refusal of proxy-admin frames.
// ---------------------------------------------------------------------------

std::string addr_of(const BackendHost& host) {
  return "127.0.0.1:" + std::to_string(host.port());
}

size_t open_fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  size_t n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

TEST(DynamicPlacement, WireAddBackendRoutesNewModelLive) {
  Engines& fx = engines();
  BackendHost a({{"m0", fx.e0}});
  BackendHost b({{"m1", fx.e1}});
  shard::ShardProxy proxy(fast_proxy_config());
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", a.port(), {"m0"}));
  ASSERT_TRUE(proxy.start());

  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", proxy.port())) << client.error();
  Rng rng(101);
  const Example ex = synth_example(rng, 8, fx.config);

  // Before the join the model is unknown — in-band rejection.
  const auto before = client.call(ex, std::nullopt, "m1");
  ASSERT_TRUE(before.has_value()) << client.error();
  EXPECT_EQ(before->status, RequestStatus::kRejectedUnknownModel);

  const auto p0 = client.get_placement();
  ASSERT_TRUE(p0.has_value()) << client.error();
  EXPECT_EQ(p0->epoch, proxy.placement_epoch());
  ASSERT_EQ(p0->backends.size(), 1u);

  std::string message;
  ASSERT_TRUE(client.add_backend("127.0.0.1", b.port(), {{"m1", 0}},
                                 &message))
      << message;
  EXPECT_NE(message.find("added at epoch"), std::string::npos) << message;

  // The SAME client connection routes the new model immediately — no
  // proxy restart, no reconnect.
  const auto after = client.call(ex, std::nullopt, "m1");
  ASSERT_TRUE(after.has_value()) << client.error();
  EXPECT_EQ(after->status, RequestStatus::kOk);

  const auto p1 = client.get_placement();
  ASSERT_TRUE(p1.has_value()) << client.error();
  EXPECT_EQ(p1->epoch, p0->epoch + 1);
  ASSERT_EQ(p1->backends.size(), 2u);
  EXPECT_EQ(p1->backends[1].address, addr_of(b));
  ASSERT_EQ(p1->backends[1].models.size(), 1u);
  EXPECT_EQ(p1->backends[1].models[0].name, "m1");

  // Both failure shapes come back in-band; the connection stays usable.
  EXPECT_FALSE(client.add_backend("127.0.0.1", b.port(), {{"m1", 0}},
                                  &message));
  EXPECT_NE(message.find("already a member"), std::string::npos) << message;
  EXPECT_EQ(client.error_kind(), net::ClientError::kNone);
  EXPECT_FALSE(client.add_backend("127.0.0.1", 1, {{"mx", 0}}, &message));
  EXPECT_NE(message.find("unreachable"), std::string::npos) << message;
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(proxy.placement_epoch(), p1->epoch)
      << "failed admin ops must not burn epochs";
}

TEST(DynamicPlacement, WireRemoveBackendDrainsRetiresAndGuardsLastReplica) {
  Engines& fx = engines();
  BackendHost a({{"m0", fx.e0}, {"shared", fx.e1}});
  BackendHost b({{"shared", fx.e1}});
  shard::ShardProxy proxy(fast_proxy_config());
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", a.port(), {"m0", "shared"}));
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", b.port(), {"shared"}));
  ASSERT_TRUE(proxy.start());

  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", proxy.port()));
  Rng rng(103);
  for (int i = 0; i < 6; ++i) {
    const auto resp = client.call(synth_example(rng, 8, fx.config),
                                  std::nullopt, "shared");
    ASSERT_TRUE(resp.has_value() && resp->status == RequestStatus::kOk);
  }

  std::string message;
  // a is the only holder of m0: removing it would strand the model.
  EXPECT_FALSE(client.remove_backend(addr_of(a), &message));
  EXPECT_NE(message.find("last replica"), std::string::npos) << message;
  EXPECT_FALSE(client.remove_backend("10.9.9.9:1", &message));
  EXPECT_NE(message.find("not a member"), std::string::npos) << message;

  ASSERT_TRUE(client.remove_backend(addr_of(b), &message)) << message;
  EXPECT_NE(message.find("drained and removed"), std::string::npos)
      << message;

  const auto status = proxy.backend_status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].address, addr_of(a));

  // Traffic keeps flowing on the surviving replica.
  for (int i = 0; i < 6; ++i) {
    const auto resp = client.call(synth_example(rng, 8, fx.config),
                                  std::nullopt, "shared");
    ASSERT_TRUE(resp.has_value()) << client.error();
    EXPECT_EQ(resp->status, RequestStatus::kOk);
  }
}

// The tentpole acceptance: a model migrates between backends while
// clients hammer it, and not one request fails. A request that
// resolved placement just before the epoch flip re-resolves against
// the new table instead of erroring.
TEST(DynamicPlacement, MoveModelZeroDropUnderConcurrentTraffic) {
  Engines& fx = engines();
  // Both hosts pre-load the mover engine; the placement table only
  // knows about a's copy until the move flips it.
  BackendHost a({{"m0", fx.e0}, {"mover", fx.e1}});
  BackendHost b({{"m0", fx.e0}, {"mover", fx.e1}});
  shard::ShardProxy proxy(fast_proxy_config());
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", a.port(), {"m0", "mover"}));
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", b.port(), {"m0"}));
  ASSERT_TRUE(proxy.start());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&, t] {
      net::TransportClient client;
      if (!client.connect("127.0.0.1", proxy.port())) {
        ++failures;
        return;
      }
      Rng rng(200 + t);
      while (!stop) {
        const auto resp = client.call(synth_example(rng, 8, fx.config),
                                      std::nullopt, "mover");
        if (!resp.has_value() || resp->status != RequestStatus::kOk)
          ++failures;
        else
          ++completed;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  net::TransportClient admin;
  ASSERT_TRUE(admin.connect("127.0.0.1", proxy.port()));
  std::string message;
  const bool moved = admin.move_model("mover", 0, addr_of(a), addr_of(b),
                                      "", &message);
  EXPECT_TRUE(moved) << message;
  EXPECT_NE(message.find("moved from"), std::string::npos) << message;
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop = true;
  for (std::thread& t : traffic) t.join();

  EXPECT_EQ(failures.load(), 0) << "client-visible failures during the move";
  EXPECT_GT(completed.load(), 20);

  // The cell now lives on b only, and a's router really unloaded it.
  const auto placement = admin.get_placement();
  ASSERT_TRUE(placement.has_value());
  for (const auto& backend : placement->backends) {
    bool has_mover = false;
    for (const auto& cell : backend.models)
      if (cell.name == "mover") has_mover = true;
    EXPECT_EQ(has_mover, backend.address == addr_of(b)) << backend.address;
  }
  const std::vector<std::string> a_models = a.router->model_names();
  EXPECT_EQ(std::count(a_models.begin(), a_models.end(), "mover"), 0)
      << "source engine was not unloaded";

  // Moving a cell the source no longer holds fails in-band.
  EXPECT_FALSE(admin.move_model("mover", 0, addr_of(a), addr_of(b), "",
                                &message));
  EXPECT_NE(message.find("does not serve"), std::string::npos) << message;
}

// Satellite regression: LIST/STATS fan-out against a routing snapshot
// must tolerate a backend that died (or was retired) mid-fan-out —
// skip it and aggregate the reachable share, never fail the whole op.
TEST(DynamicPlacement, FanOutSkipsUnreachableBackends) {
  Engines& fx = engines();
  BackendHost a({{"m0", fx.e0}, {"m1", fx.e1}});
  BackendHost b({{"m1", fx.e1}, {"m2", fx.e2}});
  shard::ShardProxy proxy(fast_proxy_config());
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", a.port(), {"m0", "m1"}));
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", b.port(), {"m1", "m2"}));
  ASSERT_TRUE(proxy.start());

  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", proxy.port()));
  Rng rng(105);
  for (int i = 0; i < 4; ++i) {
    const auto resp = client.call(synth_example(rng, 8, fx.config),
                                  std::nullopt, "m1");
    ASSERT_TRUE(resp.has_value() && resp->status == RequestStatus::kOk);
  }
  const uint64_t a_admitted = a.router->stats_report("m1")->admitted;

  b.kill();  // dead, but still a placement member

  // LIST returns the union of the REACHABLE backends.
  const auto list = client.list_models();
  ASSERT_TRUE(list.has_value()) << client.error();
  EXPECT_EQ(*list, (std::vector<std::string>{"m0", "m1"}));

  // STATS aggregates the reachable replica's share instead of failing.
  const auto stats = client.query_stats("m1");
  ASSERT_TRUE(stats.has_value()) << client.error();
  EXPECT_EQ(stats->report.admitted, a_admitted);

  // The dead backend still cannot be removed while it is the last
  // replica of m2 — placement refuses to strand a model even when its
  // only holder is unreachable.
  std::string message;
  EXPECT_FALSE(client.remove_backend(addr_of(b), &message));
  EXPECT_NE(message.find("last replica"), std::string::npos) << message;
}

// Satellite: pooled connections to a removed backend are closed at
// retirement and never reused; repeated join/leave cycles do not leak
// file descriptors (exact under ASan, which aborts on leaks anyway).
TEST(DynamicPlacement, AddRemoveCyclesRetireConnectionsWithoutFdLeaks) {
  Engines& fx = engines();
  BackendHost stable({{"m0", fx.e0}});
  BackendHost extra({{"m0", fx.e0}});

  shard::ShardProxyConfig cfg = fast_proxy_config();
  cfg.health_interval = Micros(3'600'000'000);  // no probe churn: fd
  // counts below must only move with pool lifecycle events.
  cfg.policy = shard::PlacementPolicy::kConsistentHash;  // spread route
  // keys across both members so the joiner's pool really opens
  // connections (explicit policy would pin every key to the primary).
  shard::ShardProxy proxy(cfg);
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", stable.port(), {"m0"}));
  ASSERT_TRUE(proxy.start());

  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", proxy.port()));
  Rng rng(107);
  uint64_t extra_forwarded = 0;
  const auto cycle = [&] {
    std::string error;
    ASSERT_TRUE(proxy.admin_add_backend("127.0.0.1", extra.port(), {"m0"},
                                        &error))
        << error;
    for (int i = 0; i < 16; ++i) {
      const auto resp = client.call(synth_example(rng, 8, fx.config),
                                    std::nullopt, "m0");
      ASSERT_TRUE(resp.has_value()) << client.error();
      ASSERT_EQ(resp->status, RequestStatus::kOk);
    }
    for (const auto& row : proxy.backend_status())
      if (row.address == addr_of(extra)) extra_forwarded += row.forwarded;
    ASSERT_TRUE(proxy.admin_remove_backend(addr_of(extra), &error)) << error;
    ASSERT_EQ(proxy.backend_status().size(), 1u);
  };

  cycle();  // warm: both pools at steady state before the baseline
  const size_t baseline = open_fd_count();
  for (int i = 0; i < 4; ++i) cycle();
  EXPECT_LE(open_fd_count(), baseline + 2)
      << "join/leave cycles leak descriptors";
  EXPECT_GT(extra_forwarded, 0u)
      << "the transient backend never took traffic; the retirement path "
         "was not exercised";
}

TEST(DynamicPlacement, PlainBackendRefusesAdminFramesInBand) {
  Engines& fx = engines();
  BackendHost host({{"m0", fx.e0}});

  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", host.port()));
  std::string message;
  EXPECT_FALSE(client.add_backend("127.0.0.1", 9999, {{"x", 0}}, &message));
  EXPECT_NE(message.find("targets a shard proxy"), std::string::npos)
      << message;
  EXPECT_EQ(client.error_kind(), net::ClientError::kNone);
  EXPECT_FALSE(client.remove_backend("x:1", &message));
  EXPECT_FALSE(client.move_model("m", 0, "a:1", "b:1", "", &message));
  EXPECT_FALSE(client.get_placement().has_value());
  // Every refusal was in-band: the connection still serves.
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.query_info("m0").has_value()) << client.error();

  // A version-pinned v4 client cannot emit the frames at all — the
  // client refuses loudly instead of sending an alien type.
  net::TransportClient v4(/*protocol_version=*/4);
  ASSERT_TRUE(v4.connect("127.0.0.1", host.port()));
  EXPECT_FALSE(v4.add_backend("127.0.0.1", 9999, {{"x", 0}}, &message));
  EXPECT_NE(v4.error().find("requires protocol v5"), std::string::npos);
}

// Satellite: membership and placement changes land in the flight
// recorder with their epoch stamps, so `admin --events` shows the
// control-plane history next to the data-path journal.
TEST(DynamicPlacement, PlacementChangesAppearInTheFlightJournal) {
  Engines& fx = engines();
  BackendHost a({{"m0", fx.e0}, {"x", fx.e1}});
  BackendHost b({{"m0", fx.e0}, {"x", fx.e1}});
  BackendHost c({{"m0", fx.e0}});
  shard::ShardProxy proxy(fast_proxy_config());
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", a.port(), {"m0", "x"}));
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", b.port(), {"m0"}));
  ASSERT_TRUE(proxy.start());

  std::string error;
  ASSERT_TRUE(proxy.admin_add_backend("127.0.0.1", c.port(), {"m0"}, &error))
      << error;
  ASSERT_TRUE(proxy.admin_move_model("x", 0, addr_of(a), addr_of(b), "",
                                     &error))
      << error;
  ASSERT_TRUE(proxy.admin_remove_backend(addr_of(c), &error)) << error;

  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", proxy.port()));
  const auto events = client.dump_events(0, 0);
  ASSERT_TRUE(events.has_value()) << client.error();
  bool saw_add = false, saw_move = false, saw_remove = false;
  for (const auto& ev : *events) {
    if (ev.type == static_cast<uint8_t>(FlightEventType::kBackendAdded) &&
        ev.tag == addr_of(c)) {
      saw_add = true;
      EXPECT_GT(ev.b, 0u) << "epoch stamp missing";
    }
    if (ev.type ==
            static_cast<uint8_t>(FlightEventType::kPlacementChanged) &&
        ev.tag == "x")
      saw_move = true;
    if (ev.type == static_cast<uint8_t>(FlightEventType::kBackendRemoved) &&
        ev.tag == addr_of(c))
      saw_remove = true;
  }
  EXPECT_TRUE(saw_add);
  EXPECT_TRUE(saw_move);
  EXPECT_TRUE(saw_remove);
  EXPECT_EQ(proxy.counters().placement_changes, 3u);
}

// ---------------------------------------------------------------------------
// TransportClient recv-timeout regression (satellite bugfix): a timeout
// mid-frame condemns the connection, and a trickling peer cannot
// stretch the budget.
// ---------------------------------------------------------------------------

TEST(TransportTimeoutRegression, MidFrameTimeoutCondemnsTheConnection) {
  std::atomic<bool> release{false};
  StallServer server([&](int fd) {
    uint8_t buf[4096];
    (void)!::recv(fd, buf, sizeof(buf), 0);  // the request frame
    const std::vector<uint8_t> frame = ok_response_frame(1, 4);
    // Header plus all but the last 4 payload bytes, then stall.
    (void)!::send(fd, frame.data(), frame.size() - 4, MSG_NOSIGNAL);
    while (!release)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // The bytes a desynchronized client would misread as a fresh
    // stream: the stalled frame's tail plus a complete second frame.
    (void)!::send(fd, frame.data() + frame.size() - 4, 4, MSG_NOSIGNAL);
    const std::vector<uint8_t> second = ok_response_frame(2, 4);
    (void)!::send(fd, second.data(), second.size(), MSG_NOSIGNAL);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });

  net::TransportClient client;
  client.set_timeouts(Micros(1'000'000), Micros(200'000));
  ASSERT_TRUE(client.connect("127.0.0.1", server.port)) << client.error();
  Rng rng(5);
  const Example ex = synth_example(rng, 8, engines().config);
  const auto resp = client.call(ex);
  EXPECT_FALSE(resp.has_value());
  EXPECT_EQ(client.error_kind(), net::ClientError::kTimedOut);
  // The half-read stream is condemned: closed, never reused.
  EXPECT_FALSE(client.connected());

  release = true;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // A second call must refuse up front — NOT read the stale tail bytes
  // as a fresh header (which a reused socket would have produced).
  const auto resp2 = client.call(ex);
  EXPECT_FALSE(resp2.has_value());
  EXPECT_EQ(client.error_kind(), net::ClientError::kIo);
  EXPECT_EQ(client.error(), "not connected");
}

TEST(TransportTimeoutRegression, TricklingPeerCannotStretchTheFrameBudget) {
  std::atomic<bool> stop{false};
  StallServer server([&](int fd) {
    uint8_t buf[4096];
    (void)!::recv(fd, buf, sizeof(buf), 0);
    // ~300 bytes delivered one per 20 ms: a per-recv() timeout would
    // reset every byte and hold the call for ~6 s; the whole-frame
    // budget must cut it off at ~250 ms.
    const std::vector<uint8_t> frame = ok_response_frame(1, 64);
    for (size_t i = 0; i < frame.size() && !stop; ++i) {
      if (::send(fd, frame.data() + i, 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  net::TransportClient client;
  client.set_timeouts(Micros(1'000'000), Micros(250'000));
  ASSERT_TRUE(client.connect("127.0.0.1", server.port)) << client.error();
  Rng rng(6);
  const auto t0 = std::chrono::steady_clock::now();
  const auto resp = client.call(synth_example(rng, 8, engines().config));
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stop = true;
  EXPECT_FALSE(resp.has_value());
  EXPECT_EQ(client.error_kind(), net::ClientError::kTimedOut);
  EXPECT_FALSE(client.connected());
  EXPECT_LT(elapsed_s, 1.5) << "per-recv timeout reset by the trickle";
}

}  // namespace
}  // namespace fqbert::serve
