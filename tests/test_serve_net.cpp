// Network transport tests: frame codec round trips and strict-decode
// rejections, loopback integration (TransportServer on an ephemeral
// port driven by TransportClient threads, responses bit-identical to
// in-process submit()), malformed/truncated/oversized frames (decode
// rejects, connection closes, server stays up), client disconnect
// before response, and the synth_example admission edge audit.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "serve/loadgen.h"
#include "serve/net/transport_client.h"
#include "serve/net/transport_server.h"
#include "serve/router/model_router.h"

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

/// Random-weight calibrated engine (accuracy irrelevant; the integer
/// pipeline and the wire path are what is exercised).
struct EngineFixture {
  BertConfig config = tiny_config();
  std::shared_ptr<const FqBertModel> engine;

  EngineFixture() {
    Rng rng(42);
    BertModel model(config, rng);
    QatBert qat(model, FqQuantConfig::full());
    std::vector<Example> calib;
    Rng data_rng(7);
    for (int i = 0; i < 12; ++i)
      calib.push_back(synth_example(data_rng, 4 + (i % 3) * 6, config));
    qat.calibrate(calib);
    engine = std::make_shared<const FqBertModel>(FqBertModel::convert(qat));
  }
};

EngineFixture& fixture() {
  static EngineFixture f;
  return f;
}

/// In-process router (one "tiny" lane = the default model) + transport
/// on an ephemeral loopback port.
struct NetFixture {
  EngineRegistry registry;
  std::unique_ptr<ModelRouter> router;
  std::unique_ptr<net::TransportServer> transport;

  explicit NetFixture(const RouterConfig& cfg = {}) {
    registry.register_model("tiny", fixture().engine);
    router = std::make_unique<ModelRouter>(registry, cfg);
    EXPECT_TRUE(router->add_model("tiny"));
    EXPECT_TRUE(router->start());
    net::TransportConfig tcfg;
    tcfg.port = 0;  // ephemeral
    transport = std::make_unique<net::TransportServer>(*router, tcfg);
    EXPECT_TRUE(transport->start());
  }

  ~NetFixture() {
    // Transport first: its completion threads drain in-flight futures,
    // which needs a router that still completes them.
    transport->stop();
    router->shutdown(/*drain=*/true);
  }

  uint16_t port() const { return transport->port(); }
};

/// Raw loopback socket for writing hostile bytes the TransportClient
/// would never produce.
struct RawConn {
  int fd = -1;

  bool connect(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    timeval tv{/*tv_sec=*/5, /*tv_usec=*/0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool send_bytes(const std::vector<uint8_t>& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// True when the server closes the connection (EOF within the recv
  /// timeout), discarding any data it sent first.
  bool closed_by_server() {
    uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;  // timeout / error: still open
    }
  }

  /// Read exactly n bytes (for well-formed response frames).
  bool recv_exact(uint8_t* out, size_t n) {
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd, out + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<size_t>(r);
    }
    return true;
  }

  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  ~RawConn() { close(); }
};

/// The server must still answer a fresh well-formed client.
void expect_server_alive(NetFixture& net) {
  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", net.port())) << client.error();
  Rng rng(99);
  const auto resp = client.call(synth_example(rng, 8, fixture().config));
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_EQ(resp->status, RequestStatus::kOk);
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(FrameCodec, ServeRequestRoundTripsExactly) {
  net::WireRequest req;
  req.correlation_id = 0xDEADBEEFCAFEBABEull;
  req.deadline_budget_us = 123456789;
  req.model = "tiny";
  Rng rng(1);
  req.example = synth_example(rng, 17, fixture().config);
  std::vector<uint8_t> frame;
  net::encode_serve_request(req, frame);

  net::FrameHeader hdr;
  ASSERT_EQ(net::decode_header(frame.data(), frame.size(), &hdr),
            net::DecodeStatus::kFrame);
  ASSERT_EQ(hdr.type, net::FrameType::kServeRequest);
  ASSERT_EQ(hdr.version, net::kProtocolVersion);
  ASSERT_EQ(frame.size(), net::kHeaderSize + hdr.payload_len);
  net::WireRequest back;
  ASSERT_TRUE(net::decode_serve_request(frame.data() + net::kHeaderSize,
                                        hdr.payload_len, hdr.version, &back));
  EXPECT_EQ(back.correlation_id, req.correlation_id);
  EXPECT_EQ(back.deadline_budget_us, req.deadline_budget_us);
  EXPECT_EQ(back.model, req.model);
  EXPECT_EQ(back.example.tokens, req.example.tokens);
  EXPECT_EQ(back.example.segments, req.example.segments);
}

TEST(FrameCodec, V1ServeRequestRoundTripsWithoutModel) {
  net::WireRequest req;
  req.correlation_id = 99;
  req.deadline_budget_us = 1000;
  Rng rng(4);
  req.example = synth_example(rng, 9, fixture().config);
  std::vector<uint8_t> frame;
  net::encode_serve_request(req, frame, /*version=*/1);

  net::FrameHeader hdr;
  ASSERT_EQ(net::decode_header(frame.data(), frame.size(), &hdr),
            net::DecodeStatus::kFrame);
  ASSERT_EQ(hdr.version, 1);
  net::WireRequest back;
  back.model = "stale";  // must be cleared by a v1 decode
  ASSERT_TRUE(net::decode_serve_request(frame.data() + net::kHeaderSize,
                                        hdr.payload_len, hdr.version, &back));
  EXPECT_EQ(back.correlation_id, req.correlation_id);
  EXPECT_TRUE(back.model.empty());
  EXPECT_EQ(back.example.tokens, req.example.tokens);
  // A v1 frame carrying a control type is a header-level error.
  std::vector<uint8_t> control;
  net::encode_list_models(control);
  control[4] = 1;  // rewrite version to 1
  EXPECT_EQ(net::decode_header(control.data(), control.size(), &hdr),
            net::DecodeStatus::kError);
}

TEST(FrameCodec, ServeResponseRoundTripsBitExactLogits) {
  net::WireResponse resp;
  resp.correlation_id = 7;
  resp.response.status = RequestStatus::kOk;
  resp.response.predicted = 1;
  resp.response.queue_us = 42;
  resp.response.latency_us = 4242;
  resp.response.batch_size = 8;
  resp.response.logits = {1.5f, -2.25f, 3.0e-7f, -0.0f};
  std::vector<uint8_t> frame;
  net::encode_serve_response(resp, frame);

  net::FrameHeader hdr;
  ASSERT_EQ(net::decode_header(frame.data(), frame.size(), &hdr),
            net::DecodeStatus::kFrame);
  net::WireResponse back;
  ASSERT_TRUE(net::decode_serve_response(frame.data() + net::kHeaderSize,
                                         hdr.payload_len, hdr.version, &back));
  EXPECT_EQ(back.correlation_id, 7u);
  EXPECT_EQ(back.response.status, RequestStatus::kOk);
  ASSERT_EQ(back.response.logits.size(), resp.response.logits.size());
  for (size_t i = 0; i < resp.response.logits.size(); ++i) {
    // Bit-exact, not approximately equal: compare the bit patterns.
    uint32_t a, b;
    std::memcpy(&a, &resp.response.logits[i], 4);
    std::memcpy(&b, &back.response.logits[i], 4);
    EXPECT_EQ(a, b) << "logit " << i;
  }
}

TEST(FrameCodec, HeaderRejectsCorruption) {
  std::vector<uint8_t> frame;
  net::encode_info_request("", frame);
  net::FrameHeader hdr;
  ASSERT_EQ(net::decode_header(frame.data(), frame.size(), &hdr),
            net::DecodeStatus::kFrame);

  auto corrupt = [&](size_t off, uint8_t value) {
    std::vector<uint8_t> bad = frame;
    bad[off] = value;
    return net::decode_header(bad.data(), bad.size(), &hdr);
  };
  EXPECT_EQ(corrupt(0, 0x00), net::DecodeStatus::kError);  // magic
  EXPECT_EQ(corrupt(4, 99), net::DecodeStatus::kError);    // version
  EXPECT_EQ(corrupt(5, 0), net::DecodeStatus::kError);     // type 0
  EXPECT_EQ(corrupt(5, 200), net::DecodeStatus::kError);   // unknown type
  EXPECT_EQ(corrupt(6, 1), net::DecodeStatus::kError);     // reserved
  // payload_len over the hard cap.
  std::vector<uint8_t> oversized = frame;
  const uint32_t huge = net::kMaxPayload + 1;
  std::memcpy(oversized.data() + 8, &huge, 4);  // little-endian host in CI
  EXPECT_EQ(net::decode_header(oversized.data(), oversized.size(), &hdr),
            net::DecodeStatus::kError);
  // Short reads are "need more", not errors.
  EXPECT_EQ(net::decode_header(frame.data(), 5, &hdr),
            net::DecodeStatus::kNeedMore);
}

TEST(FrameCodec, PayloadDecodersRejectLyingLengths) {
  net::WireRequest req;
  req.correlation_id = 1;
  Rng rng(2);
  req.example = synth_example(rng, 8, fixture().config);
  std::vector<uint8_t> frame;
  net::encode_serve_request(req, frame);
  const uint8_t* payload = frame.data() + net::kHeaderSize;
  const size_t len = frame.size() - net::kHeaderSize;
  constexpr uint8_t kV = net::kProtocolVersion;
  net::WireRequest out;

  // Truncated payload.
  EXPECT_FALSE(net::decode_serve_request(payload, len - 1, kV, &out));
  // Trailing garbage beyond the declared arrays.
  std::vector<uint8_t> padded(payload, payload + len);
  padded.push_back(0);
  EXPECT_FALSE(
      net::decode_serve_request(padded.data(), padded.size(), kV, &out));
  // num_tokens lying about the remaining bytes (the field sits at
  // offset 26 in a v3 payload with an empty model string: u64 corr +
  // i64 deadline + u64 trace + u16 string length).
  std::vector<uint8_t> lying(payload, payload + len);
  lying[26] = static_cast<uint8_t>(lying[26] + 1);
  EXPECT_FALSE(
      net::decode_serve_request(lying.data(), lying.size(), kV, &out));
  // Absurd num_tokens must fail before any allocation-sized resize.
  std::vector<uint8_t> absurd(payload, payload + len);
  absurd[26] = 0xFF;
  absurd[27] = 0xFF;
  absurd[28] = 0xFF;
  absurd[29] = 0x7F;
  EXPECT_FALSE(
      net::decode_serve_request(absurd.data(), absurd.size(), kV, &out));
  // A model-string length running past the payload end.
  std::vector<uint8_t> overrun(payload, payload + len);
  overrun[24] = 0xFF;
  overrun[25] = 0x00;  // claims a 255-byte model name
  EXPECT_FALSE(
      net::decode_serve_request(overrun.data(), overrun.size(), kV, &out));
  // Empty payload.
  EXPECT_FALSE(net::decode_serve_request(payload, 0, kV, &out));
}

// ---------------------------------------------------------------------------
// Loopback integration
// ---------------------------------------------------------------------------

TEST(TransportLoopback, InfoAdvertisesEngineShape) {
  NetFixture net;
  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", net.port())) << client.error();
  const auto info = client.query_info();
  ASSERT_TRUE(info.has_value()) << client.error();
  const BertConfig& expect = fixture().config;
  EXPECT_EQ(info->vocab_size, expect.vocab_size);
  EXPECT_EQ(info->hidden, expect.hidden);
  EXPECT_EQ(info->num_layers, expect.num_layers);
  EXPECT_EQ(info->num_heads, expect.num_heads);
  EXPECT_EQ(info->ffn_dim, expect.ffn_dim);
  EXPECT_EQ(info->max_seq_len, expect.max_seq_len);
  EXPECT_EQ(info->num_segments, expect.num_segments);
  EXPECT_EQ(info->num_classes, expect.num_classes);
}

TEST(TransportLoopback, ResponsesBitIdenticalToInProcessAcrossThreads) {
  RouterConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  NetFixture net(cfg);

  constexpr int kClients = 4, kPerClient = 25;
  std::vector<int> mismatches(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::TransportClient client;
      if (!client.connect("127.0.0.1", net.port())) {
        mismatches[c] = kPerClient;
        return;
      }
      Rng rng(500 + c);
      for (int i = 0; i < kPerClient; ++i) {
        const Example ex =
            synth_example(rng, 2 + rng.randint(0, 30), fixture().config);
        const auto remote = client.call(ex);
        if (!remote || remote->status != RequestStatus::kOk) {
          ++mismatches[c];
          continue;
        }
        // The wire response must carry bit-identical logits to an
        // in-process submit of the very same example (routed through
        // the empty name -> default lane).
        auto local = net.router->submit("", ex).get();
        if (local.status != RequestStatus::kOk ||
            local.logits.size() != remote->logits.size()) {
          ++mismatches[c];
          continue;
        }
        for (size_t j = 0; j < local.logits.size(); ++j)
          if (local.logits[j] != remote->logits[j]) ++mismatches[c];
        if (remote->predicted != local.predicted) ++mismatches[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(mismatches[c], 0);

  const auto counters = net.transport->counters();
  EXPECT_EQ(counters.protocol_errors, 0u);
  EXPECT_GE(counters.frames_in, kClients * kPerClient);
}

TEST(TransportLoopback, PipelinedRequestsOnOneConnectionAllAnswered) {
  NetFixture net;
  RawConn conn;
  ASSERT_TRUE(conn.connect(net.port()));

  // Three requests back-to-back in one write; responses may complete in
  // any order, so match by correlation id.
  Rng rng(31);
  std::vector<uint8_t> burst;
  std::map<uint64_t, Example> sent;
  for (uint64_t id = 1; id <= 3; ++id) {
    net::WireRequest req;
    req.correlation_id = id;
    req.example = synth_example(rng, 6 + 4 * static_cast<int64_t>(id),
                                fixture().config);
    sent[id] = req.example;
    net::encode_serve_request(req, burst);
  }
  ASSERT_TRUE(conn.send_bytes(burst));

  std::map<uint64_t, ServeResponse> got;
  for (int i = 0; i < 3; ++i) {
    uint8_t header[net::kHeaderSize];
    ASSERT_TRUE(conn.recv_exact(header, net::kHeaderSize));
    net::FrameHeader hdr;
    ASSERT_EQ(net::decode_header(header, net::kHeaderSize, &hdr),
              net::DecodeStatus::kFrame);
    ASSERT_EQ(hdr.type, net::FrameType::kServeResponse);
    std::vector<uint8_t> payload(hdr.payload_len);
    ASSERT_TRUE(conn.recv_exact(payload.data(), payload.size()));
    net::WireResponse resp;
    ASSERT_TRUE(net::decode_serve_response(payload.data(), payload.size(),
                                           hdr.version, &resp));
    got[resp.correlation_id] = resp.response;
  }
  ASSERT_EQ(got.size(), 3u);
  for (const auto& [id, ex] : sent) {
    ASSERT_TRUE(got.count(id));
    EXPECT_EQ(got[id].status, RequestStatus::kOk);
    const Tensor expect = fixture().engine->forward(ex);
    ASSERT_EQ(static_cast<size_t>(expect.numel()), got[id].logits.size());
    for (int64_t j = 0; j < expect.numel(); ++j)
      EXPECT_EQ(expect[j], got[id].logits[static_cast<size_t>(j)]);
  }
}

TEST(TransportLoopback, V1AndV2PinnedClientsServedByV3Server) {
  NetFixture net;
  Rng rng(77);
  const Example ex = synth_example(rng, 8, fixture().config);
  const Tensor expect = fixture().engine->forward(ex);
  for (const uint8_t version : {uint8_t{1}, uint8_t{2}}) {
    net::TransportClient client(version);
    ASSERT_TRUE(client.connect("127.0.0.1", net.port())) << client.error();
    const auto resp = client.call(ex);
    ASSERT_TRUE(resp.has_value())
        << "v" << int(version) << ": " << client.error();
    EXPECT_EQ(resp->status, RequestStatus::kOk);
    ASSERT_EQ(static_cast<size_t>(expect.numel()), resp->logits.size());
    for (int64_t j = 0; j < expect.numel(); ++j)
      EXPECT_EQ(expect[j], resp->logits[static_cast<size_t>(j)]);
    // Pre-v3 peers never see the trace section.
    EXPECT_EQ(resp->trace_id, 0u);
    EXPECT_TRUE(resp->trace.empty());
    // v2 clients can still read stats off the v3 server; the sketch
    // extension is a v3-only suffix (STATS itself is a v2+ control
    // frame, so v1 has no stats path to break).
    if (version >= 2) {
      const auto stats = client.query_stats();
      ASSERT_TRUE(stats.has_value()) << client.error();
      EXPECT_GE(stats->report.completed, 1u);
      EXPECT_EQ(stats->report.latency_sketch.count(), 0u);  // v2 wire
    }
  }
  EXPECT_EQ(net.transport->counters().protocol_errors, 0u);
}

TEST(TransportLoopback, TracedRequestCarriesMonotonicStages) {
  NetFixture net;
  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", net.port())) << client.error();
  Rng rng(78);
  const Example ex = synth_example(rng, 8, fixture().config);

  const uint64_t tid = mint_trace_id();
  ASSERT_NE(tid, 0u);
  const TimePoint sent_at = Clock::now();
  const auto resp = client.call(ex, std::nullopt, "", tid);
  const int64_t wall_us =
      std::chrono::duration_cast<Micros>(Clock::now() - sent_at).count();
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_EQ(resp->status, RequestStatus::kOk);
  EXPECT_EQ(resp->trace_id, tid);

  // Admission -> batch -> worker start/end -> responded, timestamps
  // relative to admission, never decreasing, and bounded by the wall
  // latency the client itself observed.
  ASSERT_GE(resp->trace.size(), 4u);
  EXPECT_EQ(resp->trace.front().stage, TraceStage::kAdmitted);
  EXPECT_EQ(resp->trace.front().t_us, 0);
  EXPECT_EQ(resp->trace.back().stage, TraceStage::kResponded);
  int64_t prev = 0;
  for (const TraceEvent& ev : resp->trace) {
    EXPECT_GE(ev.t_us, prev);
    prev = ev.t_us;
  }
  EXPECT_LE(prev, wall_us);

  // Untraced requests on the same connection stay untraced.
  const auto plain = client.call(ex);
  ASSERT_TRUE(plain.has_value()) << client.error();
  EXPECT_EQ(plain->trace_id, 0u);
  EXPECT_TRUE(plain->trace.empty());
}

TEST(TransportLoopback, MalformedFramesCloseConnectionServerStaysUp) {
  NetFixture net;

  std::vector<std::vector<uint8_t>> hostile;
  // Bad magic, full header's worth of bytes.
  hostile.push_back(std::vector<uint8_t>(net::kHeaderSize, 0xAB));
  // Right magic, wrong version.
  {
    std::vector<uint8_t> f;
    net::encode_info_request("", f);
    f[4] = 99;
    hostile.push_back(f);
  }
  // Reserved bits set.
  {
    std::vector<uint8_t> f;
    net::encode_info_request("", f);
    f[6] = 1;
    hostile.push_back(f);
  }
  // Oversized payload declaration (> kMaxPayload).
  {
    std::vector<uint8_t> f;
    net::encode_info_request("", f);
    f[8] = 0xFF;
    f[9] = 0xFF;
    f[10] = 0xFF;
    f[11] = 0x7F;
    hostile.push_back(f);
  }
  // Serve request whose num_tokens lies about the payload size.
  {
    net::WireRequest req;
    req.correlation_id = 5;
    Rng rng(3);
    req.example = synth_example(rng, 8, fixture().config);
    std::vector<uint8_t> f;
    net::encode_serve_request(req, f);
    // num_tokens += 2, arrays unchanged (offset 26: u64 corr + i64
    // deadline + u64 trace + empty model string).
    f[net::kHeaderSize + 26] += 2;
    hostile.push_back(f);
  }
  // Info request whose model-string length points past the payload.
  {
    std::vector<uint8_t> f;
    net::encode_info_request("", f);
    f[8] = 4;  // declare 4 payload bytes
    f.insert(f.end(), {0xFF, 0x00, 3, 4});  // strlen 255 > remaining
    hostile.push_back(f);
  }
  // v1 frame carrying a v2-only control type.
  {
    std::vector<uint8_t> f;
    net::encode_list_models(f);
    f[4] = 1;
    hostile.push_back(f);
  }
  // Load-model frame with an empty model name.
  {
    std::vector<uint8_t> f;
    net::encode_load_model("", "/tmp/nope.bin", f);
    hostile.push_back(f);
  }
  // A response frame sent client->server (illegal direction).
  {
    net::WireResponse resp;
    resp.correlation_id = 9;
    std::vector<uint8_t> f;
    net::encode_serve_response(resp, f);
    hostile.push_back(f);
  }

  for (size_t i = 0; i < hostile.size(); ++i) {
    RawConn conn;
    ASSERT_TRUE(conn.connect(net.port())) << "case " << i;
    ASSERT_TRUE(conn.send_bytes(hostile[i])) << "case " << i;
    EXPECT_TRUE(conn.closed_by_server()) << "case " << i;
  }
  EXPECT_EQ(net.transport->counters().protocol_errors, hostile.size());
  expect_server_alive(net);
}

TEST(TransportLoopback, TruncatedFramesThenDisconnectLeaveServerUp) {
  NetFixture net;
  // Half a header, then hangup.
  {
    RawConn conn;
    ASSERT_TRUE(conn.connect(net.port()));
    ASSERT_TRUE(conn.send_bytes({0x54, 0x42, 0x51}));
    conn.close();
  }
  // Valid header declaring 100 payload bytes, only 10 delivered.
  {
    std::vector<uint8_t> f;
    net::encode_info_request("", f);
    f[8] = 100;
    f.insert(f.end(), 10, 0x00);
    RawConn conn;
    ASSERT_TRUE(conn.connect(net.port()));
    ASSERT_TRUE(conn.send_bytes(f));
    conn.close();
  }
  // A truncated frame is not a protocol error until completed — the
  // peer vanishing mid-frame is just a disconnect.
  expect_server_alive(net);
  EXPECT_EQ(net.transport->counters().protocol_errors, 0u);
}

TEST(TransportLoopback, ClientDisconnectBeforeResponseDropsItQuietly) {
  RouterConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 1;
  NetFixture net(cfg);
  // Keep the only worker busy with an in-process backlog so the wire
  // request's response arrives "late", after the client is gone.
  Rng backlog_rng(9);
  std::vector<std::future<ServeResponse>> backlog;
  for (int i = 0; i < 200; ++i)
    backlog.push_back(net.router->submit(
        "tiny", synth_example(backlog_rng, fixture().config.max_seq_len,
                              fixture().config)));
  {
    RawConn conn;
    ASSERT_TRUE(conn.connect(net.port()));
    net::WireRequest req;
    req.correlation_id = 77;
    Rng rng(8);
    req.example = synth_example(rng, 8, fixture().config);
    std::vector<uint8_t> f;
    net::encode_serve_request(req, f);
    ASSERT_TRUE(conn.send_bytes(f));
    conn.close();  // gone before the worker reaches the request
  }
  // The request still completes server-side; the response is dropped on
  // the floor instead of crashing the loop or leaking the connection.
  for (auto& fut : backlog) EXPECT_EQ(fut.get().status, RequestStatus::kOk);
  expect_server_alive(net);
  const auto report = net.router->stats_report("tiny");
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->accounting_balances());
  EXPECT_EQ(net.transport->counters().protocol_errors, 0u);
}

TEST(TransportLoopback, ServingRejectionsTravelTheWire) {
  NetFixture net;
  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", net.port())) << client.error();

  // Over max_seq_len (wire-legal, serving-invalid).
  Example too_long;
  too_long.tokens.assign(
      static_cast<size_t>(fixture().config.max_seq_len + 1), 1);
  too_long.segments.assign(too_long.tokens.size(), 0);
  auto resp = client.call(too_long);
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_EQ(resp->status, RequestStatus::kRejectedInvalid);

  // Ragged segments round-trip to admission (the codec does not repair
  // them) and are rejected there.
  Rng rng(12);
  Example ragged = synth_example(rng, 8, fixture().config);
  ragged.segments.pop_back();
  resp = client.call(ragged);
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_EQ(resp->status, RequestStatus::kRejectedInvalid);

  // A hopeless deadline comes back as a deadline/timeout status, not a
  // hang and not kOk.
  resp = client.call(synth_example(rng, 8, fixture().config), Micros(1));
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_NE(resp->status, RequestStatus::kOk);

  // The same connection still serves a good request afterwards.
  resp = client.call(synth_example(rng, 8, fixture().config));
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_EQ(resp->status, RequestStatus::kOk);
}

TEST(TransportLoopback, RemoteLoadgenClosedLoopZeroFailures) {
  RouterConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 8;
  NetFixture net(cfg);

  LoadgenConfig lcfg;
  lcfg.num_clients = 4;
  lcfg.requests_per_client = 50;
  const LoadgenReport lg =
      run_loadgen_remote("127.0.0.1", net.port(), fixture().config, lcfg);
  EXPECT_EQ(lg.sent, 200u);
  EXPECT_EQ(lg.ok, 200u);
  EXPECT_EQ(lg.failed, 0u);
  EXPECT_EQ(lg.rejected, 0u);
}

// ---------------------------------------------------------------------------
// synth_example admission edge audit: a synthesized
// example must be admissible at both ends of the length range, and the
// empty seq-mix fallback must stay defined.
// ---------------------------------------------------------------------------

TEST(SynthExampleEdges, AdmittedAtSeqLenTwoAndMax) {
  EngineRegistry registry;
  registry.register_model("tiny", fixture().engine);
  ModelRouter router(registry);
  ASSERT_TRUE(router.add_model("tiny"));
  ASSERT_TRUE(router.start());

  Rng rng(23);
  const BertConfig& cfg = fixture().config;
  // Requested lengths below 2 and above max_seq_len clamp into range
  // instead of producing inadmissible examples.
  for (const int64_t len : {int64_t{2}, cfg.max_seq_len, int64_t{1},
                            int64_t{0}, cfg.max_seq_len + 10}) {
    const Example ex = synth_example(rng, len, cfg);
    EXPECT_GE(static_cast<int64_t>(ex.tokens.size()), 2);
    EXPECT_LE(static_cast<int64_t>(ex.tokens.size()), cfg.max_seq_len);
    AdmitResult admit;
    auto fut = router.submit("tiny", ex, std::nullopt, &admit);
    EXPECT_EQ(admit, AdmitResult::kOk) << "requested len " << len;
    EXPECT_EQ(fut.get().status, RequestStatus::kOk) << "requested len "
                                                    << len;
  }
  router.shutdown();
}

TEST(SynthExampleEdges, DegenerateConfigsProduceWellFormedExamples) {
  // max_seq_len = 1 and vocab_size = 1 used to feed inverted ranges to
  // std::clamp / randint (UB); they must now yield the only admissible
  // shape: a single CLS token.
  BertConfig tiny = tiny_config();
  tiny.max_seq_len = 1;
  tiny.vocab_size = 1;
  Rng rng(3);
  for (const int64_t requested : {int64_t{0}, int64_t{1}, int64_t{50}}) {
    const Example ex = synth_example(rng, requested, tiny);
    ASSERT_EQ(ex.tokens.size(), 1u);
    EXPECT_EQ(ex.tokens[0], 0);
    ASSERT_EQ(ex.segments.size(), 1u);
    EXPECT_EQ(ex.segments[0], 0);
  }
}

TEST(SynthExampleEdges, EmptySeqMixFallsBackToMaxSeqLen) {
  EngineRegistry registry;
  registry.register_model("tiny", fixture().engine);
  ModelRouter router(registry);
  ASSERT_TRUE(router.add_model("tiny"));
  ASSERT_TRUE(router.start());

  LoadgenConfig lcfg;
  lcfg.num_clients = 1;
  lcfg.requests_per_client = 3;
  lcfg.seq_len_mix.clear();  // e.g. `--seq-mix ""` / a list of commas
  const LoadgenReport lg =
      run_loadgen(router, fixture().config, lcfg);
  router.shutdown();
  EXPECT_EQ(lg.sent, 3u);
  EXPECT_EQ(lg.ok, 3u);  // max_seq_len examples are admissible
}

}  // namespace
}  // namespace fqbert::serve
