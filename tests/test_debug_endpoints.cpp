// /debug introspection plane tests: every endpoint returns well-formed
// JSON while traffic is in flight, the slow-exemplar store honors its
// threshold semantics (a slower-than-bound request appears exactly
// once, stages monotone), the DUMP_EVENTS control frame round-trips
// over a real transport, and the hardened metrics listener drops
// stalling (slow-loris) clients and over-long request lines.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "serve/debug_text.h"
#include "serve/flight_recorder.h"
#include "serve/loadgen.h"
#include "serve/metrics_http.h"
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

// ---------------------------------------------------------------------------
// Minimal strict JSON acceptor (RFC 8259 subset: no leading zeros
// check, but full structure, string escapes and number shape). The
// /debug endpoints hand-assemble their bodies, so "it parses" is the
// property under test — a library would be overkill and a dependency.
// ---------------------------------------------------------------------------
class JsonAcceptor {
 public:
  explicit JsonAcceptor(std::string_view s) : s_(s) {}
  bool accept() {
    skip_ws();
    return value() && (skip_ws(), pos_ == s_.size());
  }

 private:
  bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }
  bool literal(const char* word) {
    const size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i)
            if (pos_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_++])))
              return false;
        } else if (std::strchr("\"\\/bfnrt", esc) == nullptr) {
          return false;
        }
      }
    }
    return false;  // unterminated
  }
  bool number() {
    const size_t start = pos_;
    if (eat('-')) {}
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
    if (eat('.'))
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_])))
        ++pos_;
    return pos_ > start && s_[pos_ - 1] != '-';
  }
  bool value() {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!eat(':') || !value()) return false;
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }
  bool array() {
    if (!eat('[')) return false;
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

std::string http_exchange(uint16_t port, const std::string& request) {
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
  (void)!::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    out.append(buf, static_cast<size_t>(n));
  ::close(fd);
  return out;
}

/// GET `path`, require 200 + application/json, return the body.
std::string get_json_body(uint16_t port, const std::string& path) {
  const std::string response = http_exchange(
      port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << path;
  EXPECT_NE(response.find("application/json"), std::string::npos) << path;
  const size_t at = response.find("\r\n\r\n");
  EXPECT_NE(at, std::string::npos) << path;
  return at == std::string::npos ? "" : response.substr(at + 4);
}

/// Wire the three /debug endpoints exactly like `serve --listen` does.
void add_debug_endpoints(MetricsHttpServer& metrics, ModelRouter& router) {
  metrics.add_endpoint("/debug/events", [](const std::string& query) {
    return render_debug_events(FlightRecorder::instance(),
                               debug_query_u64(query, "since_ns", 0),
                               debug_query_u64(query, "max", 0));
  });
  metrics.add_endpoint("/debug/slow", [](const std::string&) {
    return render_debug_slow(FlightRecorder::instance());
  });
  metrics.add_endpoint("/debug/lanes", [&router](const std::string&) {
    return render_debug_lanes(router);
  });
}

TEST(DebugEndpoints, WellFormedJsonUnderConcurrentTraffic) {
  EngineRegistry registry;
  registry.register_model("m0", build_engine(42));
  RouterConfig rcfg;
  rcfg.num_workers = 2;
  rcfg.max_batch = 4;
  ModelRouter router(registry, rcfg);
  ASSERT_TRUE(router.add_model("m0"));
  ASSERT_TRUE(router.start());

  MetricsHttpServer metrics(
      [] { return std::string("fqbert_up 1\n"); });
  add_debug_endpoints(metrics, router);
  ASSERT_TRUE(metrics.start("127.0.0.1", 0));

  // Concurrent traffic: two closed-loop clients keep the journal, the
  // exemplar store and the lane depths moving while we scrape.
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c)
    clients.emplace_back([&router, c] {
      Rng rng(100 + static_cast<uint64_t>(c));
      for (int i = 0; i < 30; ++i)
        (void)router
            .submit("m0", synth_example(rng, 8, tiny_config()))
            .get();
    });

  for (int round = 0; round < 8; ++round) {
    for (const char* path : {"/debug/events", "/debug/slow", "/debug/lanes"}) {
      const std::string body = get_json_body(metrics.port(), path);
      EXPECT_TRUE(JsonAcceptor(body).accept())
          << path << " returned invalid JSON: " << body;
    }
  }
  for (std::thread& t : clients) t.join();

  // Steady-state content checks once traffic settled.
  const std::string events = get_json_body(metrics.port(), "/debug/events");
  EXPECT_NE(events.find("\"events\":["), std::string::npos);
  EXPECT_NE(events.find("\"type\":\"admitted\""), std::string::npos);
  EXPECT_NE(events.find("\"type\":\"batch_formed\""), std::string::npos);
  EXPECT_NE(events.find("\"tag\":\"m0\""), std::string::npos);

  const std::string lanes = get_json_body(metrics.port(), "/debug/lanes");
  EXPECT_TRUE(JsonAcceptor(lanes).accept()) << lanes;
  EXPECT_NE(lanes.find("\"model\":\"m0\""), std::string::npos);
  EXPECT_NE(lanes.find("\"high_watermark\":"), std::string::npos);

  // The query contract: an in-the-future since_ns empties the view, a
  // max bound caps it (count mirrors the array's length).
  const std::string none = get_json_body(
      metrics.port(),
      "/debug/events?since_ns=18446744073709551615");
  EXPECT_NE(none.find("\"count\":0"), std::string::npos) << none;
  const std::string capped =
      get_json_body(metrics.port(), "/debug/events?max=3");
  EXPECT_NE(capped.find("\"count\":3"), std::string::npos) << capped;

  metrics.stop();
  router.shutdown(/*drain=*/true);
}

TEST(DebugEndpoints, SlowExemplarAppearsExactlyOnceWithMonotoneStages) {
  FlightRecorder& rec = FlightRecorder::instance();
  rec.clear_slow_exemplars();
  rec.set_slow_threshold_us(1);  // every real request clears 1 us

  EngineRegistry registry;
  registry.register_model("m0", build_engine(42));
  RouterConfig rcfg;
  rcfg.num_workers = 1;
  ModelRouter router(registry, rcfg);
  ASSERT_TRUE(router.add_model("m0"));
  ASSERT_TRUE(router.start());

  Rng rng(7);
  const uint64_t kTrace = 0xBEEF;
  ASSERT_EQ(router
                .submit("m0", synth_example(rng, 8, tiny_config()),
                        std::nullopt, nullptr, kTrace)
                .get()
                .status,
            RequestStatus::kOk);
  router.shutdown(/*drain=*/true);

  const auto exemplars = rec.slow_exemplars();
  int hits = 0;
  for (const SlowExemplar& ex : exemplars) {
    if (ex.trace_id != kTrace) continue;
    ++hits;
    EXPECT_EQ(ex.model, "m0");
    EXPECT_GE(ex.latency_us, rec.slow_threshold_us());
    ASSERT_GE(ex.stages.size(), 2u) << "per-stage breakdown missing";
    for (size_t i = 1; i < ex.stages.size(); ++i)
      EXPECT_LE(ex.stages[i - 1].t_us, ex.stages[i].t_us)
          << "stages must be monotone";
  }
  EXPECT_EQ(hits, 1) << "the slow request must appear exactly once";

  // And the JSON view renders it with the decimal-string trace id.
  const std::string body = render_debug_slow(rec);
  EXPECT_TRUE(JsonAcceptor(body).accept()) << body;
  EXPECT_NE(body.find("\"trace_id\":\"" + std::to_string(kTrace) + "\""),
            std::string::npos)
      << body;
  rec.set_slow_threshold_us(0);
  rec.clear_slow_exemplars();
}

TEST(DebugEndpoints, DumpEventsRoundTripsOverTransport) {
  EngineRegistry registry;
  registry.register_model("m0", build_engine(42));
  RouterConfig rcfg;
  rcfg.num_workers = 1;
  ModelRouter router(registry, rcfg);
  ASSERT_TRUE(router.add_model("m0"));
  ASSERT_TRUE(router.start());
  net::TransportServer transport(router, {});
  ASSERT_TRUE(transport.start());

  const uint64_t t0 = flight_now_ns();
  net::TransportClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", transport.port()));
  Rng rng(11);
  const uint64_t kTrace = mint_trace_id();
  for (int i = 0; i < 3; ++i) {
    const auto resp =
        client.call(synth_example(rng, 8, tiny_config()), std::nullopt, "m0",
                    i == 0 ? kTrace : 0);
    ASSERT_TRUE(resp.has_value());
    ASSERT_EQ(resp->status, RequestStatus::kOk);
  }

  const auto events = client.dump_events(t0);
  ASSERT_TRUE(events.has_value()) << client.error();
  ASSERT_FALSE(events->empty());
  bool saw_admitted = false, saw_batch = false, saw_trace = false;
  for (size_t i = 0; i < events->size(); ++i) {
    const net::WireEvent& ev = (*events)[i];
    EXPECT_GE(ev.t_ns, t0);
    if (i > 0) {
      EXPECT_LE((*events)[i - 1].t_ns, ev.t_ns);
    }
    EXPECT_LE(ev.type, kLastFlightEventType);
    const auto type = static_cast<FlightEventType>(ev.type);
    if (type == FlightEventType::kRequestAdmitted && ev.tag == "m0")
      saw_admitted = true;
    if (type == FlightEventType::kBatchFormed) saw_batch = true;
    if (ev.trace_id == kTrace) saw_trace = true;
  }
  EXPECT_TRUE(saw_admitted);
  EXPECT_TRUE(saw_batch);
  EXPECT_TRUE(saw_trace) << "the traced request must join the journal";

  // since_ns in the future: a valid, empty dump — not an error.
  const auto none = client.dump_events(flight_now_ns() + 3'600'000'000'000ull);
  ASSERT_TRUE(none.has_value()) << client.error();
  EXPECT_TRUE(none->empty());

  // max_events caps the dump to the most recent K.
  const auto capped = client.dump_events(t0, 2);
  ASSERT_TRUE(capped.has_value()) << client.error();
  EXPECT_EQ(capped->size(), 2u);
  EXPECT_EQ(capped->back().t_ns, events->back().t_ns);

  client.close();
  transport.stop();
  router.shutdown(/*drain=*/true);
}

TEST(DebugEndpoints, PlacementEndpointRendersTheLiveTable) {
  EngineRegistry registry;
  registry.register_model("m0", build_engine(42));
  registry.register_model("m1", build_engine(43));
  RouterConfig rcfg;
  rcfg.num_workers = 1;
  ModelRouter router(registry, rcfg);
  ASSERT_TRUE(router.add_model("m0"));
  ASSERT_TRUE(router.add_model("m1"));
  ASSERT_TRUE(router.start());
  net::TransportServer transport(router, {});
  ASSERT_TRUE(transport.start());

  shard::ShardProxyConfig pcfg;
  pcfg.connect_timeout = Micros(500'000);
  pcfg.health_interval = Micros(3'600'000'000);
  shard::ShardProxy proxy(pcfg);
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", transport.port(),
                                {"m0", "m1@int4"}));
  ASSERT_TRUE(proxy.start());

  MetricsHttpServer metrics([] { return std::string("fqbert_up 1\n"); });
  // Registered exactly as `fqbert_cli proxy` wires it.
  metrics.add_endpoint("/debug/placement", [&proxy](const std::string&) {
    return render_debug_placement(proxy);
  });
  ASSERT_TRUE(metrics.start("127.0.0.1", 0));

  const std::string body =
      get_json_body(metrics.port(), "/debug/placement");
  EXPECT_TRUE(JsonAcceptor(body).accept())
      << "/debug/placement returned invalid JSON: " << body;
  EXPECT_NE(body.find("\"epoch\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"policy\":\"explicit\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"default_model\":\"m0\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"address\":\"127.0.0.1:" +
                      std::to_string(transport.port()) + "\""),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"model\":\"m1\",\"tier\":4"), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"state\":\""), std::string::npos) << body;

  // A live placement change is visible on the very next scrape.
  std::string error;
  ASSERT_TRUE(proxy.admin_move_model("m1", 4, proxy.backend_status()[0].address,
                                     proxy.backend_status()[0].address, "",
                                     &error) == false);
  const std::string again =
      get_json_body(metrics.port(), "/debug/placement");
  EXPECT_TRUE(JsonAcceptor(again).accept()) << again;
  EXPECT_NE(again.find("\"epoch\":1"), std::string::npos)
      << "a refused mutation must not bump the rendered epoch: " << again;

  metrics.stop();
  proxy.stop();
  transport.stop();
  router.shutdown(/*drain=*/true);
}

TEST(MetricsHttpHardening, StallingClientIsDroppedAtTheDeadline) {
  MetricsHttpServer server([] { return std::string("up 1\n"); });
  HttpLimits limits;
  limits.request_deadline_ms = 150;
  server.set_limits(limits);
  ASSERT_TRUE(server.start("127.0.0.1", 0));

  // A slow-loris client: open, send half a request line, then stall.
  const auto t0 = std::chrono::steady_clock::now();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char* partial = "GET /met";
  ASSERT_GT(::send(fd, partial, std::strlen(partial), MSG_NOSIGNAL), 0);
  // Block on the response: the server must hang up at the deadline
  // without answering, long before this test's own timeout.
  char buf[64];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ::close(fd);
  EXPECT_LE(n, 0) << "a stalled request must never be answered";
  EXPECT_GE(elapsed, 100);
  EXPECT_LT(elapsed, 2000) << "the absolute deadline did not fire";

  // The listener survives and still serves well-behaved clients.
  EXPECT_NE(
      http_exchange(server.port(), "GET /metrics HTTP/1.1\r\n\r\n")
          .find("200 OK"),
      std::string::npos);
  server.stop();
}

TEST(MetricsHttpHardening, OverlongRequestLineIsDropped) {
  MetricsHttpServer server([] { return std::string("up 1\n"); });
  HttpLimits limits;
  limits.request_deadline_ms = 500;
  limits.max_request_line = 64;
  server.set_limits(limits);
  ASSERT_TRUE(server.start("127.0.0.1", 0));

  // A 64-byte-cap listener must drop a kilobyte request line — whether
  // the newline ever arrives or not — without answering.
  const std::string long_path(1024, 'A');
  EXPECT_EQ(http_exchange(server.port(),
                          "GET /" + long_path + " HTTP/1.1\r\n\r\n"),
            "");
  EXPECT_EQ(http_exchange(server.port(), long_path), "");

  // An in-bounds request still works afterwards.
  EXPECT_NE(
      http_exchange(server.port(), "GET /metrics HTTP/1.1\r\n\r\n")
          .find("200 OK"),
      std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace fqbert::serve
