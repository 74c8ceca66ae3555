// /metrics exposition tests: the renderers produce structurally valid
// Prometheus text (every sample line parses, every family has HELP and
// TYPE heads, label values escaped), the counters they report balance
// the same way the wire STATS do, and MetricsHttpServer serves the
// rendered body over real HTTP GET — including the 404/405/garbage
// paths a port scanner will exercise.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "serve/build_info.h"
#include "serve/loadgen.h"
#include "serve/metrics_http.h"
#include "serve/metrics_text.h"
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

/// Raw HTTP exchange against 127.0.0.1:port: send `request`, read to
/// connection close, return everything.
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

std::string http_get(uint16_t port, const std::string& path) {
  return http_exchange(port, "GET " + path + " HTTP/1.1\r\n"
                             "Host: localhost\r\nAccept: */*\r\n\r\n");
}

/// Value of one exposition series, matched on the exact
/// `name{labels}` prefix before the space.
std::optional<double> series_value(const std::string& text,
                                   const std::string& series) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(series + " ", 0) == 0)
      return std::stod(line.substr(series.size() + 1));
  return std::nullopt;
}

/// Structural validation of the whole exposition body: comment lines
/// are HELP/TYPE heads, sample lines are `name[{labels}] value` with a
/// legal metric name, balanced braces and a parseable value, and every
/// sampled family was declared by a TYPE head first.
void expect_valid_exposition(const std::string& text) {
  std::set<std::string> typed;
  std::istringstream in(text);
  std::string line;
  int samples = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      const bool help = line.rfind("# HELP ", 0) == 0;
      const bool type = line.rfind("# TYPE ", 0) == 0;
      ASSERT_TRUE(help || type) << line;
      const std::string rest = line.substr(7);
      const size_t sp = rest.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      if (type) typed.insert(rest.substr(0, sp));
      continue;
    }
    // Sample line.
    const size_t brace = line.find('{');
    std::string name;
    size_t value_at;
    if (brace != std::string::npos) {
      name = line.substr(0, brace);
      const size_t close = line.find('}', brace);
      ASSERT_NE(close, std::string::npos) << line;
      ASSERT_LT(close + 1, line.size()) << line;
      ASSERT_EQ(line[close + 1], ' ') << line;
      value_at = close + 2;
      // Label pairs: key="value" with escaped quotes inside.
      const std::string labels = line.substr(brace + 1, close - brace - 1);
      ASSERT_FALSE(labels.empty()) << line;
      ASSERT_EQ(std::count(labels.begin(), labels.end(), '='),
                std::count(labels.begin(), labels.end(), ',') + 1)
          << line;
    } else {
      const size_t sp = line.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      name = line.substr(0, sp);
      value_at = sp + 1;
    }
    ASSERT_FALSE(name.empty()) << line;
    for (const char c : name)
      ASSERT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_')
          << line;
    size_t parsed = 0;
    const std::string value = line.substr(value_at);
    EXPECT_NO_THROW({
      (void)std::stod(value, &parsed);
      EXPECT_EQ(parsed, value.size()) << line;
    }) << line;
    // _count samples belong to their summary family's TYPE head.
    std::string family = name;
    const size_t suffix = family.rfind("_count");
    if (suffix != std::string::npos && suffix == family.size() - 6)
      family = family.substr(0, suffix);
    EXPECT_TRUE(typed.count(name) || typed.count(family))
        << "sample without TYPE head: " << line;
    ++samples;
  }
  EXPECT_GT(samples, 0);
}

TEST(MetricsHttp, ServesRenderedBodyAndRejectsEverythingElse) {
  int scrapes = 0;
  MetricsHttpServer server([&scrapes] {
    ++scrapes;
    return std::string("fqbert_up 1\n");
  });
  ASSERT_TRUE(server.start("127.0.0.1", 0));
  ASSERT_NE(server.port(), 0);

  const std::string ok = http_get(server.port(), "/metrics");
  EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(ok.find("Content-Length: 12"), std::string::npos) << ok;
  EXPECT_NE(ok.find("fqbert_up 1\n"), std::string::npos);
  EXPECT_EQ(scrapes, 1);

  // Query strings are the same endpoint.
  const std::string with_query = http_get(server.port(), "/metrics?x=1");
  EXPECT_NE(with_query.find("200 OK"), std::string::npos);

  // Unknown path, wrong method, line noise: the renderer never runs.
  EXPECT_NE(http_get(server.port(), "/").find("404"), std::string::npos);
  EXPECT_NE(http_exchange(server.port(),
                          "POST /metrics HTTP/1.1\r\n\r\n")
                .find("405"),
            std::string::npos);
  EXPECT_EQ(http_exchange(server.port(), "\x01\x02garbage\r\n\r\n")
                .find("200"),
            std::string::npos);
  EXPECT_EQ(scrapes, 2);

  // The listener survives all of the above and still answers.
  EXPECT_NE(http_get(server.port(), "/metrics").find("200 OK"),
            std::string::npos);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(MetricsText, RouterExpositionIsValidAndBalances) {
  EngineRegistry registry;
  registry.register_model("m0", build_engine(42));
  registry.register_model("m1", build_engine(43));
  RouterConfig rcfg;
  rcfg.num_workers = 1;
  rcfg.max_batch = 4;
  ModelRouter router(registry, rcfg);
  ASSERT_TRUE(router.add_model("m0"));
  ASSERT_TRUE(router.add_model("m1"));
  ASSERT_TRUE(router.start());

  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const auto resp =
        router.submit(i % 2 ? "m1" : "m0",
                      synth_example(rng, 8, tiny_config()))
            .get();
    ASSERT_EQ(resp.status, RequestStatus::kOk);
  }

  const std::string text = render_router_metrics(router);
  expect_valid_exposition(text);

  // The build-identity gauge leads the exposition: constant 1, all four
  // identity labels present and matching the process's own build info.
  EXPECT_EQ(text.rfind("# HELP fqbert_build_info", 0), 0u);
  EXPECT_EQ(series_value(text, std::string("fqbert_build_info{version=\"") +
                                   build_version() + "\",git_sha=\"" +
                                   build_git_sha() + "\",compiler=\"" +
                                   build_compiler() + "\",sanitizer=\"" +
                                   build_sanitizer() + "\",kernel=\"" +
                                   build_kernel() + "\"}"),
            1.0);
  // The kernel label names one of the targets the engine can pick.
  EXPECT_TRUE(std::string(build_kernel()) == "avx512_vnni" ||
              std::string(build_kernel()) == "avx2" ||
              std::string(build_kernel()) == "portable")
      << build_kernel();
  EXPECT_NE(build_info_string().find(std::string(" kernel=") +
                                     build_kernel()),
            std::string::npos);

  // Lanes scrape as (model, tier) rows; FqQuantConfig::full() engines
  // carry 4-bit weights, so the default lane scrapes as tier="4".
  for (const char* model : {"m0", "m1"}) {
    const std::string m =
        std::string("{model=\"") + model + "\",tier=\"4\"";
    const auto admitted =
        series_value(text, "fqbert_requests_total" + m +
                               ",outcome=\"admitted\"}");
    const auto completed =
        series_value(text, "fqbert_requests_total" + m +
                               ",outcome=\"completed\"}");
    const auto timed_out =
        series_value(text, "fqbert_requests_total" + m +
                               ",outcome=\"timed_out\"}");
    const auto failed = series_value(
        text, "fqbert_requests_total" + m + ",outcome=\"failed\"}");
    ASSERT_TRUE(admitted && completed && timed_out && failed) << text;
    EXPECT_EQ(*admitted, 10.0);
    // The accounting invariant holds in the exposition, not just the
    // wire STATS: admitted == completed + timed_out + failed.
    EXPECT_EQ(*admitted, *completed + *timed_out + *failed);
    // The summary quantiles and their sample count are present.
    EXPECT_TRUE(series_value(text, "fqbert_latency_ms" + m +
                                       ",quantile=\"0.999\"}"));
    EXPECT_EQ(series_value(text, "fqbert_latency_ms_count" + m + "}"),
              *completed);
    EXPECT_EQ(series_value(text, "fqbert_queue_depth" + m + "}"), 0.0);
  }
  EXPECT_TRUE(series_value(text, "fqbert_workers"));
  EXPECT_TRUE(series_value(text, "fqbert_uptime_seconds"));

  router.shutdown(/*drain=*/true);
}

TEST(MetricsText, EndToEndScrapeOverHttpMatchesRouterState) {
  EngineRegistry registry;
  registry.register_model("m0", build_engine(42));
  RouterConfig rcfg;
  rcfg.num_workers = 1;
  ModelRouter router(registry, rcfg);
  ASSERT_TRUE(router.add_model("m0"));
  ASSERT_TRUE(router.start());

  MetricsHttpServer metrics(
      [&router] { return render_router_metrics(router); });
  ASSERT_TRUE(metrics.start("127.0.0.1", 0));

  Rng rng(9);
  for (int i = 0; i < 7; ++i)
    ASSERT_EQ(router.submit("m0", synth_example(rng, 8, tiny_config()))
                  .get()
                  .status,
              RequestStatus::kOk);

  const std::string response = http_get(metrics.port(), "/metrics");
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  expect_valid_exposition(body);
  EXPECT_EQ(series_value(body,
                         "fqbert_requests_total{model=\"m0\",tier=\"4\","
                         "outcome=\"completed\"}"),
            7.0);

  metrics.stop();
  router.shutdown(/*drain=*/true);
}

TEST(MetricsText, ProxyExpositionCoversBackendsAndFleetQuantiles) {
  EngineRegistry reg_a, reg_b;
  const auto engine = build_engine(42);
  reg_a.register_model("m0", engine);
  reg_b.register_model("m0", engine);
  RouterConfig rcfg;
  rcfg.num_workers = 1;
  ModelRouter router_a(reg_a, rcfg), router_b(reg_b, rcfg);
  ASSERT_TRUE(router_a.add_model("m0") && router_a.start());
  ASSERT_TRUE(router_b.add_model("m0") && router_b.start());
  net::TransportServer transport_a(router_a, {});
  net::TransportServer transport_b(router_b, {});
  ASSERT_TRUE(transport_a.start() && transport_b.start());

  shard::ShardProxyConfig pcfg;
  pcfg.health_interval = Micros(3'600'000'000);
  shard::ShardProxy proxy(pcfg);
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", transport_a.port(), {"m0"}));
  ASSERT_TRUE(proxy.add_backend("127.0.0.1", transport_b.port(), {"m0"}));
  ASSERT_TRUE(proxy.start());

  LoadgenConfig lcfg;
  lcfg.num_clients = 2;
  lcfg.requests_per_client = 10;
  const LoadgenReport lg = run_loadgen_remote(
      "127.0.0.1", proxy.port(), {{"m0", tiny_config()}}, lcfg);
  ASSERT_EQ(lg.ok, 20u);

  const std::string text = render_proxy_metrics(proxy);
  expect_valid_exposition(text);
  // The proxy exposition carries the same build-identity gauge as a
  // backend's own /metrics, so fleet dashboards can join on it.
  EXPECT_NE(text.find(std::string("fqbert_build_info{version=\"") +
                      build_version() + "\""),
            std::string::npos);
  EXPECT_EQ(series_value(text, "fqbert_proxy_served_total"), 20.0);
  EXPECT_EQ(series_value(text, "fqbert_proxy_exhausted_total"), 0.0);

  // Exactly one state per backend is hot, and both are healthy.
  for (const auto& status : proxy.backend_status()) {
    const std::string be = "{backend=\"" + status.address + "\"";
    double hot = 0.0;
    for (const char* state : {"healthy", "suspect", "down"}) {
      const auto v = series_value(text, "fqbert_backend_state" + be +
                                            ",state=\"" + state + "\"}");
      ASSERT_TRUE(v.has_value()) << text;
      hot += *v;
    }
    EXPECT_EQ(hot, 1.0);
    EXPECT_EQ(series_value(text, "fqbert_backend_state" + be +
                                     ",state=\"healthy\"}"),
              1.0);
  }

  // Fleet-wide per-model stats rode in via the STATS fan-out: the
  // completed count across both backends is every loadgen success.
  // Generic (un-pinned) placement declarations aggregate under
  // tier="0" — the backend's default lane.
  EXPECT_EQ(series_value(text,
                         "fqbert_requests_total{model=\"m0\",tier=\"0\","
                         "outcome=\"completed\"}"),
            20.0);
  EXPECT_TRUE(series_value(
      text, "fqbert_latency_ms{model=\"m0\",tier=\"0\",quantile=\"0.999\"}"));

  proxy.stop();
  router_a.shutdown(true);
  router_b.shutdown(true);
}

}  // namespace
}  // namespace fqbert::serve
