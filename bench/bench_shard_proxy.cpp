// Shard proxy overhead and correctness: K models split across 2
// backend TransportServers behind one ShardProxy must be bit-identical
// to ONE ModelRouter holding all K models, and the added hop (client ->
// proxy -> backend -> proxy -> client vs client -> backend) is
// measured. Also reports failover behavior: one backend is killed
// mid-run and every request for a replicated model must still succeed.
//
//   ./build/bench/bench_shard_proxy [--fast]
#include <algorithm>
#include <chrono>

#include "bench_common.h"
#include "serve/loadgen.h"
#include "serve/net/transport_client.h"
#include "serve/net/transport_server.h"
#include "serve/router/model_router.h"
#include "serve/shard/shard_proxy.h"

namespace {

using namespace fqbert;
using namespace fqbert::bench;
using serve::Micros;

nn::BertConfig tiny_config() {
  nn::BertConfig c;
  c.vocab_size = 128;
  c.hidden = 16;
  c.num_layers = 2;
  c.num_heads = 2;
  c.ffn_dim = 32;
  c.max_seq_len = 32;
  c.num_classes = 2;
  return c;
}

std::shared_ptr<const core::FqBertModel> build_engine(uint64_t seed) {
  const nn::BertConfig config = tiny_config();
  Rng rng(seed);
  nn::BertModel model(config, rng);
  core::QatBert qat(model, core::FqQuantConfig::full());
  std::vector<nn::Example> calib;
  Rng data_rng(seed * 131 + 3);
  for (int i = 0; i < 12; ++i)
    calib.push_back(serve::synth_example(data_rng, 4 + (i % 3) * 6, config));
  qat.calibrate(calib);
  return std::make_shared<const core::FqBertModel>(
      core::FqBertModel::convert(qat));
}

struct BackendHost {
  serve::EngineRegistry registry;
  std::unique_ptr<serve::ModelRouter> router;
  std::unique_ptr<serve::net::TransportServer> transport;
  bool stopped = false;

  explicit BackendHost(
      const std::vector<std::pair<
          std::string, std::shared_ptr<const core::FqBertModel>>>& models) {
    serve::RouterConfig rcfg;
    rcfg.num_workers = 1;
    rcfg.max_batch = 8;
    router = std::make_unique<serve::ModelRouter>(registry, rcfg);
    for (const auto& [name, engine] : models) {
      registry.register_model(name, engine);
      router->add_model(name);
    }
    router->start();
    serve::net::TransportConfig tcfg;
    tcfg.port = 0;
    transport = std::make_unique<serve::net::TransportServer>(*router, tcfg);
    transport->start();
  }

  void kill() {
    if (stopped) return;
    transport->stop();
    router->shutdown(/*drain=*/true);
    stopped = true;
  }
  ~BackendHost() { kill(); }
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double p50(std::vector<double>& us) {
  if (us.empty()) return 0.0;
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = fast_mode(argc, argv);
  const int requests = fast ? 300 : 2000;
  const nn::BertConfig config = tiny_config();

  std::printf("building 3 tiny engines (random-weight, calibrated)...\n");
  auto e0 = build_engine(42), e1 = build_engine(43), e2 = build_engine(44);

  // Reference: ONE router holding all 3 models, fronted by a transport.
  serve::EngineRegistry ref_registry;
  ref_registry.register_model("m0", e0);
  ref_registry.register_model("m1", e1);
  ref_registry.register_model("m2", e2);
  serve::RouterConfig rcfg;
  rcfg.num_workers = 1;
  rcfg.max_batch = 8;
  serve::ModelRouter reference(ref_registry, rcfg);
  reference.add_model("m0");
  reference.add_model("m1");
  reference.add_model("m2");
  reference.start();
  serve::net::TransportConfig ref_tcfg;
  ref_tcfg.port = 0;
  serve::net::TransportServer ref_transport(reference, ref_tcfg);
  if (!ref_transport.start()) return 1;

  // Shard: m0+m1 on backend A, m1+m2 on backend B (m1 replicated),
  // one proxy in front.
  BackendHost a({{"m0", e0}, {"m1", e1}});
  BackendHost b({{"m1", e1}, {"m2", e2}});
  serve::shard::ShardProxyConfig pcfg;
  pcfg.health_interval = Micros(100'000);
  serve::shard::ShardProxy proxy(pcfg);
  if (!proxy.add_backend("127.0.0.1", a.transport->port(), {"m0", "m1"}) ||
      !proxy.add_backend("127.0.0.1", b.transport->port(), {"m1", "m2"}) ||
      !proxy.start())
    return 1;

  const char* models[3] = {"m0", "m1", "m2"};
  std::vector<nn::Example> workload;
  Rng rng(1234);
  const std::vector<int64_t> mix = {12, 16, 24};
  for (int i = 0; i < requests; ++i)
    workload.push_back(serve::synth_example(rng, rng.choice(mix), config));

  print_rule();
  std::printf("closed-loop single client, %d requests round-robin over "
              "m0/m1/m2, 2 backends + proxy vs 1 router\n",
              requests);

  serve::net::TransportClient direct, proxied;
  if (!direct.connect("127.0.0.1", ref_transport.port()) ||
      !proxied.connect("127.0.0.1", proxy.port())) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }
  for (int i = 0; i < 30; ++i) {  // warm both paths + pooled conns
    (void)direct.call(workload[static_cast<size_t>(i)], std::nullopt,
                      models[i % 3]);
    (void)proxied.call(workload[static_cast<size_t>(i)], std::nullopt,
                       models[i % 3]);
  }

  // (a) straight to the single router.
  std::vector<double> direct_us;
  std::vector<serve::ServeResponse> direct_responses;
  direct_us.reserve(workload.size());
  direct_responses.reserve(workload.size());
  uint64_t failures = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    const double s = now_s();
    const auto resp =
        direct.call(workload[i], std::nullopt, models[i % 3]);
    direct_us.push_back((now_s() - s) * 1e6);
    if (!resp || resp->status != serve::RequestStatus::kOk) {
      ++failures;
      direct_responses.emplace_back();
      continue;
    }
    direct_responses.push_back(*resp);
  }

  // (b) through the proxy, verifying bit-identical logits.
  std::vector<double> proxy_us;
  proxy_us.reserve(workload.size());
  uint64_t mismatches = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    const double s = now_s();
    const auto resp =
        proxied.call(workload[i], std::nullopt, models[i % 3]);
    proxy_us.push_back((now_s() - s) * 1e6);
    if (!resp || resp->status != serve::RequestStatus::kOk) {
      ++failures;
      continue;
    }
    if (resp->logits != direct_responses[i].logits ||
        resp->predicted != direct_responses[i].predicted)
      ++mismatches;
  }

  // (c) failover drill: kill backend A mid-stream; every m1 request
  // (replicated on B) must still succeed.
  const int drill = fast ? 60 : 300;
  uint64_t drill_failures = 0;
  for (int i = 0; i < drill; ++i) {
    if (i == drill / 3) a.kill();
    const auto resp = proxied.call(workload[static_cast<size_t>(i)],
                                   std::nullopt, "m1");
    if (!resp || resp->status != serve::RequestStatus::kOk)
      ++drill_failures;
  }
  const serve::shard::ShardProxy::Counters counters = proxy.counters();

  proxy.stop();
  a.kill();
  b.kill();
  ref_transport.stop();
  reference.shutdown(/*drain=*/true);

  const double direct_p50 = p50(direct_us);
  const double proxy_p50 = p50(proxy_us);
  print_rule();
  std::printf("%-26s %10s\n", "path", "p50 us");
  std::printf("%-26s %10.1f\n", "client -> router", direct_p50);
  std::printf("%-26s %10.1f\n", "client -> proxy -> router", proxy_p50);
  print_rule();
  std::printf("proxy hop: %+.1f us p50 (%.2fx); %llu mismatches, %llu "
              "transport failures\n",
              proxy_p50 - direct_p50,
              direct_p50 > 0 ? proxy_p50 / direct_p50 : 0.0,
              static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(failures));
  std::printf("failover drill: %d m1 requests across a backend death, %llu "
              "client-visible failures (proxy: %llu failovers, %llu "
              "exhausted)\n",
              drill, static_cast<unsigned long long>(drill_failures),
              static_cast<unsigned long long>(counters.failovers),
              static_cast<unsigned long long>(counters.exhausted));
  const bool ok = mismatches == 0 && failures == 0 && drill_failures == 0 &&
                  counters.failovers >= 1;
  if (!ok) std::printf("FAIL\n");
  return ok ? 0 : 1;
}
