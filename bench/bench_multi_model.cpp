// Multi-tenant router bench: K models served by ONE ModelRouter (one
// shared worker set, per-model lanes) versus K dedicated single-lane
// routers with one worker each — one server per model. The same
// closed-loop per-model client streams drive both setups; every
// response from the shared router is verified bit-identical to the
// dedicated router's response for the same example, and per-model
// p50/p95 plus aggregate throughput are reported for both.
//
//   ./build/bench/bench_multi_model [--fast]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "bench_common.h"
#include "serve/loadgen.h"
#include "serve/router/model_router.h"

namespace {

using namespace fqbert;
using namespace fqbert::bench;

struct ModelSpec {
  std::string name;
  nn::BertConfig config;
  std::shared_ptr<const core::FqBertModel> engine;
};

/// Random-weight calibrated engines: accuracy is irrelevant here, the
/// integer serving path and its cost are shape-driven. Distinct seeds
/// give distinct logits so cross-model routing errors cannot hide.
ModelSpec make_model(const std::string& name, int64_t hidden,
                     int64_t num_heads, int64_t max_seq_len, uint64_t seed) {
  ModelSpec spec;
  spec.name = name;
  spec.config.vocab_size = 256;
  spec.config.hidden = hidden;
  spec.config.num_layers = 2;
  spec.config.num_heads = num_heads;
  spec.config.ffn_dim = hidden * 2;
  spec.config.max_seq_len = max_seq_len;
  spec.config.num_classes = 2;
  Rng rng(seed);
  nn::BertModel model(spec.config, rng);
  core::QatBert qat(model, core::FqQuantConfig::full());
  std::vector<nn::Example> calib;
  Rng data_rng(seed + 1);
  for (int i = 0; i < 12; ++i)
    calib.push_back(
        serve::synth_example(data_rng, 6 + (i % 3) * 4, spec.config));
  qat.calibrate(calib);
  spec.engine = std::make_shared<const core::FqBertModel>(
      core::FqBertModel::convert(qat));
  return spec;
}

struct PerModelResult {
  double p50_ms = 0, p95_ms = 0;
  uint64_t ok = 0;
};

PerModelResult summarize(std::vector<double>& ms) {
  std::sort(ms.begin(), ms.end());
  PerModelResult r;
  r.ok = ms.size();
  if (ms.empty()) return r;
  r.p50_ms = ms[ms.size() / 2];
  r.p95_ms = ms[std::min(ms.size() - 1, ms.size() * 95 / 100)];
  return r;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = fast_mode(argc, argv);
  const int per_model = fast ? 150 : 1000;
  constexpr int kClientsPerModel = 2;

  std::printf("building 3 engines (distinct shapes/weights)...\n");
  std::vector<ModelSpec> models;
  models.push_back(make_model("sst2-small", 32, 2, 32, 11));
  models.push_back(make_model("sst2-wide", 64, 4, 32, 22));
  models.push_back(make_model("mnli-short", 48, 3, 16, 33));
  const size_t K = models.size();

  // Pre-generate identical per-model workloads for both setups.
  std::vector<std::vector<nn::Example>> workloads(K);
  for (size_t m = 0; m < K; ++m) {
    Rng rng(1000 + m);
    for (int i = 0; i < per_model; ++i)
      workloads[m].push_back(serve::synth_example(
          rng, 4 + rng.randint(0, models[m].config.max_seq_len - 4),
          models[m].config));
  }

  constexpr int64_t kMaxBatch = 8;

  // -------------------------------------------------------------------
  // Setup A: K dedicated single-lane routers, 1 worker each.
  // -------------------------------------------------------------------
  serve::RouterConfig dedicated_cfg;
  dedicated_cfg.num_workers = 1;
  dedicated_cfg.max_batch = kMaxBatch;
  std::vector<serve::EngineRegistry> registries(K);
  std::vector<std::unique_ptr<serve::ModelRouter>> dedicated;
  for (size_t m = 0; m < K; ++m) {
    registries[m].register_model(models[m].name, models[m].engine);
    dedicated.push_back(
        std::make_unique<serve::ModelRouter>(registries[m], dedicated_cfg));
    if (!dedicated.back()->add_model(models[m].name)) return 1;
    dedicated.back()->start();
  }

  std::vector<std::vector<serve::ServeResponse>> dedicated_responses(K);
  std::vector<std::vector<double>> dedicated_ms(K);
  for (size_t m = 0; m < K; ++m) {
    dedicated_responses[m].resize(workloads[m].size());
    dedicated_ms[m].reserve(workloads[m].size());
  }
  double t0 = now_s();
  {
    std::vector<std::thread> threads;
    for (size_t m = 0; m < K; ++m) {
      for (int c = 0; c < kClientsPerModel; ++c) {
        threads.emplace_back([&, m, c] {
          for (size_t i = static_cast<size_t>(c);
               i < workloads[m].size();
               i += kClientsPerModel) {
            const double s = now_s();
            dedicated_responses[m][i] =
                dedicated[m]->submit("", workloads[m][i]).get();
            const double ms = (now_s() - s) * 1e3;
            static std::mutex mu;
            std::lock_guard<std::mutex> lock(mu);
            dedicated_ms[m].push_back(ms);
          }
        });
      }
    }
    for (auto& t : threads) t.join();
  }
  const double dedicated_wall = now_s() - t0;
  for (auto& d : dedicated) d->shutdown(/*drain=*/true);

  // -------------------------------------------------------------------
  // Setup B: ONE router, K lanes, K shared workers.
  // -------------------------------------------------------------------
  serve::EngineRegistry registry;
  for (const ModelSpec& spec : models)
    registry.register_model(spec.name, spec.engine);
  serve::RouterConfig rcfg;
  rcfg.num_workers = static_cast<int>(K);
  rcfg.max_batch = kMaxBatch;
  serve::ModelRouter router(registry, rcfg);
  for (const ModelSpec& spec : models)
    if (!router.add_model(spec.name)) return 1;
  router.start();

  std::atomic<uint64_t> mismatches{0};
  std::vector<std::vector<double>> router_ms(K);
  t0 = now_s();
  {
    std::vector<std::thread> threads;
    for (size_t m = 0; m < K; ++m) {
      router_ms[m].reserve(workloads[m].size());
      for (int c = 0; c < kClientsPerModel; ++c) {
        threads.emplace_back([&, m, c] {
          for (size_t i = static_cast<size_t>(c);
               i < workloads[m].size();
               i += kClientsPerModel) {
            const double s = now_s();
            const serve::ServeResponse resp =
                router.submit(models[m].name, workloads[m][i]).get();
            const double ms = (now_s() - s) * 1e3;
            // Bit-for-bit against the dedicated router's answer.
            const serve::ServeResponse& ref = dedicated_responses[m][i];
            if (resp.status != serve::RequestStatus::kOk ||
                ref.status != serve::RequestStatus::kOk ||
                resp.logits != ref.logits ||
                resp.predicted != ref.predicted)
              mismatches.fetch_add(1);
            static std::mutex mu;
            std::lock_guard<std::mutex> lock(mu);
            router_ms[m].push_back(ms);
          }
        });
      }
    }
    for (auto& t : threads) t.join();
  }
  const double router_wall = now_s() - t0;
  router.shutdown(/*drain=*/true);

  // -------------------------------------------------------------------
  // Report.
  // -------------------------------------------------------------------
  print_rule();
  std::printf("%zu models x %d requests, %d closed-loop clients per model, "
              "batch %lld (hw threads: %u)\n",
              K, per_model, kClientsPerModel,
              static_cast<long long>(kMaxBatch),
              std::thread::hardware_concurrency());
  print_rule();
  std::printf("%-14s %-26s %-26s\n", "", "K dedicated routers",
              "one router, K lanes");
  std::printf("%-14s %8s %8s %8s %8s %8s %8s\n", "model", "p50 ms",
              "p95 ms", "ok", "p50 ms", "p95 ms", "ok");
  for (size_t m = 0; m < K; ++m) {
    const PerModelResult d = summarize(dedicated_ms[m]);
    const PerModelResult r = summarize(router_ms[m]);
    std::printf("%-14s %8.2f %8.2f %8llu %8.2f %8.2f %8llu\n",
                models[m].name.c_str(), d.p50_ms, d.p95_ms,
                static_cast<unsigned long long>(d.ok), r.p50_ms, r.p95_ms,
                static_cast<unsigned long long>(r.ok));
  }
  print_rule();
  const double total = static_cast<double>(K) * per_model;
  std::printf("aggregate: %.1f req/s dedicated vs %.1f req/s router "
              "(%.2fx); %llu bit-mismatches\n",
              total / dedicated_wall, total / router_wall,
              dedicated_wall / router_wall,
              static_cast<unsigned long long>(mismatches.load()));
  bool balanced = true;
  for (const auto& [name, lane_tier, st] : router.all_stats()) {
    if (!st.accounting_balances()) {
      std::printf("UNBALANCED lane %s@int%d\n", name.c_str(), lane_tier);
      balanced = false;
    }
  }
  std::printf("per-lane accounting: %s\n",
              balanced ? "all balanced" : "MISMATCH");
  return mismatches.load() == 0 && balanced ? 0 : 1;
}
