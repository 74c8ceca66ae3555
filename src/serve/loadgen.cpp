#include "serve/loadgen.h"

#include <algorithm>
#include <iterator>
#include <thread>

#include "platform/thread_annotations.h"
#include "serve/net/transport_client.h"
#include "serve/router/model_router.h"

namespace fqbert::serve {

namespace {

/// Per-client tallies, merged into the shared report once per thread.
struct ClientTally {
  uint64_t sent = 0, ok = 0, rejected = 0, timed_out = 0, failed = 0;
  QuantileSketch latency_us;
  std::vector<TraceSample> traces;
  std::vector<RequestRecord> records;

  void count(RequestStatus status, int64_t wall_us) {
    switch (status) {
      case RequestStatus::kOk:
        ++ok;
        latency_us.record(wall_us);
        break;
      case RequestStatus::kRejectedQueueFull:
      case RequestStatus::kRejectedDeadline:
      case RequestStatus::kRejectedInvalid:
      case RequestStatus::kRejectedUnknownModel:
      case RequestStatus::kRejectedUnknownTier: ++rejected; break;
      case RequestStatus::kTimedOut: ++timed_out; break;
      case RequestStatus::kEngineError:
      case RequestStatus::kShutdown: ++failed; break;
    }
  }

  void merge_into(LoadgenReport& report, Mutex& mu) {
    MutexLock lock(mu);
    report.sent += sent;
    report.ok += ok;
    report.rejected += rejected;
    report.timed_out += timed_out;
    report.failed += failed;
    report.latency_us.merge(latency_us);
    report.traces.insert(report.traces.end(),
                         std::make_move_iterator(traces.begin()),
                         std::make_move_iterator(traces.end()));
    report.records.insert(report.records.end(),
                          std::make_move_iterator(records.begin()),
                          std::make_move_iterator(records.end()));
  }
};

int64_t us_since(TimePoint t0) {
  return std::chrono::duration_cast<Micros>(Clock::now() - t0).count();
}

int64_t pick_len(Rng& rng, const LoadgenConfig& cfg,
                 const nn::BertConfig& engine_config) {
  return cfg.seq_len_mix.empty() ? engine_config.max_seq_len
                                 : rng.choice(cfg.seq_len_mix);
}

}  // namespace

nn::Example synth_example(Rng& rng, int64_t seq_len,
                          const nn::BertConfig& config) {
  // Admission accepts [1, max_seq_len]; prefer >= 2 (a CLS anchor plus
  // at least one content token) when the engine allows it. The bounds
  // are ordered even for degenerate configs — std::clamp with lo > hi
  // and randint over an empty range are UB, not just wrong.
  const int64_t hi = std::max<int64_t>(1, config.max_seq_len);
  const int64_t lo = std::min<int64_t>(2, hi);
  const int64_t len = std::clamp<int64_t>(seq_len, lo, hi);
  nn::Example ex;
  ex.tokens.resize(static_cast<size_t>(len));
  ex.tokens[0] = 0;  // CLS anchor
  for (int64_t i = 1; i < len; ++i)
    ex.tokens[static_cast<size_t>(i)] =
        config.vocab_size > 1
            ? static_cast<int32_t>(rng.randint(1, config.vocab_size - 1))
            : 0;
  ex.segments.assign(static_cast<size_t>(len), 0);
  return ex;
}

LoadgenReport run_loadgen(ModelRouter& router,
                          const nn::BertConfig& engine_config,
                          const LoadgenConfig& cfg) {
  LoadgenReport report;
  Mutex report_mu;

  const TimePoint t0 = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(cfg.num_clients));
  for (int c = 0; c < cfg.num_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(cfg.seed * 7919 + static_cast<uint64_t>(c));
      ClientTally tally;
      for (int i = 0; i < cfg.requests_per_client; ++i) {
        nn::Example ex =
            synth_example(rng, pick_len(rng, cfg, engine_config),
                          engine_config);
        const TimePoint sent_at = Clock::now();
        auto fut = router.submit("", std::move(ex), cfg.deadline_budget);
        ++tally.sent;
        const ServeResponse resp = fut.get();  // closed loop
        const int64_t wall = us_since(sent_at);
        tally.count(resp.status, wall);
        if (cfg.collect_records)
          tally.records.push_back(
              {resp.trace_id, "", resp.tier, resp.status, wall, resp.trace});
      }
      tally.merge_into(report, report_mu);
    });
  }
  for (std::thread& t : clients) t.join();
  report.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return report;
}

LoadgenReport run_loadgen_remote(const std::string& host, uint16_t port,
                                 const nn::BertConfig& engine_config,
                                 const LoadgenConfig& cfg) {
  return run_loadgen_remote(host, port,
                            {RemoteModelTarget{"", engine_config}}, cfg);
}

LoadgenReport run_loadgen_remote(
    const std::string& host, uint16_t port,
    const std::vector<RemoteModelTarget>& models, const LoadgenConfig& cfg) {
  LoadgenReport report;
  Mutex report_mu;
  if (models.empty()) return report;

  const TimePoint t0 = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(cfg.num_clients));
  for (int c = 0; c < cfg.num_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(cfg.seed * 7919 + static_cast<uint64_t>(c));
      net::TransportClient client;
      ClientTally tally;
      for (int i = 0; i < cfg.requests_per_client; ++i) {
        ++tally.sent;
        // The model draw happens even on skipped iterations so the
        // request stream per model is reconnect-independent.
        const RemoteModelTarget& target =
            models.size() == 1
                ? models.front()
                : models[static_cast<size_t>(rng.randint(
                      0, static_cast<int64_t>(models.size()) - 1))];
        if (!client.connected() && !client.connect(host, port)) {
          ++tally.failed;
          if (cfg.collect_records)
            tally.records.push_back({0, target.name, target.tier,
                                     RequestStatus::kEngineError, 0, {}});
          continue;
        }
        const nn::Example ex =
            synth_example(rng, pick_len(rng, cfg, target.config),
                          target.config);
        // Every trace_every-th request per client carries a minted
        // trace id; its response comes back with per-stage timestamps.
        const bool traced =
            cfg.trace_every > 0 && i % cfg.trace_every == 0;
        const uint64_t trace_id = traced ? mint_trace_id() : 0;
        const TimePoint sent_at = Clock::now();
        const std::optional<ServeResponse> resp =
            client.call(ex, cfg.deadline_budget, target.name, trace_id,
                        target.tier);
        if (!resp) {
          // Transport failure; the client closed itself and the next
          // iteration reconnects.
          ++tally.failed;
          if (cfg.collect_records)
            tally.records.push_back({trace_id, target.name, target.tier,
                                     RequestStatus::kEngineError,
                                     us_since(sent_at),
                                     {}});
          continue;
        }
        const int64_t wall = us_since(sent_at);
        tally.count(resp->status, wall);
        if (traced && resp->trace_id != 0 && !resp->trace.empty())
          tally.traces.push_back({resp->trace_id, wall, resp->trace});
        if (cfg.collect_records)
          tally.records.push_back({resp->trace_id, target.name, resp->tier,
                                   resp->status, wall, resp->trace});
      }
      tally.merge_into(report, report_mu);
    });
  }
  for (std::thread& t : clients) t.join();
  report.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return report;
}

}  // namespace fqbert::serve
