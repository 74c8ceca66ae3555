// Closed-loop synthetic load generator: N client threads, each
// submitting one request and blocking on its future before sending the
// next (the classic closed-loop model, so offered concurrency ==
// num_clients). Used by the `serve` / `loadgen` CLI subcommands and by
// bench_serve_throughput.
#pragma once

#include "serve/quantile_sketch.h"
#include "serve/request_queue.h"
#include "serve/trace.h"
#include "tensor/rng.h"

namespace fqbert::serve {

class ModelRouter;

struct LoadgenConfig {
  int num_clients = 4;
  int requests_per_client = 100;
  /// Sequence lengths sampled uniformly per request (clamped to the
  /// engine's max_seq_len).
  std::vector<int64_t> seq_len_mix{12, 16, 24};
  std::optional<Micros> deadline_budget;
  uint64_t seed = 1;
  /// Remote runs: trace every Nth request per client (a minted trace id
  /// rides the v3 frame; the response's per-stage timestamps land in
  /// LoadgenReport::traces). 0 disables sampling.
  int trace_every = 0;
  /// Keep one RequestRecord per request in LoadgenReport::records (the
  /// `--latency-csv` feed). Off by default: a long run's rows would
  /// otherwise grow the report unboundedly for nothing.
  bool collect_records = false;
};

/// One sampled end-to-end trace: the id, the client-observed wall
/// latency, and every stage the serving path stamped (admission /
/// batch / worker on a direct connection; plus the proxy hop's
/// received / forward / retry / response stages when routed through
/// one — a failover is visible as a kProxyRetry between forwards).
struct TraceSample {
  uint64_t trace_id = 0;
  int64_t wall_us = 0;
  std::vector<TraceEvent> stages;
};

/// One per-request row (collect_records): identity, outcome, wall
/// latency, and — when the request rode a trace id — its per-stage
/// timestamps. A transport-level failure records kEngineError with no
/// stages.
struct RequestRecord {
  uint64_t trace_id = 0;
  std::string model;  // "" = the server's default model
  uint8_t tier = 0;
  RequestStatus status = RequestStatus::kOk;
  int64_t latency_us = 0;
  std::vector<TraceEvent> stages;
};

struct LoadgenReport {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t rejected = 0;   // queue-full or dead-on-arrival
  uint64_t timed_out = 0;  // admitted but expired in queue
  uint64_t failed = 0;     // shutdown / engine error
  double wall_s = 0.0;
  /// Client-observed latency of every kOk response, in the same
  /// mergeable sketch the server uses — so the client can print an
  /// exact-to-relative-error p99.9 no matter how long the run was.
  QuantileSketch latency_us;
  /// Sampled traces (trace_every > 0, remote runs only).
  std::vector<TraceSample> traces;
  /// Every request's row (collect_records only), client order within a
  /// thread, threads interleaved by completion.
  std::vector<RequestRecord> records;

  double throughput_rps() const {
    return wall_s > 0.0 ? static_cast<double>(ok) / wall_s : 0.0;
  }
  double latency_ms(double q) const { return latency_us.quantile_ms(q); }
};

/// Random token sequence shaped like the engine's inputs (token 0
/// reserved as [CLS]-ish anchor so batched CLS rows are well-defined).
/// Always admitted by a router lane serving the same config: length
/// clamped to [min(2, max_seq_len), max_seq_len], token ids within
/// vocab — degenerate configs (max_seq_len or vocab_size of 1) are
/// handled instead of feeding inverted ranges to clamp/randint.
nn::Example synth_example(Rng& rng, int64_t seq_len,
                          const nn::BertConfig& config);

/// Drive `router`'s default model closed-loop; blocks until every
/// client finishes. An empty seq_len_mix falls back to the engine's
/// max_seq_len.
LoadgenReport run_loadgen(ModelRouter& router,
                          const nn::BertConfig& engine_config,
                          const LoadgenConfig& cfg);

/// One model in a remote multi-model traffic mix: requests carry `name`
/// (and, when non-zero, the precision `tier`) on the wire and are
/// synthesized against `config` (each served model can have a
/// different shape).
struct RemoteModelTarget {
  std::string name;  // "" = the server's default model
  nn::BertConfig config;
  uint8_t tier = 0;  // weight bit-width; 0 = the model's default tier
};

/// Remote flavor of run_loadgen: each client thread keeps ONE
/// persistent TransportClient connection to host:port for its whole
/// closed loop (reconnect-on-error only — per-request reconnects cost
/// ~25 us p50 on loopback; bench_net_overhead asserts the persistent
/// path wins). Transport-level failures (connect/send/recv/protocol)
/// count as `failed` and the next iteration reconnects.
LoadgenReport run_loadgen_remote(const std::string& host, uint16_t port,
                                 const nn::BertConfig& engine_config,
                                 const LoadgenConfig& cfg);

/// Multi-model traffic mix across the wire: every request picks a model
/// uniformly (seeded) from `models` and is routed to it by name —
/// exercising several router lanes from one closed-loop client fleet.
/// `models` must be non-empty.
LoadgenReport run_loadgen_remote(const std::string& host, uint16_t port,
                                 const std::vector<RemoteModelTarget>& models,
                                 const LoadgenConfig& cfg);

}  // namespace fqbert::serve
