#include "serve/metrics_text.h"

#include <cinttypes>
#include <cstdio>
#include <utility>
#include <vector>

#include "serve/build_info.h"
#include "serve/router/model_router.h"
#include "serve/shard/shard_proxy.h"

namespace fqbert::serve {

namespace {

/// Escape a label value per the exposition format: backslash, double
/// quote and newline. Model names and addresses never contain these,
/// but the renderer must not be the component that trusts that.
std::string escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void head(std::string& out, const char* name, const char* help,
          const char* type) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void sample_u64(std::string& out, const char* name, const std::string& labels,
                uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += buf;
  out += '\n';
}

void sample_f64(std::string& out, const char* name, const std::string& labels,
                double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += buf;
  out += '\n';
}

std::string model_label(const std::string& model, int tier) {
  return "model=\"" + escape_label(model) + "\",tier=\"" +
         std::to_string(tier) + "\"";
}

/// The build-identity gauge every exposition leads with: constant 1,
/// all the identity in the labels — the standard Prometheus idiom for
/// joining fleet metrics to a binary version.
void render_build_info(std::string& out) {
  head(out, "fqbert_build_info",
       "Build identity of this binary (constant 1; identity in labels)",
       "gauge");
  sample_u64(out, "fqbert_build_info",
             "version=\"" + escape_label(build_version()) + "\",git_sha=\"" +
                 escape_label(build_git_sha()) + "\",compiler=\"" +
                 escape_label(build_compiler()) + "\",sanitizer=\"" +
                 escape_label(build_sanitizer()) + "\",kernel=\"" +
                 escape_label(build_kernel()) + "\"",
             1);
}

/// The per-(model, tier) serve families shared by the router renderer
/// and the proxy's fleet-wide aggregate. Rows need .model / .tier /
/// .report (ModelRouter::LaneStats, shard::ShardProxy::TierStats).
template <typename Row>
void render_model_reports(std::string& out,
                          const std::vector<Row>& stats) {
  head(out, "fqbert_requests_total",
       "Requests by terminal outcome (admitted = "
       "completed + failed + timed_out holds per model)",
       "counter");
  static constexpr struct {
    const char* outcome;
    uint64_t ServeStats::Report::* field;
  } kOutcomes[] = {
      {"admitted", &ServeStats::Report::admitted},
      {"completed", &ServeStats::Report::completed},
      {"failed", &ServeStats::Report::failed},
      {"timed_out", &ServeStats::Report::timed_out},
      {"rejected_full", &ServeStats::Report::rejected_full},
      {"rejected_deadline", &ServeStats::Report::rejected_deadline},
      {"rejected_invalid", &ServeStats::Report::rejected_invalid},
      {"rejected_closed", &ServeStats::Report::rejected_closed},
  };
  for (const Row& row : stats)
    for (const auto& o : kOutcomes)
      sample_u64(out, "fqbert_requests_total",
                 model_label(row.model, row.tier) + ",outcome=\"" +
                     o.outcome + "\"",
                 row.report.*o.field);

  head(out, "fqbert_batches_total", "Batches executed", "counter");
  for (const Row& row : stats)
    sample_u64(out, "fqbert_batches_total", model_label(row.model, row.tier),
               row.report.batches);

  head(out, "fqbert_batch_occupancy", "Mean requests per executed batch",
       "gauge");
  for (const Row& row : stats)
    sample_f64(out, "fqbert_batch_occupancy",
               model_label(row.model, row.tier),
               row.report.mean_batch_occupancy);

  head(out, "fqbert_queue_ms_mean",
       "Mean admission-to-batch-formation wait in milliseconds", "gauge");
  for (const Row& row : stats)
    sample_f64(out, "fqbert_queue_ms_mean", model_label(row.model, row.tier),
               row.report.mean_queue_ms);

  head(out, "fqbert_latency_ms",
       "End-to-end serve latency quantiles in milliseconds "
       "(mergeable sketch, lifetime)",
       "summary");
  static constexpr struct {
    const char* q;
    double ServeStats::Report::* field;
  } kQuantiles[] = {
      {"0.5", &ServeStats::Report::p50_ms},
      {"0.95", &ServeStats::Report::p95_ms},
      {"0.99", &ServeStats::Report::p99_ms},
      {"0.999", &ServeStats::Report::p999_ms},
  };
  for (const Row& row : stats) {
    for (const auto& q : kQuantiles)
      sample_f64(out, "fqbert_latency_ms",
                 model_label(row.model, row.tier) + ",quantile=\"" + q.q +
                     "\"",
                 row.report.*q.field);
    sample_u64(out, "fqbert_latency_ms_count",
               model_label(row.model, row.tier), row.report.latency_samples);
  }

  head(out, "fqbert_latency_max_ms",
       "Maximum observed serve latency in milliseconds (exact)", "gauge");
  for (const Row& row : stats)
    sample_f64(out, "fqbert_latency_max_ms", model_label(row.model, row.tier),
               row.report.max_ms);
}

}  // namespace

std::string render_router_metrics(const ModelRouter& router) {
  std::string out;
  out.reserve(4096);
  render_build_info(out);
  render_model_reports(out, router.all_stats());

  head(out, "fqbert_queue_depth",
       "Instantaneous backlog: requests waiting in the admission queue",
       "gauge");
  for (const auto& d : router.queue_depths())
    sample_u64(out, "fqbert_queue_depth", model_label(d.model, d.tier),
               d.depth);

  head(out, "fqbert_unknown_model_rejections_total",
       "Requests naming a model no lane serves", "counter");
  sample_u64(out, "fqbert_unknown_model_rejections_total", "",
             router.unknown_model_rejections());

  head(out, "fqbert_unknown_tier_rejections_total",
       "Requests naming a precision tier their model does not serve",
       "counter");
  sample_u64(out, "fqbert_unknown_tier_rejections_total", "",
             router.unknown_tier_rejections());

  head(out, "fqbert_workers", "Shared worker threads", "gauge");
  sample_u64(out, "fqbert_workers", "", router.num_workers());

  head(out, "fqbert_uptime_seconds", "Seconds since the router started",
       "gauge");
  sample_f64(out, "fqbert_uptime_seconds", "", router.uptime_s());
  return out;
}

std::string render_proxy_metrics(shard::ShardProxy& proxy) {
  std::string out;
  out.reserve(4096);
  render_build_info(out);

  const auto c = proxy.counters();
  static constexpr const char* kHelp =
      "Shard proxy lifetime counter";
  const std::pair<const char*, uint64_t> counters[] = {
      {"fqbert_proxy_accepted_total", c.accepted},
      {"fqbert_proxy_served_total", c.served},
      {"fqbert_proxy_failovers_total", c.failovers},
      {"fqbert_proxy_exhausted_total", c.exhausted},
      {"fqbert_proxy_unknown_model_total", c.unknown_model},
      {"fqbert_proxy_unknown_tier_total", c.unknown_tier},
      {"fqbert_proxy_protocol_errors_total", c.protocol_errors},
      {"fqbert_proxy_admin_frames_total", c.admin_frames},
      {"fqbert_proxy_health_transitions_total", c.health_transitions},
      {"fqbert_proxy_placement_changes_total", c.placement_changes},
      {"fqbert_proxy_epoch_retries_total", c.epoch_retries},
  };
  for (const auto& [name, value] : counters) {
    head(out, name, kHelp, "counter");
    sample_u64(out, name, "", value);
  }

  head(out, "fqbert_proxy_placement_epoch",
       "Current placement table generation (bumps on every membership "
       "or placement change)",
       "gauge");
  sample_u64(out, "fqbert_proxy_placement_epoch", "",
             proxy.placement_epoch());

  head(out, "fqbert_proxy_placement_info",
       "Placement policy identity (constant 1; policy in the label)",
       "gauge");
  sample_u64(out, "fqbert_proxy_placement_info",
             "policy=\"" +
                 std::string(shard::placement_policy_name(
                     proxy.placement_policy())) +
                 "\"",
             1);

  head(out, "fqbert_backend_state",
       "Backend health state machine position (one-hot)", "gauge");
  const auto backends = proxy.backend_status();
  static constexpr shard::BackendState kStates[] = {
      shard::BackendState::kHealthy, shard::BackendState::kSuspect,
      shard::BackendState::kDown};
  for (const auto& b : backends) {
    const std::string backend = "backend=\"" + escape_label(b.address) + "\"";
    for (const shard::BackendState s : kStates)
      sample_u64(out, "fqbert_backend_state",
                 backend + ",state=\"" + shard::backend_state_name(s) + "\"",
                 b.state == s ? 1 : 0);
  }

  head(out, "fqbert_backend_health_checks_total",
       "Health probes by result", "counter");
  for (const auto& b : backends) {
    const std::string backend = "backend=\"" + escape_label(b.address) + "\"";
    sample_u64(out, "fqbert_backend_health_checks_total",
               backend + ",result=\"ok\"", b.health_ok);
    sample_u64(out, "fqbert_backend_health_checks_total",
               backend + ",result=\"failed\"", b.health_failed);
  }

  head(out, "fqbert_backend_forwards_total",
       "Data-path calls forwarded to the backend, by result", "counter");
  for (const auto& b : backends) {
    const std::string backend = "backend=\"" + escape_label(b.address) + "\"";
    sample_u64(out, "fqbert_backend_forwards_total",
               backend + ",result=\"ok\"", b.forwarded);
    sample_u64(out, "fqbert_backend_forwards_total",
               backend + ",result=\"failed\"", b.forward_failures);
  }

  head(out, "fqbert_backend_recoveries_total",
       "Transitions back to healthy", "counter");
  for (const auto& b : backends)
    sample_u64(out, "fqbert_backend_recoveries_total",
               "backend=\"" + escape_label(b.address) + "\"", b.recoveries);

  // Fleet-wide per-model serve stats: the same families a backend's own
  // /metrics exports, but aggregated across replicas with exact sketch
  // merges — the proxy's scrape is the one-stop fleet view.
  render_model_reports(out, proxy.aggregate_stats());
  return out;
}

}  // namespace fqbert::serve
