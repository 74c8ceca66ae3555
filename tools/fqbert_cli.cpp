// fqbert_cli — command-line front end for the full FQ-BERT workflow.
//
//   fqbert_cli train    --task sst2|mnli --out model.bin [--fast]
//   fqbert_cli quantize --task sst2|mnli --model model.bin --out fq.bin
//                       [--bits N] [--no-clip] [--no-softmax-quant]
//                       [--no-ln-quant] [--no-scale-quant] [--fast]
//   fqbert_cli eval     --task sst2|mnli --engine fq.bin
//   fqbert_cli info     --engine fq.bin
//   fqbert_cli estimate [--device zcu102|zcu111] [--pes N] [--mults M]
//                       [--seq S]
//   fqbert_cli serve    --engine fq.bin | --task sst2|mnli [--fast]
//                       [--listen PORT [--bind ADDR]]
//                       [--workers N] [--batch B]
//                       [--clients C] [--requests R] [--deadline-ms D]
//                       [--seq-mix 12,16,24] [--seed S]
//   fqbert_cli loadgen  serve options, plus
//                       [--connect HOST:PORT]
//                       [--batch-sweep 1,8,16] [--worker-sweep 1,2,4]
//   fqbert_cli proxy    --listen PORT [--bind ADDR]
//                       --backend HOST:PORT=model[,model...] ...
//                       [--policy explicit|hash] [--pool N]
//                       [--health-interval-ms I] [--health-timeout-ms T]
//                       [--call-timeout-ms C] [--drain-timeout-ms D]
//
// `train` produces a float checkpoint; `quantize` runs QAT fine-tuning,
// calibration and conversion, then saves the deployable integer engine;
// `eval` measures integer-engine accuracy; `info` dumps an engine's
// configuration and size; `estimate` prints accelerator latency /
// resources / power for BERT-base; `serve` runs the dynamic-batching
// server — under a closed-loop synthetic client by default, or as a
// network service on --listen (stop with Ctrl-C); `loadgen` sweeps
// batch/worker configurations over the closed-loop client, or drives a
// remote `serve --listen` instance over the wire with --connect;
// `proxy` runs the shard-aware routing proxy in front of N backend
// `serve --listen` hosts (versioned placement table — explicit pins or
// consistent hashing — health checks, failover, live membership via
// `admin --add-backend/--remove-backend/--move-model`; clients connect
// to it exactly as to a single server).
//
// Option parsing is strict: unknown options, stray positionals, and
// malformed or out-of-range numeric values are all one-line errors with
// exit code 2 — a typo never silently runs with defaults.
#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "accel/accelerator.h"
#include "core/model_size.h"
#include "pipeline/pipeline.h"
#include "serve/debug_text.h"
#include "serve/flight_recorder.h"
#include "serve/loadgen.h"
#include "serve/metrics_http.h"
#include "serve/metrics_text.h"
#include "serve/net/transport_client.h"
#include "serve/net/transport_server.h"
#include "serve/router/model_router.h"
#include "serve/shard/shard_proxy.h"
#include "serve/trace.h"

using namespace fqbert;
using namespace fqbert::pipeline;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fqbert_cli <train|quantize|eval|info|estimate|serve|"
               "loadgen|admin|proxy> [options]\n"
               "  train    --task sst2|mnli --out model.bin [--fast]\n"
               "  quantize --task sst2|mnli --model model.bin --out fq.bin\n"
               "           [--bits N] [--mapped] [--no-clip]\n"
               "           [--no-softmax-quant] [--no-ln-quant]\n"
               "           [--no-scale-quant] [--fast]\n"
               "  eval     --task sst2|mnli --engine fq.bin\n"
               "  info     --engine fq.bin\n"
               "  estimate [--device zcu102|zcu111] [--pes N] [--mults M] "
               "[--seq S]\n"
               "  serve    --engine fq.bin | --task sst2|mnli [--fast]\n"
               "           [--listen PORT [--bind ADDR] [--metrics PORT]\n"
               "            [--model NAME=FILE[@int8,int4...] ...]\n"
               "            [--tier-fallback strict|default]]\n"
               "           [--workers N] [--batch B]\n"
               "           [--clients C] [--requests R] [--deadline-ms D]\n"
               "           [--seq-mix 12,16,24] [--seed S]\n"
               "  loadgen  serve options plus [--connect HOST:PORT\n"
               "           [--model NAME ...] [--tier N]]\n"
               "           [--trace-every N]    (per-stage trace samples)\n"
               "           [--latency-csv FILE] (per-request rows, remote)\n"
               "           [--batch-sweep 1,8,16] [--worker-sweep 1,2,4]\n"
               "  admin    --connect HOST:PORT [--timeout-ms T]\n"
               "           [--load NAME=FILE[@intN] ...] (empty FILE derives)\n"
               "           [--unload NAME[@intN] ...]\n"
               "           [--add-backend HOST:PORT=model[@intN][,...] ...]\n"
               "           [--remove-backend HOST:PORT ...] (drains first)\n"
               "           [--move-model NAME[@intN]=FROM,TO[,FILE] ...]\n"
               "           [--placement]        (proxy placement table)\n"
               "           [--list] [--stats NAME[@intN] ...]\n"
               "           [--events [--since-ns N]] (flight-recorder dump)\n"
               "  proxy    --listen PORT [--bind ADDR] [--metrics PORT]\n"
               "           --backend HOST:PORT=model[@intN][,model...] ...\n"
               "           [--policy explicit|hash] [--pool N]\n"
               "           [--health-interval-ms I] [--health-timeout-ms T]\n"
               "           [--call-timeout-ms C] [--drain-timeout-ms D]\n");
  return 2;
}

/// One-line parse error + usage, exit 2 (satellite contract: malformed
/// flags never abort via uncaught exceptions or run with defaults).
[[noreturn]] void parse_fail(const std::string& message) {
  std::fprintf(stderr, "fqbert_cli: %s\n", message.c_str());
  usage();
  std::exit(2);
}

struct Args {
  std::string command;
  /// Every occurrence of each option, in command-line order (repeatable
  /// options like `--model name=path` keep them all; single-valued
  /// options read the last, so later flags win).
  std::map<std::string, std::vector<std::string>> named;
  bool flag(const std::string& name) const { return named.count(name) > 0; }
  std::string get(const std::string& name, const std::string& dflt = "") const {
    auto it = named.find(name);
    return it == named.end() ? dflt : it->second.back();
  }
  const std::vector<std::string>& values(const std::string& name) const {
    static const std::vector<std::string> empty;
    auto it = named.find(name);
    return it == named.end() ? empty : it->second;
  }
};

/// Per-subcommand vocabulary: which --options exist and whether they
/// consume a value. Anything else is rejected.
struct OptionSpec {
  const char* name;
  bool takes_value;
};

const std::map<std::string, std::vector<OptionSpec>>& command_options() {
  static const std::map<std::string, std::vector<OptionSpec>> specs = {
      {"train", {{"task", true}, {"out", true}, {"fast", false}}},
      {"quantize",
       {{"task", true},
        {"model", true},
        {"out", true},
        {"bits", true},
        {"mapped", false},
        {"no-clip", false},
        {"no-softmax-quant", false},
        {"no-ln-quant", false},
        {"no-scale-quant", false},
        {"fast", false}}},
      {"eval", {{"task", true}, {"engine", true}, {"fast", false}}},
      {"info", {{"engine", true}}},
      {"estimate",
       {{"device", true}, {"pes", true}, {"mults", true}, {"seq", true}}},
      {"serve",
       {{"engine", true},
        {"task", true},
        {"fast", false},
        {"listen", true},
        {"bind", true},
        {"metrics", true},
        {"model", true},
        {"tier-fallback", true},
        {"workers", true},
        {"batch", true},
        {"clients", true},
        {"requests", true},
        {"deadline-ms", true},
        {"seq-mix", true},
        {"seed", true}}},
      {"loadgen",
       {{"engine", true},
        {"task", true},
        {"fast", false},
        {"connect", true},
        {"model", true},
        {"tier", true},
        {"workers", true},
        {"batch", true},
        {"clients", true},
        {"requests", true},
        {"deadline-ms", true},
        {"seq-mix", true},
        {"seed", true},
        {"trace-every", true},
        {"latency-csv", true},
        {"batch-sweep", true},
        {"worker-sweep", true}}},
      {"admin",
       {{"connect", true},
        {"timeout-ms", true},
        {"load", true},
        {"unload", true},
        {"add-backend", true},
        {"remove-backend", true},
        {"move-model", true},
        {"placement", false},
        {"list", false},
        {"stats", true},
        {"events", false},
        {"since-ns", true}}},
      {"proxy",
       {{"listen", true},
        {"bind", true},
        {"metrics", true},
        {"backend", true},
        {"policy", true},
        {"pool", true},
        {"health-interval-ms", true},
        {"health-timeout-ms", true},
        {"call-timeout-ms", true},
        {"connect-timeout-ms", true},
        {"drain-timeout-ms", true}}},
  };
  return specs;
}

/// Strict parse: every token after the subcommand must be a known
/// --option of that subcommand; valued options always consume the next
/// token (so negative numbers work as values), flags never do.
Args parse(int argc, char** argv) {
  Args a;
  if (argc > 1) a.command = argv[1];
  const auto spec_it = command_options().find(a.command);
  if (spec_it == command_options().end()) return a;  // main() prints usage
  const std::vector<OptionSpec>& spec = spec_it->second;

  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0)
      parse_fail(a.command + ": unexpected positional argument '" + token +
                 "'");
    const std::string key = token.substr(2);
    const OptionSpec* opt = nullptr;
    for (const OptionSpec& s : spec)
      if (key == s.name) {
        opt = &s;
        break;
      }
    if (opt == nullptr)
      parse_fail(a.command + ": unknown option --" + key);
    if (opt->takes_value) {
      if (i + 1 >= argc)
        parse_fail(a.command + ": option --" + key + " needs a value");
      a.named[key].push_back(argv[++i]);
    } else {
      a.named[key] = {"1"};
    }
  }
  return a;
}

/// Checked integer parse: the whole string must be a number in
/// [min, max]; anything else is a one-line error + usage, exit 2.
long long parse_int(const std::string& name, const std::string& value,
                    long long min, long long max) {
  long long parsed = 0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, parsed);
  if (ec != std::errc() || ptr != end || value.empty())
    parse_fail("--" + name + ": '" + value + "' is not an integer");
  if (parsed < min || parsed > max)
    parse_fail("--" + name + ": " + value + " out of range [" +
               std::to_string(min) + ", " + std::to_string(max) + "]");
  return parsed;
}

long long int_opt(const Args& a, const std::string& name, long long dflt,
                  long long min, long long max) {
  const auto it = a.named.find(name);
  return it == a.named.end() ? dflt
                             : parse_int(name, it->second.back(), min, max);
}

/// Options that the selected mode of a subcommand would silently
/// ignore are rejected outright — same contract as unknown options.
void reject_options(const Args& a, const std::string& mode,
                    std::initializer_list<const char*> names) {
  for (const char* name : names)
    if (a.flag(name))
      parse_fail(a.command + " " + mode + ": option --" + name +
                 " does not apply (it would be ignored)");
}

/// Comma-separated integers with the same checked parse per element.
/// Defined edge semantics, locked in by tests/test_serve_net.cpp:
/// empty input and empty elements ("", "12,", ",,") simply contribute
/// nothing — "" yields an empty list (loadgen then falls back to the
/// engine's max_seq_len).
std::vector<int64_t> parse_int_list(const std::string& name,
                                    const std::string& csv, long long min,
                                    long long max) {
  std::vector<int64_t> out;
  size_t pos = 0;
  while (pos <= csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > pos)
      out.push_back(parse_int(name, csv.substr(pos, comma - pos), min, max));
    pos = comma + 1;
  }
  return out;
}

/// Resolve the serving engine: --engine loads a file into the registry
/// (loaded once; all workers share the immutable instance); --task
/// trains+quantizes a demo engine in-memory. Returns nullptr (after
/// printing) on failure.
std::shared_ptr<const core::FqBertModel> resolve_engine(
    const Args& a, serve::EngineRegistry& registry, const char* name) {
  const std::string engine_path = a.get("engine");
  if (!engine_path.empty()) {
    if (!registry.register_file(name, engine_path)) {
      std::fprintf(stderr, "cannot load engine %s\n", engine_path.c_str());
      return nullptr;
    }
    return registry.get(name);
  }
  const std::string task_name = a.get("task");
  if (task_name.empty()) return nullptr;
  std::printf("no --engine given: training a %s demo engine (%s mode)...\n",
              task_name.c_str(), a.flag("fast") ? "fast" : "full");
  return build_and_register_engine(registry, name, task_name,
                                   core::FqQuantConfig::full(),
                                   a.flag("fast"));
}

serve::RouterConfig router_config_from(const Args& a) {
  serve::RouterConfig cfg;
  cfg.num_workers = static_cast<int>(int_opt(a, "workers", 2, 1, 1024));
  cfg.max_batch = int_opt(a, "batch", 8, 1, 4096);
  const std::string fallback = a.get("tier-fallback", "strict");
  if (fallback == "default")
    cfg.tier_fallback = serve::TierFallback::kFallbackToDefault;
  else if (fallback != "strict")
    parse_fail("--tier-fallback: expected 'strict' or 'default', got '" +
               fallback + "'");
  return cfg;
}

serve::LoadgenConfig loadgen_config_from(const Args& a) {
  serve::LoadgenConfig cfg;
  cfg.num_clients = static_cast<int>(int_opt(a, "clients", 8, 1, 4096));
  cfg.requests_per_client =
      static_cast<int>(int_opt(a, "requests", 200, 1, 100000000));
  // Lengths beyond the engine's max_seq_len are clamped per request by
  // synth_example, so the mix needs no engine shape here.
  cfg.seq_len_mix =
      parse_int_list("seq-mix", a.get("seq-mix", "12,16,24"), 1, 1 << 16);
  cfg.seed = static_cast<uint64_t>(int_opt(a, "seed", 1, 0, 1LL << 62));
  cfg.trace_every =
      static_cast<int>(int_opt(a, "trace-every", 0, 0, 100000000));
  const long long deadline_ms =
      int_opt(a, "deadline-ms", 0, 0, 86400LL * 1000);
  if (deadline_ms > 0)
    cfg.deadline_budget = serve::Micros(deadline_ms * 1000);
  return cfg;
}

void print_latency_line(const serve::ServeStats::Report& st) {
  std::printf("latency : p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, p99.9 %.2f "
              "ms, max %.2f ms (queue %.2f ms mean; %llu lifetime samples)\n",
              st.p50_ms, st.p95_ms, st.p99_ms, st.p999_ms, st.max_ms,
              st.mean_queue_ms,
              static_cast<unsigned long long>(st.latency_samples));
}

/// Per-stage breakdown of the loadgen's sampled traces: a few full
/// example timelines, then the mean offset of every stage seen. Stage
/// offsets are relative to each hop's first event, so through a proxy
/// the backend stages already sit inside the proxy timeline.
void print_trace_samples(const serve::LoadgenReport& lg) {
  if (lg.traces.empty()) return;
  const size_t show = std::min<size_t>(3, lg.traces.size());
  std::printf("traces  : %zu sampled, first %zu shown\n", lg.traces.size(),
              show);
  for (size_t i = 0; i < show; ++i) {
    const serve::TraceSample& t = lg.traces[i];
    std::printf("  trace %016llx (wall %lld us):",
                static_cast<unsigned long long>(t.trace_id),
                static_cast<long long>(t.wall_us));
    for (const serve::TraceEvent& ev : t.stages)
      std::printf(" %s +%lld", serve::trace_stage_name(ev.stage),
                  static_cast<long long>(ev.t_us));
    std::printf(" us\n");
  }
  // Mean offset per stage across every sample, in stage-code order
  // (receipt -> forward -> admission -> batch -> worker -> response).
  int64_t sum[serve::kLastTraceStage + 1] = {};
  uint64_t n[serve::kLastTraceStage + 1] = {};
  for (const serve::TraceSample& t : lg.traces)
    for (const serve::TraceEvent& ev : t.stages) {
      const auto s = static_cast<size_t>(ev.stage);
      if (s <= serve::kLastTraceStage) {
        sum[s] += ev.t_us;
        ++n[s];
      }
    }
  std::printf("  stage means:");
  for (size_t s = 0; s <= serve::kLastTraceStage; ++s)
    if (n[s] > 0)
      std::printf(" %s %.0f us (n=%llu)",
                  serve::trace_stage_name(
                      static_cast<serve::TraceStage>(s)),
                  static_cast<double>(sum[s]) / static_cast<double>(n[s]),
                  static_cast<unsigned long long>(n[s]));
  std::printf("\n");
}

void print_balance_line(const serve::ServeStats::Report& st) {
  std::printf("balance : admitted %llu = completed %llu + timed out %llu + "
              "failed %llu  [%s]\n",
              static_cast<unsigned long long>(st.admitted),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.timed_out),
              static_cast<unsigned long long>(st.failed),
              st.accounting_balances() ? "OK" : "MISMATCH");
}

void print_serve_report(const serve::LoadgenReport& lg,
                        const serve::ServeStats::Report& st) {
  std::printf("loadgen : %llu sent, %llu ok, %llu rejected, %llu timed out, "
              "%llu failed in %.2fs\n",
              static_cast<unsigned long long>(lg.sent),
              static_cast<unsigned long long>(lg.ok),
              static_cast<unsigned long long>(lg.rejected),
              static_cast<unsigned long long>(lg.timed_out),
              static_cast<unsigned long long>(lg.failed), lg.wall_s);
  std::printf("server  : %.1f req/s, batch occupancy %.2f over %llu "
              "batches\n",
              lg.throughput_rps(), st.mean_batch_occupancy,
              static_cast<unsigned long long>(st.batches));
  print_latency_line(st);
  print_balance_line(st);
}

/// Closed-loop local run: a one-lane router over the registry's
/// "default" engine, driven by run_loadgen and then drained. Returns
/// the lane's stats, or nullopt (after printing) when the lane cannot
/// open.
std::optional<serve::ServeStats::Report> run_local_loadgen(
    serve::EngineRegistry& registry, const serve::RouterConfig& rcfg,
    const serve::LoadgenConfig& lcfg, serve::LoadgenReport* lg) {
  serve::ModelRouter router(registry, rcfg);
  std::string error;
  if (!router.add_model("default", &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return std::nullopt;
  }
  router.start();
  *lg = serve::run_loadgen(router, *router.model_config(""), lcfg);
  router.shutdown(/*drain=*/true);
  return router.stats_report("");
}

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

/// Split a `NAME=VALUE` option ("--load sst2=fq.bin", "--model m=f.bin").
void parse_name_value(const std::string& option, const std::string& token,
                      std::string* name, std::string* value) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size())
    parse_fail("--" + option + ": expected NAME=FILE, got '" + token + "'");
  *name = token.substr(0, eq);
  *value = token.substr(eq + 1);
}

/// Split a trailing precision-tier suffix off `token`: "X@int4" and
/// "X@4" yield (X, 4); no '@' yields (token, 0). A malformed suffix is
/// an argv error — tiers are weight bit-widths in [2, 8].
void parse_tier_suffix(const std::string& option, const std::string& token,
                       std::string* base, int* tier) {
  const size_t at = token.rfind('@');
  if (at == std::string::npos) {
    *base = token;
    *tier = 0;
    return;
  }
  *base = token.substr(0, at);
  std::string t = token.substr(at + 1);
  if (t.rfind("int", 0) == 0) t = t.substr(3);
  if (t.size() != 1 || t[0] < '2' || t[0] > '8')
    parse_fail("--" + option + ": malformed tier suffix in '" + token +
               "' (expected @intN or @N with N in [2, 8])");
  *tier = t[0] - '0';
}

/// Split `HOST:PORT` (--connect, and the address half of --backend).
void parse_host_port(const std::string& target, std::string* host,
                     uint16_t* port, const std::string& option = "connect") {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= target.size())
    parse_fail("--" + option + ": expected HOST:PORT, got '" + target + "'");
  *host = target.substr(0, colon);
  *port = static_cast<uint16_t>(
      parse_int(option, target.substr(colon + 1), 1, 65535));
}

/// Per-lane accounting table for the shutdown report: one row per
/// (model, tier) lane, each of which must balance independently.
void print_per_model_table(const serve::ModelRouter& router) {
  const auto stats = router.all_stats();
  std::printf("%-20s %10s %10s %10s %8s %8s %8s %9s\n", "lane", "admitted",
              "completed", "timed-out", "failed", "p50 ms", "p95 ms",
              "balance");
  for (const auto& row : stats) {
    const std::string lane = row.model + "@int" + std::to_string(row.tier);
    const auto& st = row.report;
    std::printf("%-20s %10llu %10llu %10llu %8llu %8.2f %8.2f %9s\n",
                lane.c_str(), static_cast<unsigned long long>(st.admitted),
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.timed_out),
                static_cast<unsigned long long>(st.failed), st.p50_ms,
                st.p95_ms, st.accounting_balances() ? "OK" : "MISMATCH");
  }
  if (router.unknown_model_rejections() > 0)
    std::printf("(+%llu requests rejected for unknown model names)\n",
                static_cast<unsigned long long>(
                    router.unknown_model_rejections()));
  if (router.unknown_tier_rejections() > 0)
    std::printf("(+%llu requests rejected for unserved precision tiers)\n",
                static_cast<unsigned long long>(
                    router.unknown_tier_rejections()));
}

/// `serve --listen`: run the multi-model router as a network service
/// until SIGINT / SIGTERM, then drain and print the per-model report.
/// Lanes come from repeated `--model name=path`, or from
/// --engine/--task as the single model "default"; more can be
/// hot-loaded at runtime through `fqbert_cli admin`.
int run_listen_server(const Args& a, const serve::RouterConfig& rcfg) {
  serve::EngineRegistry registry;
  serve::ModelRouter router(registry, rcfg);

  const std::vector<std::string>& model_specs = a.values("model");
  if (!model_specs.empty()) {
    if (a.flag("engine") || a.flag("task"))
      parse_fail("serve --listen: --model cannot be combined with "
                 "--engine/--task (the latter define the single model "
                 "'default')");
    // --fast only shapes --task demo training; with --model files it
    // would be silently ignored.
    reject_options(a, "--model", {"fast"});
    // Parse (and validate) ALL specs before loading the first engine:
    // a duplicated NAME is an argv error ("last one wins" would
    // silently serve a different engine than half the command line
    // says), and it must not cost an engine load first. A spec may
    // carry a tier list — `sst2=fq.bin@int8,int4` serves the file's
    // checkpoint as int8 AND an int4 tier derived from it.
    struct ModelSpec {
      std::string name;
      std::string path;
      std::vector<int> tiers;  // empty = the file's native tier only
    };
    std::vector<ModelSpec> models;
    std::set<std::string> model_names;
    for (const std::string& spec : model_specs) {
      std::string name, value;
      parse_name_value("model", spec, &name, &value);
      if (!model_names.insert(name).second)
        parse_fail("--model: model '" + name +
                   "' given more than once (each NAME maps to exactly one "
                   "FILE)");
      ModelSpec m;
      m.name = std::move(name);
      const size_t at = value.find('@');
      m.path = value.substr(0, at);
      if (m.path.empty())
        parse_fail("--model: empty FILE in '" + spec + "'");
      if (at != std::string::npos) {
        std::set<int> seen_tiers;
        std::string csv = value.substr(at + 1);
        size_t pos = 0;
        while (pos <= csv.size()) {
          size_t comma = csv.find(',', pos);
          if (comma == std::string::npos) comma = csv.size();
          std::string base;
          int tier = 0;
          std::string element("@");
          element += csv.substr(pos, comma - pos);
          parse_tier_suffix("model", element, &base, &tier);
          if (!seen_tiers.insert(tier).second)
            parse_fail("--model: tier int" + std::to_string(tier) +
                       " repeated in '" + spec + "'");
          m.tiers.push_back(tier);
          pos = comma + 1;
        }
      }
      models.push_back(std::move(m));
    }
    for (const auto& m : models) {
      std::string error;
      // First listed tier loads from the file (derived there if it is
      // not the checkpoint's native width); the rest are minted from
      // the registered default without re-reading the file.
      const int first = m.tiers.empty() ? 0 : m.tiers.front();
      if (!router.load_model(m.name, m.path, &error, first)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      for (size_t i = 1; i < m.tiers.size(); ++i) {
        if (!router.load_model(m.name, "", &error, m.tiers[i])) {
          std::fprintf(stderr, "%s\n", error.c_str());
          return 1;
        }
      }
    }
  } else {
    if (!resolve_engine(a, registry, "default")) return usage();
    std::string error;
    if (!router.add_model("default", &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
  }
  router.start();

  serve::net::TransportConfig tcfg;
  tcfg.bind_address = a.get("bind", "127.0.0.1");
  tcfg.port =
      static_cast<uint16_t>(int_opt(a, "listen", 0, 0, 65535));
  serve::net::TransportServer transport(router, tcfg);
  if (!transport.start()) {
    std::fprintf(stderr, "transport failed to start\n");
    return 1;
  }

  // Black box first: from here on a crash dumps the journal to stderr.
  serve::FlightRecorder::instance().install_crash_handler();

  serve::MetricsHttpServer metrics(
      [&router] { return serve::render_router_metrics(router); });
  metrics.add_endpoint("/debug/events", [](const std::string& query) {
    return serve::render_debug_events(
        serve::FlightRecorder::instance(),
        serve::debug_query_u64(query, "since_ns", 0),
        serve::debug_query_u64(query, "max", 0));
  });
  metrics.add_endpoint("/debug/slow", [](const std::string&) {
    return serve::render_debug_slow(serve::FlightRecorder::instance());
  });
  metrics.add_endpoint("/debug/lanes", [&router](const std::string&) {
    return serve::render_debug_lanes(router);
  });
  if (a.flag("metrics")) {
    const auto metrics_port =
        static_cast<uint16_t>(int_opt(a, "metrics", 0, 0, 65535));
    if (!metrics.start(tcfg.bind_address, metrics_port)) {
      std::fprintf(stderr, "metrics endpoint failed to start\n");
      return 1;
    }
    std::printf("metrics on http://%s:%u/metrics (debug: /debug/events "
                "/debug/slow /debug/lanes)\n",
                tcfg.bind_address.c_str(), metrics.port());
  }

  std::string names;
  for (const std::string& n : router.model_names()) {
    std::string tiers;
    for (const int t : router.served_tiers(n))
      tiers += (tiers.empty() ? "" : ",") + ("int" + std::to_string(t));
    names += (names.empty() ? "" : ", ") + n + "@" + tiers;
  }
  std::printf("listening on %s:%u — models [%s] (default: %s), %d workers, "
              "max batch %lld; Ctrl-C to stop\n",
              tcfg.bind_address.c_str(), transport.port(), names.c_str(),
              router.default_model().c_str(), rcfg.num_workers,
              static_cast<long long>(rcfg.max_batch));
  std::fflush(stdout);

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (!g_stop_requested)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::printf("\nshutting down...\n");
  metrics.stop();
  transport.stop();
  router.shutdown(/*drain=*/true);
  const serve::net::TransportServer::Counters net = transport.counters();
  std::printf("transport: %llu connections (%llu closed, %llu protocol "
              "errors, %llu overflow closes), %llu frames in, %llu frames "
              "out over %.1fs\n",
              static_cast<unsigned long long>(net.accepted),
              static_cast<unsigned long long>(net.closed),
              static_cast<unsigned long long>(net.protocol_errors),
              static_cast<unsigned long long>(net.overflow_closes),
              static_cast<unsigned long long>(net.frames_in),
              static_cast<unsigned long long>(net.frames_out),
              router.uptime_s());
  print_per_model_table(router);
  return 0;
}

int cmd_serve(const Args& a) {
  // Validate every numeric flag before the (potentially expensive)
  // engine resolution: a typo must not cost a demo-engine train first.
  const serve::RouterConfig rcfg = router_config_from(a);
  if (a.flag("listen")) {
    // The network mode has no built-in client loop; accepting its
    // options would silently ignore them.
    reject_options(a, "--listen",
                   {"clients", "requests", "deadline-ms", "seq-mix", "seed"});
    return run_listen_server(a, rcfg);
  }
  // --model defines router lanes, --metrics scrapes a live service and
  // --tier-fallback needs a client that names tiers; only the network
  // mode has any of them.
  reject_options(a, "(closed-loop)", {"model", "metrics", "tier-fallback"});
  serve::LoadgenConfig lcfg = loadgen_config_from(a);

  serve::EngineRegistry registry;
  auto engine = resolve_engine(a, registry, "default");
  if (!engine) return usage();

  std::printf("serving '%s': %d workers, max batch %lld, "
              "%d closed-loop clients x %d requests (hw threads: %u)\n",
              a.get("engine", a.get("task")).c_str(), rcfg.num_workers,
              static_cast<long long>(rcfg.max_batch),
              lcfg.num_clients, lcfg.requests_per_client,
              std::thread::hardware_concurrency());

  serve::LoadgenReport lg;
  const std::optional<serve::ServeStats::Report> st =
      run_local_loadgen(registry, rcfg, lcfg, &lg);
  if (!st) return 1;
  print_serve_report(lg, *st);
  return 0;
}

/// `loadgen --latency-csv`: one row per request. Stage timestamps (only
/// present on traced requests) pack into the last column as
/// `stage:t_us|stage:t_us` so the file stays one-row-per-request.
bool write_latency_csv(const std::string& path,
                       const std::vector<serve::RequestRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "loadgen: cannot write '%s'\n", path.c_str());
    return false;
  }
  std::fprintf(f, "trace_id,model,tier,status,latency_us,stages\n");
  for (const auto& r : records) {
    std::fprintf(f, "%llu,%s,%u,%s,%lld,",
                 static_cast<unsigned long long>(r.trace_id),
                 r.model.empty() ? "<default>" : r.model.c_str(),
                 static_cast<unsigned>(r.tier),
                 serve::request_status_name(r.status),
                 static_cast<long long>(r.latency_us));
    for (size_t i = 0; i < r.stages.size(); ++i)
      std::fprintf(f, "%s%s:%lld", i == 0 ? "" : "|",
                   serve::trace_stage_name(r.stages[i].stage),
                   static_cast<long long>(r.stages[i].t_us));
    std::fputc('\n', f);
  }
  const bool ok = std::fclose(f) == 0;
  if (!ok)
    std::fprintf(stderr, "loadgen: error writing '%s'\n", path.c_str());
  return ok;
}

/// `loadgen --connect`: drive a remote `serve --listen` across the wire
/// with the same closed-loop client model. Repeated `--model NAME`
/// options build a multi-model traffic mix over the router's lanes (no
/// --model = the server's default model).
int run_remote_loadgen(const Args& a) {
  // The engine and the serving/sweep knobs live on the remote server;
  // accepting them here would silently ignore them.
  reject_options(a, "--connect",
                 {"engine", "task", "fast", "workers", "batch", "batch-sweep",
                  "worker-sweep"});
  std::string host;
  uint16_t port = 0;
  parse_host_port(a.get("connect"), &host, &port);

  // Probe each target model's shape (bounded waits: a dead or hung
  // server fails the probe instead of blocking loadgen forever).
  serve::net::TransportClient probe;
  probe.set_timeouts(serve::Micros(5'000'000), serve::Micros(30'000'000));
  if (!probe.connect(host, port)) {
    std::fprintf(stderr, "%s\n", probe.error().c_str());
    return 1;
  }
  // --tier pins every request in the mix to one precision tier (the
  // per-model shape probe validates the server actually serves it).
  const auto tier =
      static_cast<uint8_t>(int_opt(a, "tier", 0, 0, 8));
  if (tier == 1)
    parse_fail("--tier: 1 is not a weight bit-width (use 0 for the "
               "default tier, or 2..8)");
  std::vector<std::string> mix = a.values("model");
  if (mix.empty()) mix.push_back("");  // the server's default model
  std::vector<serve::RemoteModelTarget> targets;
  for (const std::string& name : mix) {
    const std::optional<nn::BertConfig> info = probe.query_info(name, tier);
    if (!info) {
      const std::string tier_note =
          tier != 0 ? " tier int" + std::to_string(tier) : std::string();
      std::fprintf(stderr, "info query for model '%s'%s failed: %s\n",
                   name.c_str(), tier_note.c_str(), probe.error().c_str());
      return 1;
    }
    targets.push_back({name, *info, tier});
  }
  probe.close();

  serve::LoadgenConfig lcfg = loadgen_config_from(a);
  const std::string csv_path = a.get("latency-csv", "");
  lcfg.collect_records = !csv_path.empty();
  std::string names;
  for (const auto& t : targets)
    names += (names.empty() ? "" : ", ") +
             (t.name.empty() ? std::string("<default>") : t.name);
  std::printf("remote loadgen -> %s:%u (models: %s; first engine: L=%lld "
              "hidden=%lld max_seq=%lld classes=%lld): %d clients x %d "
              "requests\n",
              host.c_str(), port, names.c_str(),
              static_cast<long long>(targets.front().config.num_layers),
              static_cast<long long>(targets.front().config.hidden),
              static_cast<long long>(targets.front().config.max_seq_len),
              static_cast<long long>(targets.front().config.num_classes),
              lcfg.num_clients, lcfg.requests_per_client);
  const serve::LoadgenReport lg =
      serve::run_loadgen_remote(host, port, targets, lcfg);
  std::printf("loadgen : %llu sent, %llu ok, %llu rejected, %llu timed out, "
              "%llu failed in %.2fs (%.1f req/s)\n",
              static_cast<unsigned long long>(lg.sent),
              static_cast<unsigned long long>(lg.ok),
              static_cast<unsigned long long>(lg.rejected),
              static_cast<unsigned long long>(lg.timed_out),
              static_cast<unsigned long long>(lg.failed), lg.wall_s,
              lg.throughput_rps());
  if (lg.latency_us.count() > 0)
    std::printf("client  : p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, p99.9 "
                "%.2f ms, max %.2f ms (%llu ok responses)\n",
                lg.latency_ms(0.50), lg.latency_ms(0.95), lg.latency_ms(0.99),
                lg.latency_ms(0.999),
                static_cast<double>(lg.latency_us.max_us()) / 1000.0,
                static_cast<unsigned long long>(lg.latency_us.count()));
  print_trace_samples(lg);
  if (!csv_path.empty()) {
    if (!write_latency_csv(csv_path, lg.records)) return 1;
    std::printf("latency : %zu rows -> %s\n", lg.records.size(),
                csv_path.c_str());
  }
  return lg.failed == 0 ? 0 : 1;
}

/// `admin --connect`: drive the router's control plane over the wire.
/// Executes loads, then unloads, then --list, then --stats queries;
/// exit 0 only when every operation succeeded.
int cmd_admin(const Args& a) {
  if (!a.flag("connect")) return usage();
  if (a.flag("since-ns") && !a.flag("events"))
    parse_fail("--since-ns only filters an --events dump");
  std::string host;
  uint16_t port = 0;
  parse_host_port(a.get("connect"), &host, &port);
  const long long timeout_ms =
      int_opt(a, "timeout-ms", 30000, 0, 3600LL * 1000);

  serve::net::TransportClient client;
  // Loads read engine files and unloads drain lanes server-side, so the
  // receive timeout must cover real work — but a hung server must not
  // hang the admin CLI.
  client.set_timeouts(serve::Micros(timeout_ms * 1000),
                      serve::Micros(timeout_ms * 1000));
  if (!client.connect(host, port)) {
    std::fprintf(stderr, "%s\n", client.error().c_str());
    return 1;
  }

  bool all_ok = true;
  for (const std::string& spec : a.values("load")) {
    std::string name, value, path;
    int tier = 0;
    parse_name_value("load", spec, &name, &value);
    // `sst2=fq.bin@int4` loads/derives that tier; `sst2=@int4` derives
    // it server-side from the model's already-loaded default tier.
    parse_tier_suffix("load", value, &path, &tier);
    if (path.empty() && tier == 0)
      parse_fail("--load: '" + spec + "' names neither a FILE nor a tier");
    std::string message;
    const bool ok = client.load_model(name, path, &message,
                                      static_cast<uint8_t>(tier));
    std::printf("load %s: %s\n", spec.c_str(),
                ok ? message.c_str()
                   : (message.empty() ? client.error().c_str()
                                      : message.c_str()));
    all_ok = all_ok && ok;
    if (!client.connected()) break;  // transport gone; stop cleanly
  }
  for (const std::string& spec : a.values("unload")) {
    std::string name;
    int tier = 0;
    parse_tier_suffix("unload", spec, &name, &tier);
    std::string message;
    const bool ok = client.unload_model(name, &message,
                                        static_cast<uint8_t>(tier));
    std::printf("unload %s: %s\n", spec.c_str(),
                ok ? message.c_str()
                   : (message.empty() ? client.error().c_str()
                                      : message.c_str()));
    all_ok = all_ok && ok;
    if (!client.connected()) break;
  }
  // Proxy placement plane (v5): membership changes first (an added
  // backend can then host a --move-model target in the same command),
  // then moves, then the read-only --placement dump.
  for (const std::string& spec : a.values("add-backend")) {
    std::string address, model_csv;
    parse_name_value("add-backend", spec, &address, &model_csv);
    std::string host;
    uint16_t port = 0;
    parse_host_port(address, &host, &port, "add-backend");
    std::vector<serve::net::WireModelEntry> cells;
    size_t pos = 0;
    while (pos <= model_csv.size()) {
      size_t comma = model_csv.find(',', pos);
      if (comma == std::string::npos) comma = model_csv.size();
      if (comma == pos)
        parse_fail("--add-backend: empty model name in '" + spec + "'");
      std::string name;
      int tier = 0;
      parse_tier_suffix("add-backend", model_csv.substr(pos, comma - pos),
                        &name, &tier);
      cells.push_back({name, static_cast<uint8_t>(tier)});
      pos = comma + 1;
    }
    std::string message;
    const bool ok = client.add_backend(host, port, cells, &message);
    std::printf("add-backend %s: %s\n", spec.c_str(),
                ok ? message.c_str()
                   : (message.empty() ? client.error().c_str()
                                      : message.c_str()));
    all_ok = all_ok && ok;
    if (!client.connected()) break;
  }
  for (const std::string& spec : a.values("remove-backend")) {
    std::string host;
    uint16_t port = 0;
    parse_host_port(spec, &host, &port, "remove-backend");
    std::string message;
    const bool ok = client.remove_backend(spec, &message);
    std::printf("remove-backend %s: %s\n", spec.c_str(),
                ok ? message.c_str()
                   : (message.empty() ? client.error().c_str()
                                      : message.c_str()));
    all_ok = all_ok && ok;
    if (!client.connected()) break;
  }
  for (const std::string& spec : a.values("move-model")) {
    std::string lane, value;
    parse_name_value("move-model", spec, &lane, &value);
    std::string model;
    int tier = 0;
    parse_tier_suffix("move-model", lane, &model, &tier);
    // FROM,TO[,FILE] — the first two commas delimit; FILE keeps any
    // further commas (paths are opaque).
    const size_t c1 = value.find(',');
    if (c1 == std::string::npos || c1 == 0 || c1 + 1 >= value.size())
      parse_fail("--move-model: expected NAME[@intN]=FROM,TO[,FILE], got '" +
                 spec + "'");
    size_t c2 = value.find(',', c1 + 1);
    if (c2 == std::string::npos) c2 = value.size();
    const std::string from = value.substr(0, c1);
    const std::string to = value.substr(c1 + 1, c2 - c1 - 1);
    const std::string path =
        c2 < value.size() ? value.substr(c2 + 1) : std::string();
    if (to.empty())
      parse_fail("--move-model: empty TO address in '" + spec + "'");
    std::string message;
    const bool ok = client.move_model(model, static_cast<uint8_t>(tier),
                                      from, to, path, &message);
    std::printf("move-model %s: %s\n", spec.c_str(),
                ok ? message.c_str()
                   : (message.empty() ? client.error().c_str()
                                      : message.c_str()));
    all_ok = all_ok && ok;
    if (!client.connected()) break;
  }
  if (a.flag("placement") && client.connected()) {
    const auto placement = client.get_placement();
    if (!placement) {
      std::fprintf(stderr, "placement failed: %s\n", client.error().c_str());
      all_ok = false;
    } else {
      std::printf("placement: epoch %llu, policy %s, default model '%s', "
                  "%zu backend(s):\n",
                  static_cast<unsigned long long>(placement->epoch),
                  serve::shard::placement_policy_name(
                      static_cast<serve::shard::PlacementPolicy>(
                          placement->policy)),
                  placement->default_model.c_str(),
                  placement->backends.size());
      for (const auto& b : placement->backends) {
        std::string cells;
        for (const auto& cell : b.models) {
          cells += (cells.empty() ? "" : ", ") + cell.name;
          if (cell.tier != 0) cells += "@int" + std::to_string(cell.tier);
        }
        std::printf("  %-22s %-8s [%s]\n", b.address.c_str(),
                    serve::shard::backend_state_name(
                        static_cast<serve::shard::BackendState>(b.state)),
                    cells.c_str());
      }
    }
  }
  if (a.flag("list") && client.connected()) {
    const auto entries = client.list_models_tiered();
    if (!entries) {
      std::fprintf(stderr, "list failed: %s\n", client.error().c_str());
      all_ok = false;
    } else {
      std::printf("%zu serving lane(s):\n", entries->size());
      for (const auto& e : *entries)
        if (e.tier != 0)
          std::printf("  %s@int%u\n", e.name.c_str(), e.tier);
        else
          std::printf("  %s\n", e.name.c_str());
    }
  }
  for (const std::string& spec : a.values("stats")) {
    if (!client.connected()) break;
    std::string name;
    int tier = 0;
    parse_tier_suffix("stats", spec, &name, &tier);
    const auto stats = client.query_stats(name,
                                          static_cast<uint8_t>(tier));
    if (!stats) {
      std::fprintf(stderr, "stats %s: %s\n", spec.c_str(),
                   client.error().c_str());
      all_ok = false;
      continue;
    }
    const serve::ServeStats::Report& st = stats->report;
    const std::string lane =
        stats->tier != 0
            ? stats->model + "@int" + std::to_string(stats->tier)
            : stats->model;
    std::printf("stats %s: admitted %llu, completed %llu, timed out %llu, "
                "failed %llu, batches %llu (occupancy %.2f) [%s]\n",
                lane.c_str(),
                static_cast<unsigned long long>(st.admitted),
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.timed_out),
                static_cast<unsigned long long>(st.failed),
                static_cast<unsigned long long>(st.batches),
                st.mean_batch_occupancy,
                st.accounting_balances() ? "OK" : "MISMATCH");
    std::printf("  latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, p99.9 "
                "%.2f ms, max %.2f ms (queue %.2f ms mean; %llu samples)\n",
                st.p50_ms, st.p95_ms, st.p99_ms, st.p999_ms, st.max_ms,
                st.mean_queue_ms,
                static_cast<unsigned long long>(st.latency_samples));
  }
  if (a.flag("events") && client.connected()) {
    const uint64_t since_ns = static_cast<uint64_t>(int_opt(
        a, "since-ns", 0, 0, std::numeric_limits<long long>::max()));
    const auto events = client.dump_events(since_ns, 0);
    if (!events) {
      std::fprintf(stderr, "events failed: %s\n", client.error().c_str());
      all_ok = false;
    } else {
      // Through a proxy this is the merged fleet journal (proxy + every
      // reachable backend), already ordered by monotonic timestamp.
      std::printf("%zu flight-recorder event(s):\n", events->size());
      for (const auto& ev : *events)
        std::printf("  t=%-16llu %-16s tag=%-24s trace=%llu tier=%u "
                    "detail=%u a=%u b=%llu\n",
                    static_cast<unsigned long long>(ev.t_ns),
                    serve::flight_event_type_name(
                        static_cast<serve::FlightEventType>(ev.type)),
                    ev.tag.empty() ? "-" : ev.tag.c_str(),
                    static_cast<unsigned long long>(ev.trace_id),
                    static_cast<unsigned>(ev.tier),
                    static_cast<unsigned>(ev.detail), ev.a,
                    static_cast<unsigned long long>(ev.b));
    }
  }
  if (!client.connected() && all_ok) {
    std::fprintf(stderr, "connection lost: %s\n", client.error().c_str());
    all_ok = false;
  }
  return all_ok ? 0 : 1;
}

/// `proxy`: run the shard-aware routing proxy in front of N backend
/// `serve --listen` hosts until SIGINT / SIGTERM, then print the
/// forwarding counters and the final backend health table.
int cmd_proxy(const Args& a) {
  const std::vector<std::string>& backend_specs = a.values("backend");
  if (backend_specs.empty())
    parse_fail("proxy: at least one --backend HOST:PORT=model[,model...] "
               "is required");
  // A proxy on a random ephemeral port is unreachable by the clients
  // it exists for; usage declares --listen PORT required, so enforce it.
  if (!a.flag("listen"))
    parse_fail("proxy: --listen PORT is required");

  serve::shard::ShardProxyConfig cfg;
  cfg.bind_address = a.get("bind", "127.0.0.1");
  // Minimum 1: --listen 0 would bind a random ephemeral port, which is
  // exactly the unreachable-proxy mistake requiring --listen prevents.
  cfg.port = static_cast<uint16_t>(int_opt(a, "listen", 0, 1, 65535));
  cfg.pool_capacity =
      static_cast<size_t>(int_opt(a, "pool", 4, 1, 1024));
  cfg.health_interval = serve::Micros(
      int_opt(a, "health-interval-ms", 500, 1, 3600LL * 1000) * 1000);
  cfg.health_timeout = serve::Micros(
      int_opt(a, "health-timeout-ms", 1000, 1, 3600LL * 1000) * 1000);
  cfg.call_timeout = serve::Micros(
      int_opt(a, "call-timeout-ms", 30000, 1, 3600LL * 1000) * 1000);
  cfg.connect_timeout = serve::Micros(
      int_opt(a, "connect-timeout-ms", 2000, 1, 3600LL * 1000) * 1000);
  cfg.drain_timeout = serve::Micros(
      int_opt(a, "drain-timeout-ms", 10000, 0, 3600LL * 1000) * 1000);
  const std::string policy = a.get("policy", "explicit");
  if (policy == "hash")
    cfg.policy = serve::shard::PlacementPolicy::kConsistentHash;
  else if (policy != "explicit")
    parse_fail("--policy: expected 'explicit' or 'hash', got '" + policy +
               "'");

  serve::shard::ShardProxy proxy(cfg);
  std::set<std::string> seen_addresses;
  for (const std::string& spec : backend_specs) {
    std::string address, model_csv;
    parse_name_value("backend", spec, &address, &model_csv);
    if (!seen_addresses.insert(address).second)
      parse_fail("--backend: backend '" + address + "' given more than once");
    std::string host;
    uint16_t port = 0;
    parse_host_port(address, &host, &port, "backend");
    // Comma-split model list; empty elements and duplicates within one
    // backend are argv errors, not silently-dropped entries.
    std::vector<std::string> models;
    size_t pos = 0;
    while (pos <= model_csv.size()) {
      size_t comma = model_csv.find(',', pos);
      if (comma == std::string::npos) comma = model_csv.size();
      if (comma == pos)
        parse_fail("--backend: empty model name in '" + spec + "'");
      models.push_back(model_csv.substr(pos, comma - pos));
      pos = comma + 1;
    }
    std::string error;
    if (!proxy.add_backend(host, port, models, &error))
      parse_fail("--backend: " + error);
  }
  if (!proxy.start()) {
    std::fprintf(stderr, "proxy failed to start\n");
    return 1;
  }

  serve::FlightRecorder::instance().install_crash_handler();

  serve::MetricsHttpServer metrics(
      [&proxy] { return serve::render_proxy_metrics(proxy); });
  // The proxy journals its own health transitions and failover retries;
  // /debug/slow and /debug/lanes are router-side views, so the proxy
  // exposes the event feed plus its live placement table.
  metrics.add_endpoint("/debug/events", [](const std::string& query) {
    return serve::render_debug_events(
        serve::FlightRecorder::instance(),
        serve::debug_query_u64(query, "since_ns", 0),
        serve::debug_query_u64(query, "max", 0));
  });
  metrics.add_endpoint("/debug/placement", [&proxy](const std::string&) {
    return serve::render_debug_placement(proxy);
  });
  if (a.flag("metrics")) {
    const auto metrics_port =
        static_cast<uint16_t>(int_opt(a, "metrics", 0, 0, 65535));
    if (!metrics.start(cfg.bind_address, metrics_port)) {
      std::fprintf(stderr, "metrics endpoint failed to start\n");
      return 1;
    }
    std::printf("metrics on http://%s:%u/metrics (debug: /debug/events "
                "/debug/placement)\n",
                cfg.bind_address.c_str(), metrics.port());
  }

  std::printf("shard proxy on %s:%u — %zu backend(s), default model '%s', "
              "health every %lld ms; Ctrl-C to stop\n",
              cfg.bind_address.c_str(), proxy.port(), backend_specs.size(),
              proxy.default_model().c_str(),
              static_cast<long long>(cfg.health_interval.count() / 1000));
  for (const auto& b : proxy.backend_status()) {
    std::string models;
    for (const std::string& m : b.models)
      models += (models.empty() ? "" : ", ") + m;
    std::printf("  backend %-22s [%s]\n", b.address.c_str(), models.c_str());
  }
  std::fflush(stdout);

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (!g_stop_requested)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::printf("\nshutting down...\n");
  metrics.stop();
  proxy.stop();
  const serve::shard::ShardProxy::Counters c = proxy.counters();
  std::printf("proxy   : %llu connections, %llu served (%llu failovers, "
              "%llu exhausted, %llu unknown model), %llu admin frames, "
              "%llu protocol errors, %llu health transitions\n",
              static_cast<unsigned long long>(c.accepted),
              static_cast<unsigned long long>(c.served),
              static_cast<unsigned long long>(c.failovers),
              static_cast<unsigned long long>(c.exhausted),
              static_cast<unsigned long long>(c.unknown_model),
              static_cast<unsigned long long>(c.admin_frames),
              static_cast<unsigned long long>(c.protocol_errors),
              static_cast<unsigned long long>(c.health_transitions));
  std::printf("%-22s %-8s %10s %10s %10s %10s %6s\n", "backend", "state",
              "forwarded", "fwd-fail", "health-ok", "health-bad", "recov");
  for (const auto& b : proxy.backend_status())
    std::printf("%-22s %-8s %10llu %10llu %10llu %10llu %6llu\n",
                b.address.c_str(),
                serve::shard::backend_state_name(b.state),
                static_cast<unsigned long long>(b.forwarded),
                static_cast<unsigned long long>(b.forward_failures),
                static_cast<unsigned long long>(b.health_ok),
                static_cast<unsigned long long>(b.health_failed),
                static_cast<unsigned long long>(b.recoveries));
  return 0;
}

int cmd_loadgen(const Args& a) {
  if (a.flag("connect")) return run_remote_loadgen(a);
  // The traffic mix routes by model name — and trace ids (which the
  // per-stage CSV columns need) ride v3 frames — over the wire only.
  reject_options(a, "(local)", {"model", "trace-every", "latency-csv"});

  const std::vector<int64_t> batches =
      parse_int_list("batch-sweep", a.get("batch-sweep", "1,8,16"), 1, 4096);
  const std::vector<int64_t> workers =
      parse_int_list("worker-sweep", a.get("worker-sweep", "1,2"), 1, 1024);
  serve::LoadgenConfig lcfg = loadgen_config_from(a);
  serve::RouterConfig rcfg = router_config_from(a);

  serve::EngineRegistry registry;
  auto engine = resolve_engine(a, registry, "default");
  if (!engine) return usage();

  std::printf("%-8s %-6s %10s %9s %9s %9s %10s\n", "workers", "batch",
              "req/s", "p50 ms", "p95 ms", "p99 ms", "occupancy");
  for (const int64_t w : workers) {
    for (const int64_t b : batches) {
      rcfg.num_workers = static_cast<int>(w);
      rcfg.max_batch = b;
      serve::LoadgenReport lg;
      const std::optional<serve::ServeStats::Report> report =
          run_local_loadgen(registry, rcfg, lcfg, &lg);
      if (!report) return 1;
      const serve::ServeStats::Report& st = *report;
      std::printf("%-8lld %-6lld %10.1f %9.2f %9.2f %9.2f %10.2f\n",
                  static_cast<long long>(w), static_cast<long long>(b),
                  lg.throughput_rps(), st.p50_ms, st.p95_ms, st.p99_ms,
                  st.mean_batch_occupancy);
    }
  }
  return 0;
}

int cmd_train(const Args& a) {
  const std::string task_name = a.get("task");
  const std::string out = a.get("out");
  if (task_name.empty() || out.empty()) return usage();
  TaskData task = make_named_task(task_name, a.flag("fast"));
  auto model = train_float(task, a.flag("fast"), 7, /*verbose=*/true,
                           /*cache_dir=*/"");
  nn::save_state(*model, out);
  std::printf("float model saved to %s (eval acc %.2f%%)\n", out.c_str(),
              model->accuracy(task.eval));
  return 0;
}

int cmd_quantize(const Args& a) {
  const std::string task_name = a.get("task");
  const std::string model_path = a.get("model");
  const std::string out = a.get("out");
  if (task_name.empty() || model_path.empty() || out.empty()) return usage();
  const bool fast = a.flag("fast");
  TaskData task = make_named_task(task_name, fast);

  Rng rng(1);
  nn::BertModel model(mini_config(task.num_classes), rng);
  if (!nn::load_state(model, model_path)) {
    std::fprintf(stderr, "cannot load float model %s\n", model_path.c_str());
    return 1;
  }

  FqQuantConfig cfg = FqQuantConfig::full();
  cfg.weight_bits = static_cast<int>(int_opt(a, "bits", 4, 2, 8));
  if (a.flag("no-clip")) cfg.clip = quant::ClipMode::kNone;
  if (a.flag("no-softmax-quant")) cfg.quantize_softmax = false;
  if (a.flag("no-ln-quant")) cfg.quantize_layernorm = false;
  if (a.flag("no-scale-quant")) cfg.quantize_scales = false;

  std::printf("QAT fine-tuning (w%d/a%d)...\n", cfg.weight_bits, cfg.act_bits);
  core::FqBertModel engine = quantize_pipeline(model, task, cfg, fast);
  // --mapped writes the FQBERT03 mmap layout (weight tiles 64-byte aligned
  // after the metadata), so serving loads it zero-copy and N server
  // processes share one physical copy of the weight pages.
  const bool ok = a.flag("mapped") ? engine.save_mapped(out)
                                   : engine.save(out);
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("quantized engine saved to %s%s (eval acc %.2f%%)\n",
              out.c_str(), a.flag("mapped") ? " (mmap layout)" : "",
              engine.accuracy(task.eval));
  return 0;
}

int cmd_eval(const Args& a) {
  const std::string task_name = a.get("task");
  const std::string engine_path = a.get("engine");
  if (task_name.empty() || engine_path.empty()) return usage();
  TaskData task = make_named_task(task_name, a.flag("fast"));
  core::FqBertModel engine = core::FqBertModel::load_any(engine_path);
  std::printf("%s accuracy: %.2f%% (eval), %.2f%% (train)\n",
              task.name.c_str(), engine.accuracy(task.eval),
              engine.accuracy(task.train));
  if (!task.eval_extra.empty())
    std::printf("%s-mismatched accuracy: %.2f%%\n", task.name.c_str(),
                engine.accuracy(task.eval_extra));
  return 0;
}

int cmd_info(const Args& a) {
  const std::string engine_path = a.get("engine");
  if (engine_path.empty()) return usage();
  core::FqBertModel engine = core::FqBertModel::load_any(engine_path);
  const auto& c = engine.config();
  const auto& q = engine.quant_config();
  std::printf("FQ-BERT engine: %s\n", engine_path.c_str());
  std::printf("  model: L=%lld hidden=%lld heads=%lld ffn=%lld vocab=%lld "
              "classes=%lld\n",
              static_cast<long long>(c.num_layers),
              static_cast<long long>(c.hidden),
              static_cast<long long>(c.num_heads),
              static_cast<long long>(c.ffn_dim),
              static_cast<long long>(c.vocab_size),
              static_cast<long long>(c.num_classes));
  std::printf("  quant: w%d/a%d clip=%s scale8=%d softmaxLUT=%d intLN=%d\n",
              q.weight_bits, q.act_bits,
              q.clip == quant::ClipMode::kPercentile ? "percentile" : "none",
              q.quantize_scales, q.quantize_softmax, q.quantize_layernorm);
  const auto size = engine.size_report();
  std::printf("  size: %.1f KB quantized (%.2fx vs float)\n",
              size.quant_bytes / 1024.0, size.compression_ratio());
  for (size_t l = 0; l < engine.encoder_layers().size(); ++l) {
    const auto& layer = engine.encoder_layers()[l];
    std::printf("  layer %zu scales: in=%.3f q=%.3f k=%.3f v=%.3f out=%.3f\n",
                l, layer.in_scale, layer.q_scale, layer.k_scale,
                layer.v_scale, layer.out_scale);
  }
  return 0;
}

int cmd_estimate(const Args& a) {
  accel::FpgaDevice dev = a.get("device", "zcu102") == "zcu111"
                              ? accel::FpgaDevice::zcu111()
                              : accel::FpgaDevice::zcu102();
  accel::AcceleratorConfig cfg;
  cfg.pes_per_pu = static_cast<int>(int_opt(a, "pes", 8, 1, 4096));
  cfg.bim_mults = static_cast<int>(int_opt(a, "mults", 16, 1, 65536));
  const int64_t seq = int_opt(a, "seq", 128, 1, 100000);
  const auto rep = accel::evaluate(cfg, dev, nn::BertConfig::bert_base(2), seq);
  std::printf("accelerator estimate on %s, (N,M)=(%d,%d), seq %lld:\n",
              dev.name.c_str(), cfg.pes_per_pu, cfg.bim_mults,
              static_cast<long long>(seq));
  std::printf("  resources: %lld DSP, %lld BRAM18K, %lld FF, %lld LUT%s\n",
              static_cast<long long>(rep.resources.dsp48),
              static_cast<long long>(rep.resources.bram18k),
              static_cast<long long>(rep.resources.ff),
              static_cast<long long>(rep.resources.lut),
              rep.resources.fits(dev) ? "" : "  [DOES NOT FIT]");
  std::printf("  latency: %.2f ms  power: %.1f W  efficiency: %.2f fps/W\n",
              rep.latency.total_ms, rep.power_w, rep.fps_per_w);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.command == "train") return cmd_train(a);
    if (a.command == "quantize") return cmd_quantize(a);
    if (a.command == "eval") return cmd_eval(a);
    if (a.command == "info") return cmd_info(a);
    if (a.command == "estimate") return cmd_estimate(a);
    if (a.command == "serve") return cmd_serve(a);
    if (a.command == "loadgen") return cmd_loadgen(a);
    if (a.command == "admin") return cmd_admin(a);
    if (a.command == "proxy") return cmd_proxy(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
