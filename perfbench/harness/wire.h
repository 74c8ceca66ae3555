// The benchmark's load generator. Load frames are built and parsed with
// the public serve/net/frame.h codec over plain non-blocking loopback
// TCP, so one thread can keep many requests in flight; the set-up probe
// and every control call use the library's blocking TransportClient. A phase drives `kLoadThreads` threads, each owning
// `kConnsPerThread` pipelined connections:
//
//  * open loop: each thread follows its own precomputed arrival
//    schedule (Poisson, optionally gated by on/off bursts) and sends
//    every request when it is due, whatever is still outstanding,
//    polling its sockets without sleeping in between; latency is timed
//    from the due time;
//  * closed loop: each connection keeps `window` requests outstanding
//    and sends the next one when a response arrives.
//
// Every kOk response's logits are compared bit-for-bit with the
// in-process forward() of the same engine and example.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/bert.h"
#include "serve/net/frame.h"
#include "serve/trace.h"

namespace perfbench {

namespace net = fqbert::serve::net;

inline constexpr int kLoadThreads = 1;
inline constexpr int kConnsPerThread = 4;

// One served (model, tier) lane with its example pool and the expected
// logits of each example, computed in-process on the same engine file.
struct Lane {
  std::string model;
  uint8_t tier = 0;  // on the wire; 0 = the model's default tier
  std::vector<fqbert::nn::Example> examples;
  std::vector<std::vector<float>> expected;
};

// Send one request to every lane until each answers kOk with the
// expected logits; returns the seconds from `t0` until the first and the
// last lane answered, or negative values on timeout.
struct ProbeTimes {
  double first_s = -1.0;
  double all_s = -1.0;
};
ProbeTimes probe_lanes(uint16_t port, const std::vector<Lane>& lanes,
                       std::chrono::steady_clock::time_point t0,
                       std::chrono::milliseconds timeout);

// Transport-level failure (connection lost or response never came),
// recorded in the same field as a RequestStatus.
inline constexpr uint8_t kTransportFailed = 0xff;

struct Outcome {
  int64_t due_ns = 0;   // schedule (open loop) or send time (closed)
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  uint32_t lane = 0;
  uint32_t example = 0;
  uint8_t status = kTransportFailed;
  bool logits_match = false;
  int32_t batch_size = 0;
  std::vector<fqbert::serve::TraceEvent> stages;
};

struct PhaseConfig {
  bool open_loop = true;
  double seconds = 1.0;
  uint16_t port = 0;
  uint64_t seed = 1;
  bool traced = false;
  // Open loop: mean offered rate over the whole phase. With burst_on_s
  // > 0 arrivals come only in on-windows (burst_on_s on, burst_off_s
  // off), at the rate that keeps the same mean.
  double rate_rps = 100.0;
  double burst_on_s = 0.0;
  double burst_off_s = 0.0;
  // Closed loop: requests each connection keeps outstanding.
  int window = 1;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;  // every request sent, by due time
  std::vector<double> late_us;    // open loop: send time - due time
  int64_t backlog_max = 0;        // most requests due but unsent at once
  bool backlog_growing = false;

  uint64_t sent() const { return outcomes.size(); }
};

// Run one phase. `side`, when given, runs on the calling thread while
// the load threads work (the proxy workload's MOVE_MODEL stream); it
// must return once `load_done` reads true.
PhaseResult run_phase(
    const PhaseConfig& cfg, const std::vector<Lane>& lanes,
    const std::function<void(const std::atomic<bool>& load_done)>& side = {});

}  // namespace perfbench
