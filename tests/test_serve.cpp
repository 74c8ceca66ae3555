// Serving subsystem tests: batched-forward bit-identity, the request
// queue's FIFO pop, deadline set-aside and abort, and a one-lane router
// end to end: deadline admission and timeout, response-to-request
// ordering under concurrent submitters, and shutdown (drain and abort).
#include <gtest/gtest.h>

#include <thread>

#include "pipeline/pipeline.h"
#include "serve/loadgen.h"
#include "serve/router/model_router.h"
#include "test_util.h"

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

/// A functional engine without any training: random weights, calibrated
/// observers (accuracy is irrelevant to the serving machinery, the
/// integer pipeline is fully exercised).
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
      calib.push_back(
          synth_example(data_rng, 4 + (i % 3) * 6, config));
    qat.calibrate(calib);
    engine = std::make_shared<const FqBertModel>(FqBertModel::convert(qat));
  }
};

EngineFixture& fixture() {
  static EngineFixture f;
  return f;
}

ServeRequest make_request(uint64_t id, int64_t seq_len,
                          std::optional<Micros> budget = std::nullopt) {
  Rng rng(id * 131 + 7);
  ServeRequest req;
  req.id = id;
  req.example = synth_example(rng, seq_len, fixture().config);
  req.enqueue_time = Clock::now();
  if (budget) req.deadline = req.enqueue_time + *budget;
  return req;
}

// ---------------------------------------------------------------------------
// Batched forward
// ---------------------------------------------------------------------------

TEST(ForwardBatch, BitIdenticalToSingleForwardAcrossMixedLengths) {
  const FqBertModel& engine = *fixture().engine;
  Rng rng(3);
  std::vector<Example> batch;
  for (const int64_t len : {5, 12, 3, 32, 12, 7, 19, 12})
    batch.push_back(synth_example(rng, len, fixture().config));

  const std::vector<Tensor> batched = engine.forward_batch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const Tensor single = engine.forward(batch[i]);
    ASSERT_EQ(single.numel(), batched[i].numel());
    for (int64_t c = 0; c < single.numel(); ++c)
      EXPECT_EQ(single[c], batched[i][c])
          << "example " << i << " logit " << c;
  }
}

TEST(ForwardBatch, RepeatedCallsReuseScratchConsistently) {
  const FqBertModel& engine = *fixture().engine;
  Rng rng(4);
  // Shrinking then growing batches exercise the grow-only scratch.
  for (const size_t n : {6u, 1u, 8u, 2u}) {
    std::vector<Example> batch;
    for (size_t i = 0; i < n; ++i)
      batch.push_back(synth_example(rng, 4 + 3 * static_cast<int64_t>(i),
                                    fixture().config));
    const std::vector<Tensor> batched = engine.forward_batch(batch);
    for (size_t i = 0; i < n; ++i) {
      const Tensor single = engine.forward(batch[i]);
      for (int64_t c = 0; c < single.numel(); ++c)
        EXPECT_EQ(single[c], batched[i][c]);
    }
  }
}

// ---------------------------------------------------------------------------
// Request queue admission
// ---------------------------------------------------------------------------

TEST(RequestQueue, RejectsExpiredDeadlineAtAdmission) {
  RequestQueue queue(RequestQueueConfig{4});
  ServeRequest dead = make_request(1, 8, Micros(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(queue.submit(std::move(dead)), AdmitResult::kDeadlineExpired);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueue, RejectsWhenFullAndAfterClose) {
  RequestQueue queue(RequestQueueConfig{2});
  EXPECT_EQ(queue.submit(make_request(1, 8)), AdmitResult::kOk);
  EXPECT_EQ(queue.submit(make_request(2, 8)), AdmitResult::kOk);
  EXPECT_EQ(queue.submit(make_request(3, 8)), AdmitResult::kQueueFull);
  queue.close();
  EXPECT_EQ(queue.submit(make_request(4, 8)), AdmitResult::kClosed);
  // Pending requests stay drainable after close.
  std::vector<ServeRequest> drained;
  queue.drain_into(drained);
  EXPECT_EQ(drained.size(), 2u);
}

TEST(RequestQueue, PopHandsOutWhatIsQueuedAtOnce) {
  RequestQueue queue(RequestQueueConfig{64});
  std::vector<ServeRequest> batch, expired;
  EXPECT_TRUE(queue.pop(batch, 8, Clock::now(), expired));
  EXPECT_TRUE(batch.empty());
  ASSERT_EQ(queue.submit(make_request(1, 8)), AdmitResult::kOk);
  // The very next pop hands the lone request out: a free worker never
  // waits for a batch to fill.
  EXPECT_TRUE(queue.pop(batch, 8, Clock::now(), expired));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 1u);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueue, MixedLengthBacklogPopsFifoBatches) {
  RequestQueue queue(RequestQueueConfig{64});
  const std::vector<int64_t> lengths = {6, 30, 2, 14, 9, 20};
  for (size_t i = 0; i < lengths.size(); ++i)
    ASSERT_EQ(queue.submit(make_request(i + 1, lengths[i])),
              AdmitResult::kOk);
  // One batch of max across every length, in admission order, then the
  // rest.
  std::vector<ServeRequest> batch, expired;
  EXPECT_TRUE(queue.pop(batch, 4, Clock::now(), expired));
  ASSERT_EQ(batch.size(), 4u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].id, i + 1);
    EXPECT_EQ(batch[i].seq_len(), lengths[i]);
  }
  // close() stops admission, not hand-out: the rest still drains, and
  // the pop that empties a closed queue reports it finished.
  queue.close();
  batch.clear();
  EXPECT_FALSE(queue.pop(batch, 4, Clock::now(), expired));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 5u);
  EXPECT_EQ(batch[1].id, 6u);
  batch.clear();
  EXPECT_FALSE(queue.pop(batch, 4, Clock::now(), expired));
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(expired.empty());
}

TEST(RequestQueue, ExpiredRequestsSetAsideWithoutTakingASlot) {
  RequestQueue queue(RequestQueueConfig{64});
  ASSERT_EQ(queue.submit(make_request(1, 8, Micros(2000))), AdmitResult::kOk);
  ASSERT_EQ(queue.submit(make_request(2, 8)), AdmitResult::kOk);

  // max 1: the expired request must not take the one slot.
  std::vector<ServeRequest> batch, expired;
  const TimePoint later = Clock::now() + std::chrono::milliseconds(5);
  EXPECT_TRUE(queue.pop(batch, 1, later, expired));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 2u);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 1u);
}

TEST(RequestQueue, AbortStopsHandOutAndKeepsWorkForDrain) {
  RequestQueue queue(RequestQueueConfig{64});
  for (uint64_t i = 0; i < 5; ++i)
    ASSERT_EQ(queue.submit(make_request(i + 1, 8)), AdmitResult::kOk);

  queue.abort();
  // After abort() a worker's pop takes nothing and is told to exit;
  // admissions are closed too.
  std::vector<ServeRequest> batch, expired;
  EXPECT_FALSE(queue.pop(batch, 8, Clock::now(), expired));
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(queue.submit(make_request(6, 8)), AdmitResult::kClosed);
  // Everything queued is left for the aborter to fail.
  std::vector<ServeRequest> left;
  queue.drain_into(left);
  EXPECT_EQ(left.size(), 5u);
}

// ---------------------------------------------------------------------------
// End-to-end: a one-lane router, as the CLI and benches run it
// ---------------------------------------------------------------------------

RouterConfig router_config(int workers, int64_t max_batch = 8) {
  RouterConfig cfg;
  cfg.num_workers = workers;
  cfg.max_batch = max_batch;
  return cfg;
}

/// A started router with one lane, "tiny", serving the fixture engine.
struct TinyRouter {
  EngineRegistry registry;
  ModelRouter router;

  explicit TinyRouter(const RouterConfig& cfg) : router(registry, cfg) {
    registry.register_model("tiny", fixture().engine);
    EXPECT_TRUE(router.add_model("tiny"));
    EXPECT_TRUE(router.start());
  }

  ServeStats::Report report() const { return *router.stats_report("tiny"); }
};

TEST(ModelRouterLane, ResponsesMatchRequestsUnderConcurrentSubmitters) {
  TinyRouter tiny(router_config(2, 4));
  ModelRouter& router = tiny.router;

  constexpr int kClients = 4, kPerClient = 25;
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + c);
      for (int i = 0; i < kPerClient; ++i) {
        Example ex =
            synth_example(rng, 3 + rng.randint(0, 20), fixture().config);
        auto fut = router.submit("tiny", ex);
        const ServeResponse resp = fut.get();
        if (resp.status != RequestStatus::kOk) {
          ++mismatches[c];
          continue;
        }
        // The response must carry *this* request's logits, bit-exact.
        const Tensor expect = fixture().engine->forward(ex);
        for (int64_t j = 0; j < expect.numel(); ++j)
          if (expect[j] != resp.logits[static_cast<size_t>(j)])
            ++mismatches[c];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  router.shutdown(/*drain=*/true);

  for (int c = 0; c < kClients; ++c) EXPECT_EQ(mismatches[c], 0);
  const ServeStats::Report report = tiny.report();
  EXPECT_EQ(report.admitted, kClients * kPerClient);
  EXPECT_EQ(report.completed, kClients * kPerClient);
  EXPECT_GE(report.batches, 1u);
}

TEST(ModelRouterLane, GracefulShutdownDrainsQueue) {
  TinyRouter tiny(router_config(1, 1));
  ModelRouter& router = tiny.router;

  // The one worker takes a request at a time, so shutdown lands on a
  // backlog it must finish, not fail.
  Rng rng(5);
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(
        router.submit("tiny", synth_example(rng, 32, fixture().config)));

  router.shutdown(/*drain=*/true);
  int ok = 0;
  for (auto& fut : futures) ok += fut.get().status == RequestStatus::kOk;
  EXPECT_EQ(ok, 64);
  EXPECT_EQ(tiny.report().completed, 64u);

  // Post-shutdown submissions are rejected with kShutdown.
  auto late = router.submit("tiny", synth_example(rng, 8, fixture().config));
  EXPECT_EQ(late.get().status, RequestStatus::kShutdown);
}

TEST(ModelRouterLane, RejectsMalformedExamplesAtAdmission) {
  TinyRouter tiny(router_config(2));
  ModelRouter& router = tiny.router;

  Rng rng(11);
  const BertConfig& cfg = fixture().config;
  Example too_long = synth_example(rng, cfg.max_seq_len, cfg);
  too_long.tokens.push_back(1);
  too_long.segments.push_back(0);
  Example bad_token = synth_example(rng, 8, cfg);
  bad_token.tokens[3] = static_cast<int32_t>(cfg.vocab_size);
  Example ragged_segments = synth_example(rng, 8, cfg);
  ragged_segments.segments.pop_back();
  Example empty;

  for (Example* ex : {&too_long, &bad_token, &ragged_segments, &empty}) {
    AdmitResult admit;
    auto fut = router.submit("tiny", *ex, std::nullopt, &admit);
    EXPECT_EQ(admit, AdmitResult::kInvalidExample);
    EXPECT_EQ(fut.get().status, RequestStatus::kRejectedInvalid);
  }
  // A well-formed example still sails through on the same lane.
  auto ok = router.submit("tiny", synth_example(rng, 8, cfg));
  EXPECT_EQ(ok.get().status, RequestStatus::kOk);
  router.shutdown();
  // A late submit to the served lane is rejected and counted on it.
  auto late = router.submit("tiny", synth_example(rng, 8, cfg));
  EXPECT_EQ(late.get().status, RequestStatus::kShutdown);
  // The rejections are visible server-side, not only in client counts.
  EXPECT_EQ(tiny.report().rejected_invalid, 4u);
  EXPECT_EQ(tiny.report().rejected_closed, 1u);
}

TEST(ModelRouterLane, ZeroWorkerConfigStillServes) {
  TinyRouter tiny(router_config(0));  // clamped to 1: futures must never hang
  EXPECT_EQ(tiny.router.num_workers(), 1u);
  Rng rng(17);
  auto fut = tiny.router.submit("tiny", synth_example(rng, 8, fixture().config));
  EXPECT_EQ(fut.get().status, RequestStatus::kOk);
  tiny.router.shutdown();
}

TEST(ModelRouterLane, DeadlineRejectionTimeoutAndStatsCounters) {
  TinyRouter tiny(router_config(1, 1));
  ModelRouter& router = tiny.router;

  // Dead on arrival: rejected at admission, never queued.
  Rng rng(8);
  AdmitResult admit;
  auto fut = router.submit("tiny", synth_example(rng, 8, fixture().config),
                           Micros(-1000), &admit);
  EXPECT_EQ(admit, AdmitResult::kDeadlineExpired);
  EXPECT_EQ(fut.get().status, RequestStatus::kRejectedDeadline);

  // Expired in the queue: the one worker, taking a request at a time,
  // is still far from the end of this backlog when the 1 ms budget of
  // the request behind it runs out, so the lane times it out instead
  // of running it.
  std::vector<std::future<ServeResponse>> backlog;
  for (int i = 0; i < 512; ++i)
    backlog.push_back(
        router.submit("tiny", synth_example(rng, 32, fixture().config)));
  auto doomed = router.submit("tiny", synth_example(rng, 8, fixture().config),
                              Micros(1000), &admit);
  EXPECT_EQ(admit, AdmitResult::kOk);
  EXPECT_EQ(doomed.get().status, RequestStatus::kTimedOut);
  router.shutdown();
  for (auto& f : backlog) EXPECT_EQ(f.get().status, RequestStatus::kOk);

  const ServeStats::Report r = tiny.report();
  EXPECT_EQ(r.rejected_deadline, 1u);
  EXPECT_EQ(r.timed_out, 1u);
  EXPECT_TRUE(r.accounting_balances());
}

// ---------------------------------------------------------------------------
// Engine registry
// ---------------------------------------------------------------------------

TEST(EngineRegistry, InMemoryEntriesShareOneInstance) {
  EngineRegistry registry;
  registry.register_model("tiny", fixture().engine);
  EXPECT_TRUE(registry.contains("tiny"));
  EXPECT_EQ(registry.get("tiny").get(), fixture().engine.get());
  EXPECT_EQ(registry.source_path("tiny"), "");
  EXPECT_EQ(registry.get("missing"), nullptr);
}

TEST(EngineRegistry, FileBackedEntriesShareOneLoadedInstance) {
  const testing::TempFile file("fq_serve_registry.bin");
  const std::string& path = file.path();
  ASSERT_TRUE(fixture().engine->save(path));

  EngineRegistry registry;
  ASSERT_TRUE(registry.register_file("disk", path));
  auto r1 = registry.get("disk");
  auto r2 = registry.get("disk");
  ASSERT_NE(r1, nullptr);
  // One load, one weight store, shared by every consumer.
  EXPECT_EQ(r1.get(), r2.get());
  EXPECT_EQ(registry.source_path("disk"), path);

  // The shared instance serves bit-identical logits to the original.
  Rng rng(9);
  const Example ex = synth_example(rng, 10, fixture().config);
  const Tensor a = fixture().engine->forward(ex);
  const Tensor b = r1->forward(ex);
  for (int64_t j = 0; j < a.numel(); ++j) EXPECT_EQ(a[j], b[j]);

  EXPECT_FALSE(registry.register_file("bad", path + ".nope"));
}

TEST(ModelRouterLane, WorkersShareOneEngineInstance) {
  EngineRegistry registry;
  registry.register_model("tiny", fixture().engine);
  const long before = fixture().engine.use_count();

  ModelRouter router(registry, router_config(4));
  ASSERT_TRUE(router.add_model("tiny"));
  ASSERT_TRUE(router.start());
  EXPECT_EQ(router.num_workers(), 4u);
  // Registry entry + the lane's single shared handle: starting 4
  // workers must not create 4 engine copies.
  EXPECT_EQ(fixture().engine.use_count(), before + 1);

  Rng rng(21);
  auto fut = router.submit("tiny", synth_example(rng, 8, fixture().config));
  EXPECT_EQ(fut.get().status, RequestStatus::kOk);
  router.shutdown(/*drain=*/true);
}

// ---------------------------------------------------------------------------
// Stats: bounded memory and terminal-state accounting
// ---------------------------------------------------------------------------

TEST(ServeStats, SketchBoundsMemoryOverLongRunsWithLifetimeQuantiles) {
  ServeStats stats;
  // A >=100k-request run: counters stay exact, and the sketch holds a
  // bounded number of buckets while covering EVERY sample (no window).
  constexpr uint64_t kRequests = 200000;
  for (uint64_t i = 0; i < kRequests; ++i) {
    stats.record_admitted();
    stats.record_response(static_cast<int64_t>(1000 + i), 10);
  }
  const ServeStats::Report r = stats.report();
  EXPECT_EQ(r.admitted, kRequests);
  EXPECT_EQ(r.completed, kRequests);
  EXPECT_EQ(r.latency_samples, kRequests);  // lifetime, not a window
  EXPECT_TRUE(r.accounting_balances());
  // Bounded memory: 1ms..201ms spans a few hundred log-buckets at 1%
  // relative error, regardless of sample count.
  EXPECT_LE(r.latency_sketch.buckets().size(), 1024u);
  // Quantiles describe the whole run within the sketch's relative
  // error: true p50 of 1000..200999 us is ~101000 us.
  EXPECT_NEAR(r.p50_ms, 101.0, 101.0 * 3.0 * QuantileSketch::kDefaultAlpha);
  EXPECT_GE(r.p99_ms, r.p95_ms);
  EXPECT_GE(r.max_ms, r.p999_ms);
  EXPECT_DOUBLE_EQ(r.max_ms, (1000.0 + kRequests - 1) / 1000.0);  // exact
}

TEST(ServeStats, ResetClearsSketchAndCounters) {
  ServeStats stats;
  for (int i = 0; i < 10; ++i) stats.record_response(100, 1);
  stats.record_failure();
  stats.reset();
  const ServeStats::Report r = stats.report();
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.latency_samples, 0u);
  EXPECT_EQ(r.p99_ms, 0.0);
}

TEST(ModelRouterLane, ShutdownAccountingBalancesExactly) {
  TinyRouter tiny(router_config(1, 1));
  ModelRouter& router = tiny.router;

  // The one worker takes a request at a time, so it cannot get through
  // this backlog before the abort: the abort must fail what is still
  // queued rather than run it, and every future reaches exactly the
  // terminal state the stats count for it.
  constexpr uint64_t kRequests = 1024;
  Rng rng(13);
  std::vector<Example> examples;
  for (uint64_t i = 0; i < kRequests; ++i)
    examples.push_back(synth_example(rng, 32, fixture().config));
  std::vector<std::future<ServeResponse>> futures;
  for (Example& ex : examples)
    futures.push_back(router.submit("tiny", std::move(ex)));
  router.shutdown(/*drain=*/false);
  uint64_t ok = 0, shut = 0;
  for (auto& fut : futures) {
    const RequestStatus status = fut.get().status;
    ok += status == RequestStatus::kOk;
    shut += status == RequestStatus::kShutdown;
  }
  EXPECT_EQ(ok + shut, kRequests);
  EXPECT_GT(shut, 0u) << "abort mode completed the whole backlog";

  const ServeStats::Report r = tiny.report();
  EXPECT_EQ(r.admitted, kRequests);
  EXPECT_EQ(r.completed, ok);
  EXPECT_EQ(r.failed, shut);
  EXPECT_GT(r.failed, 0u);
  EXPECT_EQ(r.completed + r.timed_out + r.failed, r.admitted)
      << "admitted requests must all reach exactly one terminal state";
  EXPECT_TRUE(r.accounting_balances());
}

TEST(ModelRouterLane, LoadgenAccountingBalancesWithTimeouts) {
  TinyRouter tiny(router_config(2, 8));

  LoadgenConfig lcfg;
  lcfg.num_clients = 4;
  lcfg.requests_per_client = 50;
  // Tight deadline: some requests expire in queue, exercising the
  // timed-out terminal path alongside completions.
  lcfg.deadline_budget = Micros(1500);
  const LoadgenReport lg = run_loadgen(tiny.router, fixture().config, lcfg);
  tiny.router.shutdown(/*drain=*/true);

  const ServeStats::Report r = tiny.report();
  EXPECT_EQ(lg.sent, 200u);
  EXPECT_TRUE(r.accounting_balances())
      << "admitted " << r.admitted << " != completed " << r.completed
      << " + timed_out " << r.timed_out << " + failed " << r.failed;
  // Client-side and server-side views agree.
  EXPECT_EQ(r.completed, lg.ok);
  EXPECT_EQ(r.timed_out, lg.timed_out);
  EXPECT_EQ(r.failed, lg.failed);
}

}  // namespace
}  // namespace fqbert::serve
