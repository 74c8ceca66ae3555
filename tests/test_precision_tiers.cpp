// Precision-tier serving tests: one logical model bound to an ordered
// set of weight bit-widths. The acceptance bar, per tier:
//
//  * a derived tier served through the router is BIT-IDENTICAL to a
//    dedicated server loading that derived engine as-quantized from
//    disk (derivation happens once, at registration — never per
//    request);
//  * every tier resides in exactly Σ padded(out)·padded(in) weight
//    bytes (all bit-widths share one int8 tile layout);
//  * mmap-loaded (FQBERT03) engines are bit-identical to their stream
//    ancestors and survive a forward fuzz against the seed's scalar
//    oracle, a retired FQBERT02 file is refused by name, and one whose
//    tile padding is not zero is refused as corrupt;
//  * one tier can be hot-minted and hot-unloaded over the wire while
//    its SIBLING tier keeps serving, each lane's accounting balancing
//    independently;
//  * protocol v1-v3 clients — whose frames have no tier field — keep
//    being served on the model's default tier;
//  * EngineRegistry::register_file REPLACES an existing (name, tier)
//    binding atomically under live forward traffic (the regression
//    this PR fixes: it used to refuse, so a re-push of a retrained
//    engine needed a full unregister window).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "core/fq_bert.h"
#include "fq_oracle.h"
#include "serve/loadgen.h"
#include "serve/net/transport_client.h"
#include "serve/net/transport_server.h"
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

BertConfig tier_shape() {
  BertConfig c;
  c.vocab_size = 128;
  c.hidden = 16;
  c.num_layers = 2;
  c.num_heads = 2;
  c.ffn_dim = 32;
  c.max_seq_len = 24;
  c.num_classes = 2;
  return c;
}

/// A visibly different shape, so a registry replace is observable from
/// the engine a reader resolves.
BertConfig other_shape() {
  BertConfig c = tier_shape();
  c.hidden = 24;
  c.num_heads = 3;
  c.ffn_dim = 48;
  c.num_classes = 3;
  return c;
}

/// Calibrated random-weight engine at an explicit native weight width.
FqBertModel build_engine(const BertConfig& config, int weight_bits,
                         uint64_t seed) {
  Rng rng(seed);
  BertModel model(config, rng);
  FqQuantConfig qcfg = FqQuantConfig::full();
  qcfg.weight_bits = weight_bits;
  QatBert qat(model, qcfg);
  std::vector<Example> calib;
  Rng data_rng(seed * 31 + 7);
  for (int i = 0; i < 12; ++i)
    calib.push_back(synth_example(data_rng, 4 + (i % 3) * 5, config));
  qat.calibrate(calib);
  return FqBertModel::convert(qat);
}

/// The shared int8 parent every test derives from (engines are
/// immutable after conversion, so one instance is safe to share).
std::shared_ptr<const FqBertModel> int8_parent() {
  static auto engine = std::make_shared<const FqBertModel>(
      build_engine(tier_shape(), 8, 4001));
  return engine;
}

RouterConfig fast_router_config(int workers = 2) {
  RouterConfig cfg;
  cfg.num_workers = workers;
  cfg.max_batch = 4;
  return cfg;
}

void expect_logits_eq(const Tensor& want, const std::vector<float>& got,
                      const std::string& what) {
  ASSERT_EQ(static_cast<size_t>(want.numel()), got.size()) << what;
  for (int64_t j = 0; j < want.numel(); ++j)
    EXPECT_EQ(want[j], got[static_cast<size_t>(j)]) << what << " logit " << j;
}

// ---------------------------------------------------------------------------
// Tier derivation: range math, identity, memory.
// ---------------------------------------------------------------------------

TEST(PrecisionTiers, DeriveAtNativeWidthIsIdentity) {
  const FqBertModel derived = int8_parent()->derive_tier(8);
  Rng rng(11);
  for (int i = 0; i < 8; ++i) {
    const Example ex = synth_example(rng, 4 + i * 2, tier_shape());
    const Tensor want = int8_parent()->forward(ex);
    const Tensor got = derived.forward(ex);
    ASSERT_EQ(want.numel(), got.numel());
    for (int64_t j = 0; j < want.numel(); ++j)
      EXPECT_EQ(want[j], got[j]) << "example " << i << " logit " << j;
  }
}

TEST(PrecisionTiers, ResidentWeightBytesArePaddedTiles) {
  // Every tier stores the same int8 tiles, so every tier's resident
  // weight bytes are exactly Σ padded(out)·padded(in) over its six
  // linears per layer: the int8 parent costs what an int4 tier costs.
  const FqBertModel& parent = *int8_parent();
  size_t want = 0;
  for (const core::FqEncoderLayer& l : parent.encoder_layers())
    for (const core::QuantLinear* q : {&l.wq, &l.wk, &l.wv, &l.wo, &l.ffn1,
                                       &l.ffn2})
      want += static_cast<size_t>(core::padded_cols(q->out) *
                                  core::padded_depth(q->in));
  ASSERT_GT(want, 0u);
  EXPECT_EQ(parent.resident_weight_bytes(), want);
  for (const int bits : {2, 4, 6})
    EXPECT_EQ(parent.derive_tier(bits).resident_weight_bytes(), want)
        << "int" << bits;
}

TEST(PrecisionTiers, DerivedTierBitIdenticalToDedicatedServer) {
  // Tiered side: one name, two lanes (native int8 + derived int4).
  EngineRegistry registry;
  registry.register_model("m", int8_parent());
  ASSERT_TRUE(registry.register_derived("m", 4));
  ModelRouter router(registry, fast_router_config());
  ASSERT_TRUE(router.add_model("m"));
  ASSERT_TRUE(router.start());
  EXPECT_EQ(router.served_tiers("m"), (std::vector<int>{4, 8}));
  EXPECT_EQ(router.default_tier("m"), 8);

  // Dedicated side: the SAME derivation serialized and loaded
  // as-quantized — the deployment where each tier is its own server
  // binary reading its own engine file.
  const testing::TempFile int4_file("tier_int4.bin");
  const std::string& int4_path = int4_file.path();
  ASSERT_TRUE(int8_parent()->derive_tier(4).save(int4_path));
  EngineRegistry reg4;
  ASSERT_TRUE(reg4.register_file("d4", int4_path));
  ModelRouter dedicated4(reg4, fast_router_config(1));
  ASSERT_TRUE(dedicated4.add_model("d4"));
  ASSERT_TRUE(dedicated4.start());

  Rng rng(21);
  for (int i = 0; i < 32; ++i) {
    const Example ex =
        synth_example(rng, 2 + rng.randint(0, 20), tier_shape());
    ServeResponse tiered =
        router.submit("m", ex, std::nullopt, nullptr, 0, /*tier=*/4).get();
    ServeResponse direct = dedicated4.submit("", ex).get();
    ASSERT_EQ(tiered.status, RequestStatus::kOk);
    ASSERT_EQ(direct.status, RequestStatus::kOk);
    EXPECT_EQ(tiered.tier, 4);  // response reports the serving tier
    EXPECT_EQ(tiered.logits, direct.logits) << "example " << i;
    EXPECT_EQ(tiered.predicted, direct.predicted) << "example " << i;
    // And the int8 lane answers exactly like the parent engine.
    ServeResponse native =
        router.submit("m", ex, std::nullopt, nullptr, 0, /*tier=*/8).get();
    ASSERT_EQ(native.status, RequestStatus::kOk);
    EXPECT_EQ(native.tier, 8);
    expect_logits_eq(int8_parent()->forward(ex), native.logits,
                     "native tier");
  }

  dedicated4.shutdown();
  router.shutdown();
  for (const auto& [name, tier, st] : router.all_stats())
    EXPECT_TRUE(st.accounting_balances()) << name << "@" << tier;
}

TEST(PrecisionTiers, StrictRejectsAndFallbackServesUnknownTier) {
  EngineRegistry registry;
  registry.register_model("m", int8_parent());
  Rng rng(31);
  const Example ex = synth_example(rng, 8, tier_shape());

  {  // Strict (the default): named-but-unserved tier is rejected.
    ModelRouter router(registry, fast_router_config());
    ASSERT_TRUE(router.add_model("m"));
    ASSERT_TRUE(router.start());
    AdmitResult admit;
    auto fut = router.submit("m", ex, std::nullopt, &admit, 0, /*tier=*/2);
    EXPECT_EQ(fut.get().status, RequestStatus::kRejectedUnknownTier);
    EXPECT_EQ(router.unknown_tier_rejections(), 1u);
    EXPECT_EQ(router.unknown_model_rejections(), 0u);
    router.shutdown();
  }
  {  // Fallback policy: same request rides the default tier instead.
    RouterConfig cfg = fast_router_config();
    cfg.tier_fallback = TierFallback::kFallbackToDefault;
    ModelRouter router(registry, cfg);
    ASSERT_TRUE(router.add_model("m"));
    ASSERT_TRUE(router.start());
    ServeResponse resp =
        router.submit("m", ex, std::nullopt, nullptr, 0, /*tier=*/2).get();
    ASSERT_EQ(resp.status, RequestStatus::kOk);
    EXPECT_EQ(resp.tier, 8);  // reports the tier that actually served
    EXPECT_EQ(router.unknown_tier_rejections(), 0u);
    expect_logits_eq(int8_parent()->forward(ex), resp.logits, "fallback");
    router.shutdown();
  }
}

// ---------------------------------------------------------------------------
// FQBERT03 mmap engines: round trip, sniffing, oracle fuzz.
// ---------------------------------------------------------------------------

TEST(MappedEngine, RoundTripBitIdenticalAndSniffed) {
  for (const int bits : {4, 8}) {
    const FqBertModel engine = build_engine(tier_shape(), bits, 5000 + bits);
    const testing::TempFile stream_file("tier_stream_" +
                                        std::to_string(bits) + ".bin");
    const testing::TempFile mapped_file("tier_mapped_" +
                                        std::to_string(bits) + ".bin");
    const std::string& stream_path = stream_file.path();
    const std::string& mapped_path = mapped_file.path();
    ASSERT_TRUE(engine.save(stream_path));
    ASSERT_TRUE(engine.save_mapped(mapped_path));

    const FqBertModel via_stream = FqBertModel::load(stream_path);
    const FqBertModel via_map = FqBertModel::load_mapped(mapped_path);
    // load_any must sniff the magic and pick the right decoder.
    const FqBertModel any_stream = FqBertModel::load_any(stream_path);
    const FqBertModel any_map = FqBertModel::load_any(mapped_path);

    // The mapped engine's weights live in the file pages, not the heap,
    // yet resident accounting and outputs match the owned layout.
    EXPECT_EQ(via_map.resident_weight_bytes(),
              engine.resident_weight_bytes());

    Rng rng(static_cast<uint64_t>(900 + bits));
    for (int i = 0; i < 10; ++i) {
      const Example ex = synth_example(rng, 3 + i * 2, tier_shape());
      const Tensor want = engine.forward(ex);
      for (const FqBertModel* loaded :
           {&via_stream, &via_map, &any_stream, &any_map}) {
        const Tensor got = loaded->forward(ex);
        ASSERT_EQ(want.numel(), got.numel());
        for (int64_t j = 0; j < want.numel(); ++j)
          EXPECT_EQ(want[j], got[j])
              << "bits " << bits << " example " << i << " logit " << j;
      }
    }
  }
}

TEST(MappedEngine, MappedForwardMatchesScalarOracleFuzz) {
  // The zero-copy path must not just match its own ancestor — it must
  // match the seed's scalar reference implementation, same as every
  // other inference entry point (tests/test_forward_fuzz.cpp).
  for (const int bits : {4, 8}) {
    const FqBertModel engine = build_engine(tier_shape(), bits, 6100 + bits);
    const testing::TempFile file("tier_oracle_" + std::to_string(bits) +
                                 ".bin");
    const std::string& path = file.path();
    ASSERT_TRUE(engine.save_mapped(path));
    const FqBertModel mapped = FqBertModel::load_mapped(path);
    const core::oracle::OracleModel oracle(mapped);

    Rng rng(static_cast<uint64_t>(7000 + bits));
    for (int i = 0; i < 12; ++i) {
      const int64_t len = 1 + rng.randint(0, tier_shape().max_seq_len - 1);
      Example ex;
      ex.tokens.resize(static_cast<size_t>(len));
      ex.tokens[0] = 0;
      for (int64_t t = 1; t < len; ++t)
        ex.tokens[static_cast<size_t>(t)] = static_cast<int32_t>(
            rng.randint(1, tier_shape().vocab_size - 1));
      ex.segments.assign(static_cast<size_t>(len), 0);

      const Tensor want = core::oracle::oracle_forward(oracle, ex);
      const Tensor got = mapped.forward(ex);
      ASSERT_EQ(want.numel(), got.numel());
      for (int64_t j = 0; j < want.numel(); ++j)
        EXPECT_EQ(want[j], got[j])
            << "bits " << bits << " len " << len << " logit " << j;
    }
  }
}

TEST(MappedEngine, RetiredFqbert02FileIsRefusedExplicitly) {
  // An FQBERT02 file holds row-major int8/int16 weights; reading it as
  // tiles would silently compute garbage, so both loaders refuse it by
  // name.
  const testing::TempFile file("tier_retired.bin");
  const std::string& path = file.path();
  ASSERT_TRUE(int8_parent()->save_mapped(path));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("FQBERT02", 8);
  }
  for (const auto& load : {&FqBertModel::load_mapped, &FqBertModel::load_any}) {
    try {
      (void)load(path);
      ADD_FAILURE() << "an FQBERT02 file loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("FQBERT02"), std::string::npos)
          << e.what();
    }
  }
}

TEST(MappedEngine, NonzeroTilePaddingIsRefused) {
  // Off-grid dims give the tiles padding: wq is [18, 18], so column
  // tile 1 holds 14 padding columns and each column's last group 2
  // padding steps. A nonzero padding byte would enter the product, so
  // the load refuses the file instead.
  BertConfig shape = tier_shape();
  shape.hidden = 18;
  shape.num_heads = 2;
  shape.ffn_dim = 37;
  const FqBertModel engine = build_engine(shape, 8, 5100);
  const testing::TempFile file("tier_bad_padding.bin");
  const std::string& path = file.path();
  ASSERT_TRUE(engine.save_mapped(path));
  (void)FqBertModel::load_mapped(path);  // the saved file itself is fine

  uint64_t weights_base = 0;
  {
    std::ifstream f(path, std::ios::binary);
    f.seekg(8);
    f.read(reinterpret_cast<char*>(&weights_base), sizeof(weights_base));
  }
  // Layer 0's wq is the first tile blob of the region.
  const int64_t depth = core::padded_depth(18);  // 20
  const int64_t pad_column =
      core::kTileCols * depth + 2 * core::kTileDepth;  // column 18, step 0
  const int64_t pad_step =
      (depth - core::kTileDepth) * core::kTileCols + 2;  // column 0, step 18
  for (const int64_t at : {pad_column, pad_step}) {
    ASSERT_TRUE(engine.save_mapped(path));
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(static_cast<std::streamoff>(weights_base) + at);
      f.put(1);
    }
    for (const auto& load :
         {&FqBertModel::load_mapped, &FqBertModel::load_any}) {
      try {
        (void)load(path);
        ADD_FAILURE() << "nonzero padding at byte " << at << " loaded";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("corrupt FQBERT03"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(MappedEngine, DeriveTierFromMappedEngine) {
  // A derived tier of a mapped parent owns its codes (the mapping only
  // backs the parent) and matches the derivation of the owned parent.
  const testing::TempFile file("tier_map_parent.bin");
  const std::string& path = file.path();
  ASSERT_TRUE(int8_parent()->save_mapped(path));
  const FqBertModel mapped = FqBertModel::load_mapped(path);
  const FqBertModel from_mapped = mapped.derive_tier(4);
  const FqBertModel from_owned = int8_parent()->derive_tier(4);
  Rng rng(41);
  for (int i = 0; i < 6; ++i) {
    const Example ex = synth_example(rng, 5 + i * 3, tier_shape());
    const Tensor want = from_owned.forward(ex);
    const Tensor got = from_mapped.forward(ex);
    ASSERT_EQ(want.numel(), got.numel());
    for (int64_t j = 0; j < want.numel(); ++j)
      EXPECT_EQ(want[j], got[j]) << "example " << i << " logit " << j;
  }
}

// ---------------------------------------------------------------------------
// Registry tier bindings.
// ---------------------------------------------------------------------------

TEST(EngineRegistryTiers, TierBindingDefaultsAndRepointing) {
  EngineRegistry registry;
  registry.register_model("m", int8_parent());
  EXPECT_EQ(registry.default_tier("m"), 8);
  EXPECT_FALSE(registry.register_derived("m", 9));   // out of range
  EXPECT_FALSE(registry.register_derived("no", 4));  // unknown name
  ASSERT_TRUE(registry.register_derived("m", 4));
  EXPECT_EQ(registry.tiers("m"), (std::vector<int>{4, 8}));
  // Tier 0 resolves the default (the first registered width).
  EXPECT_EQ(registry.get("m", 0), registry.get("m", 8));
  ASSERT_NE(registry.get("m", 4), nullptr);
  EXPECT_NE(registry.get("m", 4), registry.get("m", 8));
  EXPECT_EQ(registry.get("m", 2), nullptr);  // no implicit fallback
  // Removing the default tier repoints it at the lowest survivor.
  ASSERT_TRUE(registry.unregister_tier("m", 8));
  EXPECT_EQ(registry.default_tier("m"), 4);
  EXPECT_EQ(registry.get("m", 0), registry.get("m", 4));
  EXPECT_FALSE(registry.unregister_tier("m", 8));  // already gone
  ASSERT_TRUE(registry.unregister_tier("m", 4));
  EXPECT_FALSE(registry.contains("m"));  // last tier removes the name
}

TEST(EngineRegistryTiers, RegisterFileReplacesUnderLiveTraffic) {
  // Regression (satellite): register_file over an existing (name,
  // tier) must atomically REPLACE the binding while readers hammer
  // get()+forward — in-flight holders finish on the engine they
  // resolved; nobody crashes, nobody blocks.
  const testing::TempFile file_a("replace_a.bin");
  const testing::TempFile file_b("replace_b.bin");
  const std::string& path_a = file_a.path();
  const std::string& path_b = file_b.path();
  ASSERT_TRUE(int8_parent()->save(path_a));
  ASSERT_TRUE(build_engine(other_shape(), 8, 4242).save(path_b));

  EngineRegistry registry;
  ASSERT_TRUE(registry.register_file("m", path_a));

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(100 + t));
      while (!stop.load()) {
        const auto engine = registry.get("m");
        if (!engine) {
          failures.fetch_add(1);
          continue;
        }
        // Synthesize against the engine ACTUALLY resolved — a replace
        // may have swapped the shape underneath the name.
        const Example ex = synth_example(rng, 6, engine->config());
        if (engine->forward(ex).numel() != engine->config().num_classes)
          failures.fetch_add(1);
      }
    });
  }

  for (int round = 0; round < 20; ++round) {
    const std::string& path = (round % 2 == 0) ? path_b : path_a;
    ASSERT_TRUE(registry.register_file("m", path)) << "round " << round;
    EXPECT_EQ(registry.source_path("m"), path);
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  // 20 rounds ended on path_a (round 19 odd): the binding and shape
  // reflect the LAST registration.
  EXPECT_EQ(registry.source_path("m"), path_a);
  EXPECT_EQ(registry.get("m")->config().hidden, tier_shape().hidden);
}

// ---------------------------------------------------------------------------
// Wire: hot tier mint/unload under live sibling traffic.
// ---------------------------------------------------------------------------

TEST(PrecisionTiersWire, HotTierLoadUnloadLeavesSiblingLaneUndisturbed) {
  EngineRegistry registry;
  registry.register_model("m", int8_parent());
  ModelRouter router(registry, fast_router_config());
  ASSERT_TRUE(router.add_model("m"));
  ASSERT_TRUE(router.start());
  net::TransportConfig tcfg;
  tcfg.port = 0;
  net::TransportServer transport(router, tcfg);
  ASSERT_TRUE(transport.start());
  const uint16_t port = transport.port();

  // Live default-tier traffic for the whole test.
  std::atomic<bool> stop{false};
  std::atomic<int> traffic_failures{0};
  std::thread traffic([&] {
    net::TransportClient client;
    if (!client.connect("127.0.0.1", port)) {
      traffic_failures.fetch_add(1);
      return;
    }
    Rng rng(55);
    while (!stop.load()) {
      const auto resp = client.call(
          synth_example(rng, 4 + rng.randint(0, 8), tier_shape()),
          std::nullopt, "m");
      if (!resp || resp->status != RequestStatus::kOk ||
          resp->tier != 8)
        traffic_failures.fetch_add(1);
    }
  });

  net::TransportClient admin;
  ASSERT_TRUE(admin.connect("127.0.0.1", port)) << admin.error();
  Rng rng(66);
  for (int round = 0; round < 3; ++round) {
    // Before the mint: tier 4 is rejected in-band, tier-specifically.
    const Example ex = synth_example(rng, 8, tier_shape());
    auto before = admin.call(ex, std::nullopt, "m", 0, /*tier=*/4);
    ASSERT_TRUE(before.has_value()) << admin.error();
    EXPECT_EQ(before->status, RequestStatus::kRejectedUnknownTier);

    // Derive-only mint over the wire: empty path + tier.
    std::string message;
    ASSERT_TRUE(admin.load_model("m", "", &message, /*tier=*/4)) << message;
    EXPECT_FALSE(admin.load_model("m", "", &message, 4));  // lane exists
    EXPECT_TRUE(admin.connected());

    const auto entries = admin.list_models_tiered();
    ASSERT_TRUE(entries.has_value()) << admin.error();
    ASSERT_EQ(entries->size(), 2u);  // m@4, m@8
    EXPECT_EQ((*entries)[0].name, "m");
    EXPECT_EQ((*entries)[0].tier, 4);
    EXPECT_EQ((*entries)[1].tier, 8);

    // The minted tier serves, reports itself, and matches the local
    // derivation bit for bit.
    const auto via4 = admin.call(ex, std::nullopt, "m", 0, 4);
    ASSERT_TRUE(via4.has_value()) << admin.error();
    ASSERT_EQ(via4->status, RequestStatus::kOk);
    EXPECT_EQ(via4->tier, 4);
    expect_logits_eq(int8_parent()->derive_tier(4).forward(ex),
                     via4->logits, "minted tier");

    // Its lane has its own stats row, already balancing.
    const auto stats4 = admin.query_stats("m", 4);
    ASSERT_TRUE(stats4.has_value()) << admin.error();
    EXPECT_EQ(stats4->tier, 4);
    EXPECT_TRUE(stats4->report.accounting_balances());
    EXPECT_GE(stats4->report.completed, 1u);

    // Unload ONLY the int4 lane; the int8 sibling never pauses.
    ASSERT_TRUE(admin.unload_model("m", &message, /*tier=*/4)) << message;
    EXPECT_FALSE(admin.unload_model("m", &message, 4));  // already gone
    const auto after = admin.call(ex, std::nullopt, "m", 0, 4);
    ASSERT_TRUE(after.has_value()) << admin.error();
    EXPECT_EQ(after->status, RequestStatus::kRejectedUnknownTier);
    const auto still8 = admin.call(ex, std::nullopt, "m");
    ASSERT_TRUE(still8.has_value()) << admin.error();
    EXPECT_EQ(still8->status, RequestStatus::kOk);
    EXPECT_EQ(still8->tier, 8);
  }

  stop = true;
  traffic.join();
  EXPECT_EQ(traffic_failures.load(), 0);

  transport.stop();
  router.shutdown(/*drain=*/true);
  const auto stats = router.all_stats();
  ASSERT_EQ(stats.size(), 1u);  // only m@8 survives
  for (const auto& [name, tier, st] : stats) {
    EXPECT_EQ(tier, 8);
    EXPECT_TRUE(st.accounting_balances())
        << name << "@" << tier << ": admitted " << st.admitted
        << " completed " << st.completed;
    EXPECT_GT(st.completed, 0u);
  }
  // One pre-mint + one post-unload rejection per round.
  EXPECT_EQ(router.unknown_tier_rejections(), 6u);
}

// ---------------------------------------------------------------------------
// Wire: v1-v3 clients ride the default tier.
// ---------------------------------------------------------------------------

TEST(PrecisionTiersWire, V1ToV3ClientsServedOnDefaultTier) {
  EngineRegistry registry;
  registry.register_model("m", int8_parent());
  ASSERT_TRUE(registry.register_derived("m", 4));
  ModelRouter router(registry, fast_router_config());
  ASSERT_TRUE(router.add_model("m"));
  ASSERT_TRUE(router.start());
  net::TransportConfig tcfg;
  tcfg.port = 0;
  net::TransportServer transport(router, tcfg);
  ASSERT_TRUE(transport.start());

  for (const int version : {1, 2, 3}) {
    net::TransportClient client(version);
    ASSERT_TRUE(client.connect("127.0.0.1", transport.port()))
        << "v" << version << ": " << client.error();
    Rng rng(static_cast<uint64_t>(80 + version));
    for (int i = 0; i < 5; ++i) {
      const Example ex = synth_example(rng, 4 + i * 3, tier_shape());
      // v1 frames carry no model name either; v2+ name it.
      const auto resp = version == 1
                            ? client.call(ex)
                            : client.call(ex, std::nullopt, "m");
      ASSERT_TRUE(resp.has_value())
          << "v" << version << ": " << client.error();
      ASSERT_EQ(resp->status, RequestStatus::kOk);
      // Pre-v4 responses have no tier byte; the field stays 0.
      EXPECT_EQ(resp->tier, 0);
      // Served on the DEFAULT tier (int8), never the int4 sibling.
      std::string label("v");
      label += std::to_string(version);
      expect_logits_eq(int8_parent()->forward(ex), resp->logits, label);
    }
    // A tiered request cannot be expressed pre-v4: the client refuses
    // locally rather than silently dropping the tier.
    EXPECT_FALSE(
        client.call(synth_example(rng, 5, tier_shape()), std::nullopt, "m",
                    0, /*tier=*/4)
            .has_value());
    EXPECT_TRUE(client.connected());
  }

  transport.stop();
  router.shutdown();
}

}  // namespace
}  // namespace fqbert::serve
