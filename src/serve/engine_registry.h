// Shared registry of deployable FQ-BERT engines. A name no longer
// binds one engine: it binds an ordered set of PRECISION TIERS, one
// engine per weight bit-width, so "the" model can be served at int8
// and int4 side by side. Every tier — registered in-memory, loaded
// once from a serialized engine file, or derived from a sibling tier —
// is a single immutable-after-load instance that all serving workers
// share: forward/forward_batch are reentrant-const (per-thread
// scratch, weights read-only), so replicating the weight memory per
// worker buys nothing and is no longer supported.
//
// Replace semantics: registering (name, tier) that already exists
// atomically swaps the binding under the registry lock; in-flight
// holders of the old shared_ptr keep the old engine alive until their
// last reference drops (outside the lock), so replacement under live
// traffic is safe and never frees weights a worker is reading.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fq_bert.h"
#include "platform/thread_annotations.h"

namespace fqbert::serve {

class EngineRegistry {
 public:
  /// Share an already-built engine under `name`, at the tier given by
  /// the engine's own weight_bits. The first tier registered for a
  /// name becomes its default tier. Replaces an existing (name, tier)
  /// binding atomically (see header comment).
  void register_model(const std::string& name,
                      std::shared_ptr<const core::FqBertModel> model);

  /// Register a serialized engine file under `name`; the tier is the
  /// file's native weight_bits. The file is loaded exactly once, here
  /// (FQBERT03 files are mmapped zero-copy); every worker shares the
  /// loaded instance. Returns false when the file cannot be loaded.
  bool register_file(const std::string& name, const std::string& path);

  /// Derive a `bits` tier for `name` from its default tier's engine
  /// (quantizer range rescaling, no float weights needed) and register
  /// it. False when the name is unknown or `bits` is out of [2, 8].
  bool register_derived(const std::string& name, int bits);

  /// Remove every tier of `name`. Existing shared_ptr holders keep the
  /// engines alive; only the name binding disappears. False when the
  /// name is unknown.
  bool unregister(const std::string& name);

  /// Remove one tier of `name`. When the default tier is removed, the
  /// lowest remaining tier becomes the default. False when (name,
  /// tier) is unknown.
  bool unregister_tier(const std::string& name, int bits);

  /// The shared engine instance at `bits` (0 = the name's default
  /// tier). nullptr when the name or tier is unknown — no implicit
  /// cross-tier fallback; that policy belongs to the router.
  std::shared_ptr<const core::FqBertModel> get(const std::string& name,
                                               int bits = 0) const;

  /// Default tier's weight_bits for `name` (0 when unknown).
  int default_tier(const std::string& name) const;

  /// Ascending list of registered tiers for `name`.
  std::vector<int> tiers(const std::string& name) const;

  /// Source path of a file-backed tier ("" for in-memory/derived tiers
  /// or unknown names). bits 0 = default tier.
  std::string source_path(const std::string& name, int bits = 0) const;

  bool contains(const std::string& name) const;
  bool contains(const std::string& name, int bits) const;
  std::vector<std::string> names() const;

 private:
  struct Entry {
    std::shared_ptr<const core::FqBertModel> model;
    std::string path;  // empty for in-memory and derived entries
  };
  struct ModelEntry {
    int default_bits = 0;  // tier served when a request names no tier
    std::map<int, Entry> tiers;
  };

  /// Bind (name, bits); returns the displaced engine (possibly null)
  /// so the caller can drop it outside the lock.
  std::shared_ptr<const core::FqBertModel> bind(
      const std::string& name, int bits,
      std::shared_ptr<const core::FqBertModel> model, const std::string& path);

  mutable Mutex mu_;
  std::map<std::string, ModelEntry> entries_ GUARDED_BY(mu_);
};

}  // namespace fqbert::serve
