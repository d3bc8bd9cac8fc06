#ifndef HILOG_SERVICE_SNAPSHOT_H_
#define HILOG_SERVICE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/core/engine.h"
#include "src/service/request_context.h"

namespace hilog::service {

/// An immutable published model.
///
/// A snapshot owns the canonical program source and a fully materialized
/// *prototype* engine: the parsed program in its own term store, and —
/// when the publisher asked for it — the warm well-founded model computed
/// once at publish time, so every request that consults the saturated
/// model reads it instead of recomputing. After `SnapshotStore::Publish`
/// returns, nothing ever mutates a snapshot; any number of threads may
/// read it concurrently through const access.
///
/// Queries intern new terms (the magic rewrite, the evaluator), so they
/// cannot run against the shared prototype store. Each worker instead
/// holds an `EngineSession` that forks its own engine from the prototype.
/// A fork holds the same program, in the same rule order, as a cold
/// `Load` of the snapshot's text, and magic sets orders its answers by
/// rule and derivation order, not by term id, so service answers are
/// byte-identical to `Engine::Query` on that text.
class ModelSnapshot {
 public:
  uint64_t epoch() const { return epoch_; }
  const std::string& program_text() const { return program_text_; }
  size_t rules() const { return prototype_->program().size(); }

  /// The shared read-only engine: program, term store, and (if solved)
  /// the WFS interpretation. Const access only — never query through it.
  const Engine& prototype() const { return *prototype_; }

  /// Well-founded model computed at publish; meaningful iff has_wfs().
  bool has_wfs() const { return has_wfs_; }
  const Engine::WfsAnswer& wfs() const { return wfs_; }

  /// True when this snapshot's prototype was forked from the previous
  /// snapshot (append-only publish): the fork inherits the previous
  /// prototype's settled-component cache, so the publish-time solve
  /// recomputed only the components the appended rules touch.
  bool seeded() const { return seeded_; }

 private:
  friend class SnapshotStore;
  ModelSnapshot() = default;

  uint64_t epoch_ = 0;
  std::string program_text_;
  std::unique_ptr<Engine> prototype_;
  bool has_wfs_ = false;
  bool seeded_ = false;
  Engine::WfsAnswer wfs_;
};

/// The publication point: writers build the next snapshot off to the
/// side (parse + optional WFS solve on a private engine) and swap it in
/// with one pointer store under `current_mu_`. Readers `Current()` by
/// copying the shared_ptr under the same mutex — held only for the
/// copy, so a reader never waits on a build — and keep their snapshot
/// alive by holding it. Publishers serialize among themselves on
/// `publish_mu_`.
class SnapshotStore {
 public:
  /// Constructs with an empty program published at epoch 0.
  explicit SnapshotStore(EngineOptions engine_options = EngineOptions());

  /// The currently published snapshot; never null.
  std::shared_ptr<const ModelSnapshot> Current() const {
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }

  /// Builds and publishes the next snapshot. With `append`, the new
  /// source is the current snapshot's text plus `text` (the service's
  /// LoadMore); otherwise `text` replaces the program. `solve_wfs`
  /// saturates the well-founded model into the snapshot at publish time.
  /// Returns "" on success, else the parse/solve error — on error nothing
  /// is published and the current snapshot is unchanged.
  std::string Publish(std::string_view text, bool append, bool solve_wfs);

  /// Publishes the next snapshot by *maintaining* the current one: forks
  /// the current prototype (term store, program, settled-component
  /// cache), applies the fact delta — `additions` parsed as program text,
  /// `retractions` as ground facts to remove — and, with `solve_wfs`,
  /// runs the DRed maintenance solve, which re-resolves only the
  /// components the delta reaches and replays the rest from the inherited
  /// cache. The published program text is the composed equivalent source,
  /// so a cold engine loading it lands on the same program. Returns "" on
  /// success, else the error — on error nothing is published.
  std::string PublishDelta(std::string_view additions,
                           std::string_view retractions, bool solve_wfs);

  /// Epoch of the currently published snapshot.
  uint64_t epoch() const { return Current()->epoch(); }

  /// Publish-path counters (statusz): how many publishes forked the
  /// previous prototype (append seeding), paid a cold full rebuild, or
  /// went through the delta maintenance path. The constructor's epoch-0
  /// empty snapshot is not counted.
  uint64_t seeded_builds() const {
    return seeded_builds_.load(std::memory_order_relaxed);
  }
  uint64_t full_rebuilds() const {
    return full_rebuilds_.load(std::memory_order_relaxed);
  }
  uint64_t delta_builds() const {
    return delta_builds_.load(std::memory_order_relaxed);
  }

 private:
  /// Publishes `next` as the current snapshot. The previous one is
  /// released after the lock drops, so when no reader holds it its
  /// (possibly large) engine is freed outside the critical section.
  void Install(std::shared_ptr<const ModelSnapshot> next);

  /// Builds a snapshot off to the side; returns nullptr + error on
  /// failure (only the store can reach ModelSnapshot's internals). When
  /// `previous` is given and `text` extends its source, the new
  /// prototype is previous->prototype().Fork() fed only the suffix, so
  /// the settled-component cache carries across epochs and the
  /// publish-time WFS solve replays unchanged components.
  static std::shared_ptr<const ModelSnapshot> Build(
      uint64_t epoch, std::string text, bool solve_wfs,
      const EngineOptions& options, const ModelSnapshot* previous,
      std::string* error);

  EngineOptions engine_options_;
  std::mutex publish_mu_;
  uint64_t next_epoch_ = 1;  // Guarded by publish_mu_.
  // A plain mutex, not std::atomic<std::shared_ptr>: libstdc++ guards
  // the atomic with a lock bit that ThreadSanitizer does not model.
  mutable std::mutex current_mu_;
  std::shared_ptr<const ModelSnapshot> current_;  // Guarded by current_mu_.
  std::atomic<uint64_t> seeded_builds_{0};
  std::atomic<uint64_t> full_rebuilds_{0};
  std::atomic<uint64_t> delta_builds_{0};
};

/// A worker-thread-confined engine, forked from published snapshots:
/// `Materialize` is a no-op while the epoch is unchanged, so across the
/// many queries of one epoch the session keeps its warmed term store and
/// magic's EDB rows. A new epoch replaces the engine with a fork of the
/// snapshot's prototype, which brings the prototype's settled components,
/// plan and fact-only relation record (shared), its kernel cache, and
/// nothing of the session's earlier epochs.
class EngineSession {
 public:
  explicit EngineSession(EngineOptions options = EngineOptions())
      : options_(std::move(options)) {}

  /// Ensures the private engine holds exactly `snapshot`'s program. When
  /// `ctx` is given, stamps ctx->rebuilt on an epoch change. Always
  /// returns "": a fork cannot fail.
  std::string Materialize(const ModelSnapshot& snapshot,
                          RequestContext* ctx = nullptr);

  /// Valid after the first Materialize.
  Engine& engine() { return *engine_; }
  bool materialized() const { return engine_ != nullptr; }
  uint64_t epoch() const { return epoch_; }

 private:
  EngineOptions options_;
  std::unique_ptr<Engine> engine_;
  uint64_t epoch_ = 0;
};

}  // namespace hilog::service

#endif  // HILOG_SERVICE_SNAPSHOT_H_
