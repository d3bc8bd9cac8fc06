#include "src/service/snapshot.h"

#include "src/maint/maintain.h"

namespace hilog::service {

std::shared_ptr<const ModelSnapshot> SnapshotStore::Build(
    uint64_t epoch, std::string text, bool solve_wfs,
    const EngineOptions& options, const ModelSnapshot* previous,
    std::string* error) {
  // shared_ptr<ModelSnapshot> first (the constructor is private to the
  // store's friendship), then decay to const on return.
  std::shared_ptr<ModelSnapshot> snapshot(new ModelSnapshot());
  snapshot->epoch_ = epoch;
  if (previous != nullptr && previous->prototype_ != nullptr &&
      !previous->program_text_.empty() &&
      text.size() > previous->program_text_.size() &&
      text.compare(0, previous->program_text_.size(),
                   previous->program_text_) == 0) {
    // Append-only publish: fork the previous prototype — term store,
    // program, and settled-component cache — and parse only the suffix.
    // A suffix parse error falls through to the full build below, which
    // reports the error against the complete source.
    std::unique_ptr<Engine> fork = previous->prototype_->Fork();
    std::string load_error = fork->LoadMore(
        std::string_view(text).substr(previous->program_text_.size()));
    if (load_error.empty()) {
      snapshot->prototype_ = std::move(fork);
      snapshot->seeded_ = true;
    }
  }
  if (snapshot->prototype_ == nullptr) {
    snapshot->prototype_ = std::make_unique<Engine>(options);
    std::string load_error = snapshot->prototype_->Load(text);
    if (!load_error.empty()) {
      *error = load_error;
      return nullptr;
    }
  }
  snapshot->program_text_ = std::move(text);
  if (solve_wfs && snapshot->prototype_->program().size() > 0) {
    snapshot->wfs_ = snapshot->prototype_->SolveWellFounded();
    if (!snapshot->wfs_.ok) {
      *error = "well-founded solve failed: " + snapshot->wfs_.notes;
      return nullptr;
    }
    snapshot->has_wfs_ = true;
  }
  return snapshot;
}

SnapshotStore::SnapshotStore(EngineOptions engine_options)
    : engine_options_(std::move(engine_options)) {
  std::string error;
  Install(Build(/*epoch=*/0, "", /*solve_wfs=*/false, engine_options_,
             /*previous=*/nullptr, &error));
}

void SnapshotStore::Install(std::shared_ptr<const ModelSnapshot> next) {
  std::lock_guard<std::mutex> lock(current_mu_);
  current_.swap(next);
}

std::string SnapshotStore::Publish(std::string_view text, bool append,
                                   bool solve_wfs) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  std::shared_ptr<const ModelSnapshot> previous = Current();
  std::string source;
  if (append) {
    source = previous->program_text();
    if (!source.empty() && source.back() != '\n') source.push_back('\n');
  }
  source.append(text);
  std::string error;
  std::shared_ptr<const ModelSnapshot> next =
      Build(next_epoch_, std::move(source), solve_wfs, engine_options_,
            previous.get(), &error);
  if (next == nullptr) return error;
  ++next_epoch_;
  if (next->seeded()) {
    seeded_builds_.fetch_add(1, std::memory_order_relaxed);
  } else {
    full_rebuilds_.fetch_add(1, std::memory_order_relaxed);
  }
  // The swap: in-flight readers keep the previous snapshot alive through
  // their shared_ptr; it is destroyed when the last of them lets go.
  Install(std::move(next));
  return "";
}

std::string SnapshotStore::PublishDelta(std::string_view additions,
                                        std::string_view retractions,
                                        bool solve_wfs) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  std::shared_ptr<const ModelSnapshot> previous = Current();
  // Fork the current prototype — term store, program, and
  // settled-component cache — and maintain it in place. The composed text
  // ApplyDeltaPublish returns is the equivalent from-scratch source: a
  // cold Load of it yields the same program, which keeps every session
  // rebuild path byte-identical to the maintained engine.
  std::unique_ptr<Engine> fork = previous->prototype().Fork();
  DeltaPublishResult applied =
      ApplyDeltaPublish(*fork, previous->program_text(), additions,
                        retractions, /*solve_wfs=*/false);
  if (!applied.ok) return applied.error;
  std::shared_ptr<ModelSnapshot> snapshot(new ModelSnapshot());
  if (solve_wfs && fork->program().size() > 0) {
    snapshot->wfs_ = fork->SolveWellFounded();
    if (!snapshot->wfs_.ok) {
      return "well-founded solve failed: " + snapshot->wfs_.notes;
    }
    snapshot->has_wfs_ = true;
  }
  snapshot->epoch_ = next_epoch_;
  snapshot->program_text_ = std::move(applied.composed_text);
  snapshot->prototype_ = std::move(fork);
  snapshot->seeded_ = true;
  snapshot->delta_built_ = true;
  snapshot->delta_base_epoch_ = previous->epoch();
  snapshot->delta_add_ = std::string(additions);
  snapshot->delta_retract_ = std::string(retractions);
  ++next_epoch_;
  delta_builds_.fetch_add(1, std::memory_order_relaxed);
  Install(std::move(snapshot));
  return "";
}

std::string EngineSession::Materialize(const ModelSnapshot& snapshot,
                                       RequestContext* ctx) {
  if (engine_ != nullptr && epoch_ == snapshot.epoch()) return "";
  if (ctx != nullptr) ctx->rebuilt = true;
  const std::string& next_text = snapshot.program_text();
  bool materialized = false;
  if (engine_ != nullptr && snapshot.delta_built() &&
      epoch_ == snapshot.delta_base_epoch()) {
    // Delta publish and this session sits exactly at the base epoch:
    // maintain the warm engine in place. ApplyDelta keeps the scheduler's
    // settled-component cache, so the next solve re-resolves only the
    // components the delta reaches. A failure (unreachable: the publisher
    // applied the same delta) falls through to the full rebuild below.
    std::string error = engine_->ApplyDelta(snapshot.delta_add(),
                                            snapshot.delta_retract(),
                                            /*removed_indices=*/nullptr);
    if (error.empty()) {
      ++incremental_;
      materialized = true;
    }
  }
  if (!materialized && engine_ != nullptr && next_text.size() > text_.size() &&
      next_text.compare(0, text_.size(), text_) == 0) {
    // Append-only publish (load_more): keep the warm engine — and with it
    // the scheduler's settled-component cache — and parse only the new
    // suffix. A failure falls through to the full rebuild below.
    std::string error =
        engine_->LoadMore(std::string_view(next_text).substr(text_.size()));
    if (error.empty()) {
      ++incremental_;
      materialized = true;
    }
  }
  if (!materialized) {
    auto fresh = std::make_unique<Engine>(options_);
    std::string error = fresh->Load(next_text);
    if (!error.empty()) return error;  // Unreachable: publisher parsed it.
    engine_ = std::move(fresh);
  }
  epoch_ = snapshot.epoch();
  text_ = next_text;
  if (warm_wfs_ && engine_->program().size() > 0) {
    // Pre-settle the scheduler cache for the new epoch. The solve runs
    // under this engine's obs sinks, so its component spans land in the
    // worker's trace ring (attributed to the triggering request) and its
    // counters in the worker registry. An unsolvable program surfaces on
    // the query itself, not here.
    engine_->SolveWellFounded();
  }
  return "";
}

}  // namespace hilog::service
