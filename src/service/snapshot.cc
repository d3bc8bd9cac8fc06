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
  // is the equivalent from-scratch source: a cold Load of it yields the
  // same program as the maintained engine.
  std::unique_ptr<Engine> fork = previous->prototype().Fork();
  std::vector<size_t> removed;
  std::string error = fork->ApplyDelta(additions, retractions, &removed);
  if (!error.empty()) return error;
  std::shared_ptr<ModelSnapshot> snapshot(new ModelSnapshot());
  if (solve_wfs && fork->program().size() > 0) {
    snapshot->wfs_ = fork->SolveWellFounded();
    if (!snapshot->wfs_.ok) {
      return "well-founded solve failed: " + snapshot->wfs_.notes;
    }
    snapshot->has_wfs_ = true;
  }
  snapshot->epoch_ = next_epoch_;
  snapshot->program_text_ =
      ComposeDeltaText(previous->program_text(), removed, additions);
  snapshot->prototype_ = std::move(fork);
  snapshot->seeded_ = true;
  ++next_epoch_;
  delta_builds_.fetch_add(1, std::memory_order_relaxed);
  Install(std::move(snapshot));
  return "";
}

std::string EngineSession::Materialize(const ModelSnapshot& snapshot,
                                       RequestContext* ctx) {
  if (engine_ != nullptr && epoch_ == snapshot.epoch()) return "";
  if (ctx != nullptr) ctx->rebuilt = true;
  // Free the previous epoch's engine before forking: it holds every term
  // its queries interned.
  engine_.reset();
  engine_ = snapshot.prototype().Fork(options_);
  epoch_ = snapshot.epoch();
  return "";
}

}  // namespace hilog::service
