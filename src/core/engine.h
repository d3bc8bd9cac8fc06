#ifndef HILOG_CORE_ENGINE_H_
#define HILOG_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/analysis/domain_independence.h"
#include "src/analysis/modular.h"
#include "src/analysis/range_restriction.h"
#include "src/eval/aggregate.h"
#include "src/eval/kernel.h"
#include "src/eval/magic_eval.h"
#include "src/eval/resolution.h"
#include "src/eval/scheduler.h"
#include "src/eval/stratified.h"
#include "src/eval/tabled.h"
#include "src/ground/grounder.h"
#include "src/ground/herbrand.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/wfs/stable.h"

namespace hilog {

/// How a program was grounded for the semantics engines.
enum class GrounderKind {
  kRelevance,   // Join-based, exact for strongly range-restricted programs.
  kHerbrand,    // Exhaustive bounded instantiation (may be a fragment).
};

struct EngineOptions {
  /// Engine default: a small exact-at-depth-1 fragment. Raise for deeper
  /// HiLog instantiations (costs grow as |universe|^{rule variables}).
  UniverseBound universe_bound{/*max_depth=*/1, /*max_terms=*/5000};
  BottomUpOptions bottomup;
  StableOptions stable;
  ModularOptions modular;
  MagicEvalOptions magic;
  TabledOptions tabled;
  AggregateEvalOptions aggregate;
  size_t max_instances = 2000000;
  /// When false, no metrics/trace context is installed around engine
  /// calls: every instrumentation site reduces to one untaken branch and
  /// the registry stays at zero. Results are identical either way.
  bool metrics_enabled = true;
  /// Capacity of the trace-event ring buffer; 0 disables tracing.
  size_t trace_capacity = 0;
  /// Lane label stamped on this engine's trace events (Chrome "tid");
  /// service workers set it so merged traces keep one lane per worker.
  uint32_t trace_tid = 0;
};

/// Syntactic/semantic classification of the loaded program, covering the
/// paper's program classes.
struct AnalysisReport {
  bool normal = false;                    // Normal logic program.
  bool normal_range_restricted = false;   // Definition 4.1.
  bool range_restricted = false;          // Definition 5.5.
  bool strongly_range_restricted = false; // Definition 5.6.
  bool datahilog = false;                 // Definition 6.7.
  bool stratified = false;                // Definition 6.1.
  bool flounders = false;                 // Section 6.1 footnote.
  bool modularly_stratified = false;      // Definition 6.6 / Figure 1.
  std::string modular_reason;             // Why Figure 1 rejected, if it did.
  size_t datahilog_atom_bound = 0;        // Lemma 6.3's |T| when Datahilog.
};

/// Facade over the library: load a HiLog program, classify it, compute its
/// well-founded / stable / modular semantics, and answer queries via magic
/// sets.
class Engine {
 public:
  explicit Engine(EngineOptions options = EngineOptions());

  TermStore& store() { return store_; }
  const TermStore& store() const { return store_; }
  const Program& program() const { return program_; }
  const EngineOptions& options() const { return options_; }

  /// Metrics collected across all engine calls (counters, gauges, phase
  /// timers). Counters are deterministic for a fixed call sequence.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Trace-event ring buffer, or nullptr when options().trace_capacity
  /// is 0.
  const obs::TraceBuffer* trace() const { return trace_.get(); }
  obs::TraceBuffer* trace() { return trace_.get(); }

  /// Copies this engine into a fresh one with `options`: a CopyFrom clone
  /// of the term store (every TermId means the same term in both), the
  /// loaded program, magic's EDB rows, the kernel cache, and — the point —
  /// the scheduler cache, so the fork's first well-founded solve replays
  /// unchanged components instead of recomputing them. The cache's
  /// entries, plan and fact-only relation record are immutable and
  /// shared, not copied. Metrics and trace start fresh; the copy itself is
  /// the fork's `load` phase. `this` is read-only during the call, so
  /// many threads may fork one engine at once, and the fork shares no
  /// mutable state with it afterwards. The snapshot store forks a
  /// published prototype to build the next epoch, and every query worker
  /// forks the current epoch's prototype (EngineSession), with its own
  /// trace lane and budgets in `options`.
  std::unique_ptr<Engine> Fork(const EngineOptions& options) const;

  /// Fork(options()).
  std::unique_ptr<Engine> Fork() const;

  /// Parses and loads program text. Returns an empty string on success,
  /// else the parse error. Replaces any previously loaded program.
  std::string Load(std::string_view text);

  /// Adds rules to the current program. Unlike Load, the kernel compile
  /// front-end runs eagerly here: survivors hit the structural cache, so
  /// only the appended rules pay, off the query path.
  std::string LoadMore(std::string_view text);

  /// Applies a delta publish in place: `retractions` parses as ground
  /// facts whose fact rules are removed from the program (all retractions
  /// are validated before any mutation; retracting an atom that is not a
  /// fact of the program is an error), then `additions` parses as program
  /// text appended like LoadMore. Either part may be empty. Survivor rule
  /// order and serials are preserved, so the next well-founded solve is a
  /// DRed maintenance pass: only components whose rules changed, plus the
  /// upward cone whose lower models actually changed, re-solve — the rest
  /// replay from the settled-component cache (docs/incremental.md). On
  /// success appends the removed rule indices (ascending) to
  /// `*removed_indices` when non-null; on error returns the message and
  /// leaves the program untouched.
  std::string ApplyDelta(std::string_view additions,
                         std::string_view retractions,
                         std::vector<size_t>* removed_indices = nullptr);

  /// Retracts ground facts: ApplyDelta with no additions.
  std::string Retract(std::string_view facts);

  /// Classifies the loaded program. For a strongly range-restricted
  /// program, Figure 1's verdict comes from the engine's own relevance-path
  /// well-founded solve (same options, cache and inc.* accounting as
  /// SolveWellFounded) whenever Figure1FitsSolve says that solve decides
  /// it; the solve fills the settled-component cache, so a following
  /// SolveWellFounded replays every component. Otherwise, and whenever the
  /// solve is not locally stratified, CheckModularHiLog runs. The counters
  /// modular.from_solve and modular.literal_runs tell the two apart.
  AnalysisReport Analyze();

  /// Result of a well-founded computation at the engine level.
  struct WfsAnswer {
    Interpretation model;
    GrounderKind grounder = GrounderKind::kRelevance;
    /// True when the model is exact; false when a bounded Herbrand
    /// fragment was used (non-strongly-range-restricted programs).
    bool exact = true;
    bool ok = true;
    /// Stopped early by the thread's installed CancelToken; the model is
    /// partial and `exact` is false.
    bool cancelled = false;
    std::string notes;
    size_t ground_rules = 0;
    /// Scheduler work accounting (relevance path only): how many
    /// components solved vs replayed, and the DRed overdelete/rederive
    /// tallies of a maintenance pass.
    SchedulerStats sched;
  };

  /// Computes the well-founded model, choosing the relevance grounder for
  /// strongly range-restricted programs and falling back to bounded
  /// exhaustive Herbrand instantiation otherwise. Both paths run through
  /// the SCC evaluation scheduler (src/eval/scheduler.h): the relevance
  /// path evaluates predicate components against restricted active
  /// domains and memoizes settled components across calls; the Herbrand
  /// path schedules atom-level SCCs over the monolithic grounding. The
  /// Herbrand path refuses (ok false, the reason in `notes`) rather than
  /// solve a grounding that max_instances or an aggregate/builtin rule
  /// would leave partial.
  WfsAnswer SolveWellFounded();

  /// Like SolveWellFounded but forcing the grounder.
  WfsAnswer SolveWellFoundedWith(GrounderKind grounder);

  /// Enumerates stable models over the same grounding as SolveWellFounded,
  /// through the same relevance solve (SolveByComponents) on a strongly
  /// range-restricted program and the bounded Herbrand instantiation
  /// otherwise. Where SolveWellFounded fails, refuses or truncates, this
  /// returns no models, `complete` false and the reason in `reason`.
  StableModelsResult SolveStable();

  /// Runs the Figure 1 procedure.
  ModularResult SolveModular();

  /// Evaluates a program with aggregates/arithmetic (Section 6 parts
  /// explosion).
  AggregateEvalResult SolveAggregates();

  /// Result of a magic-sets query.
  struct QueryAnswer {
    bool ok = true;
    /// Evaluation stopped by the thread's installed CancelToken
    /// (src/eval/cancel.h): ok is false and error names the reason. The
    /// service layer maps this to kTimeout/kCancelled by the token's
    /// latched reason.
    bool cancelled = false;
    std::string error;
    std::vector<TermId> answers;
    QueryStatus ground_status = QueryStatus::kUnsettled;
    std::vector<TermId> unsettled_negative_calls;
    size_t facts_derived = 0;
  };

  /// Parses `query_text` as an atom and answers it with the magic-sets
  /// rewriting + evaluator (Section 6.1). The relations of the fact-only
  /// relation record (FactRelations) are EDB, read in place.
  QueryAnswer Query(std::string_view query_text);

  /// Top-down SLD resolution for definite programs (paper, Section 2:
  /// resolution is sound and complete for HiLog).
  ResolutionResult Prove(std::string_view query_text);

  /// Tabled (OLDT) evaluation for definite programs: terminates on left
  /// recursion and collapses redundant proofs (the XSB model).
  TabledResult ProveTabled(std::string_view query_text);

  /// Stratified (perfect-model) evaluation, when the program is
  /// stratified per Definition 6.1: EvaluateStratified's checks, then the
  /// true atoms of the relevance-path well-founded solve that
  /// SolveWellFounded and Analyze run (same cache and inc.* accounting),
  /// so any of the three after another replays every component.
  StratifiedEvalResult SolveStratified();

  /// Empirical Definition 5.1 check over the configured universe bound.
  DomainIndependenceResult CheckDomainIndependence(size_t extra_symbols = 2);

  /// The scheduler's component cache: settled components, plan and fact-only
  /// relation record, kept across solves, LoadMore and ApplyDelta (cleared
  /// by Load). Exposed for tests and service diagnostics.
  const SchedulerCache& scheduler_cache() const { return scheduler_cache_; }

  /// The rule-compilation cache (src/eval/kernel.h): compiled kernel
  /// programs kept across solves and LoadMore, cloned by Fork. The
  /// constructor points every evaluator's options at it, so all four
  /// evaluation paths share one compilation of each rule. Exposed for
  /// tests and service diagnostics.
  const KernelCache& kernel_cache() const { return kernel_cache_; }

 private:
  WfsAnswer SolveOnGround(const GroundProgram& ground, GrounderKind kind,
                          bool exact, std::string notes);
  /// The bounded Herbrand instantiation of the program, into `*inst`.
  /// Returns why it is refused instead, when it would be silently partial:
  /// more instances than max_instances (counted before any is interned),
  /// or aggregate/builtin rules, which InstantiateOverUniverse omits.
  std::string InstantiateHerbrand(InstantiationResult* inst);
  /// The relevance-path solve over the scheduler cache. When it succeeds
  /// with a delta pending it is that delta's maintenance pass and reports
  /// the inc.components_* counters. The well-founded answer only needs the
  /// model and the instance count, so the union grounding is materialized
  /// only with `need_ground` (stable models): replayed components then
  /// cost atoms, not ground-rule copies.
  ComponentWfsResult SolveByComponents(bool need_ground = false);
  std::string AppendProgram(std::string_view text, bool prewarm);
  /// Keeps and patches the record, magic's EDB rows and the plan after a
  /// change to program_ (as KeepFactRelations takes it), or drops all three.
  void KeepOrDropRecord(const std::vector<TermId>& removed,
                        size_t added_from);
  /// Sinks for ScopedObsContext honoring metrics_enabled.
  obs::MetricsRegistry* MetricsSink() {
    return options_.metrics_enabled ? &metrics_ : nullptr;
  }
  obs::TraceBuffer* TraceSink() {
    return options_.metrics_enabled ? trace_.get() : nullptr;
  }

  EngineOptions options_;
  TermStore store_;
  Program program_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::TraceBuffer> trace_;
  // The rows of scheduler_cache_.relations, which magic queries probe in
  // place: present only while the record is, and patched with it.
  std::optional<FactBase> edb_rows_;
  // Set by ApplyDelta, consumed by the next relevance-path well-founded
  // solve: that solve is a maintenance pass and reports the
  // inc.components_resolved / inc.components_skipped counters.
  bool maintenance_pending_ = false;
  // Settled-component memo and plan for the SCC scheduler. The memo is
  // safe across LoadMore and ApplyDelta (TermIds and rule serials of
  // loaded text are stable); the plan is patched or dropped with every
  // program change. Load replaces the program, so it clears both.
  SchedulerCache scheduler_cache_;
  // Compiled-rule memo for the kernel executor, shared by every
  // evaluation path. Keyed structurally, so it is likewise safe across
  // LoadMore/ApplyDelta; Load clears it with the program. Declared after
  // the options because the constructor re-points the per-evaluator
  // kernel_cache fields at it.
  KernelCache kernel_cache_;
};

}  // namespace hilog

#endif  // HILOG_CORE_ENGINE_H_
