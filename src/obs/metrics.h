#ifndef HILOG_OBS_METRICS_H_
#define HILOG_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/obs/histogram.h"

namespace hilog::obs {

class TraceBuffer;

/// Engine-wide observability: monotonic counters, gauges, and accumulated
/// phase timers, collected into a per-`Engine` `MetricsRegistry`.
///
/// Instrumentation sites (TermStore, the grounders, the fixpoint engines,
/// the evaluators) report through a thread-local `ObsContext` installed
/// with `ScopedObsContext`, so no hot-path API carries a registry pointer.
/// When no context is installed every site is a single predictable branch;
/// defining HILOG_OBS_DISABLED compiles all of it out entirely.
///
/// Counters are deterministic: for a fixed program and operation sequence
/// they always land on the same values, so tests assert them exactly.
/// Timers use the steady clock and are excluded from such assertions.

enum class Counter : uint16_t {
  // Term layer.
  kTermsInterned = 0,  // New nodes created (symbols, variables, applies).
  kTermInternHits,     // Intern lookups that found an existing term.
  kUnifyCalls,
  kUnifyFailures,
  kOccursChecks,
  kMatchCalls,
  // Grounding layer.
  kGroundInstances,  // Ground rule instances emitted (either grounder).
  kUniverseTerms,    // Herbrand universe terms enumerated.
  // Bottom-up substrate (positive-projection least model / envelope).
  kBottomUpRounds,
  kBottomUpFacts,
  // FactBase probes (and the stores built on it).
  kIndexProbes,          // Membership checks and key-column lookups.
  kCandidatesPruned,     // Candidates skipped relative to the name bucket.
  kUnificationsAvoided,  // Match/unify attempts the joins never made.
  // Columnar batch-join path (FactBase key columns).
  kColRows,            // Rows appended to key columns (per column).
  kColBatchJoins,      // Probes answered through the columnar hash.
  kColProbeHits,       // Candidate rows yielded by columnar probes.
  kColFallbackTuples,  // Candidate rows served by unkeyed (whole-bucket
                       // or whole-base) scans.
  // Well-founded fixpoints.
  kWfsRounds,          // Alternating Gamma^2 pairs, or W_P iterations.
  kGammaApplications,  // GL-reduct least-model computations.
  kWfsTrueAtoms,       // Atoms true in computed well-founded models.
  kWfsUndefinedAtoms,  // Atoms undefined in computed well-founded models.
  // SCC evaluation scheduler (src/eval/scheduler.*).
  kSchedComponents,        // Predicate-level components evaluated.
  kSchedComponentsReused,  // Components served from the engine cache.
  kSchedPlansBuilt,        // Solves that planned from the program text.
  kSchedPlansReused,       // Solves that used the cached or patched plan.
  kSchedAtomSccs,          // Atom-level SCCs settled (all programs).
  kSchedTrivialSccs,       // Of those, acyclic singletons (no Gamma).
  kSchedCyclicSccs,        // Of those, run as alternating mini fixpoints.
  kSchedGroundAtoms,       // Atoms grounded across component programs.
  // Wave execution inside the scheduler (one batch per depth wave).
  kSchedParallelWaves,              // Depth waves that solved >= 1 batch.
  kSchedParallelBatchedComponents,  // Components solved sharing a batch.
  // Stable-model enumeration.
  kStableCandidates,  // Total-interpretation candidates tested.
  kStableModels,      // Candidates that passed the GL check.
  // Magic-sets evaluation.
  kMagicFactsDerived,  // All facts derived by the magic evaluator.
  kMagicFacts,         // Of those, magic() seeds/propagations.
  kMagicBoxFirings,    // box(P) native-rule firings.
  // Tabled (OLDT) evaluation.
  kTabledSubgoals,  // New tables created (table misses).
  kTabledHits,      // Subgoal lookups served by an existing table.
  kTabledRestarts,  // Global fixpoint passes over all tables.
  kTabledAnswers,
  kTabledSteps,
  // Engine facade.
  kQueries,
  // Incremental maintenance (src/maint/, docs/incremental.md).
  kIncDeltasApplied,        // Engine::ApplyDelta calls that succeeded.
  kIncOverdeleted,          // Cached atoms invalidated by a re-solve.
  kIncRederived,            // Of those components' atoms, rederived ones.
  kIncComponentsResolved,   // Components re-solved during maintenance.
  kIncComponentsSkipped,    // Components replayed from the settled cache.
  // Rule-to-kernel compilation (src/eval/kernel.h, docs/performance.md).
  kKernelProgramsCompiled,  // Rule variants lowered to kernel programs.
  kKernelCacheHits,         // Executions served by a cached program.
  kKernelOpsExecuted,       // Kernel ops run (scans, probes, neg-probes).
  // Engine::Analyze's Figure 1 verdict: each call counts exactly one.
  kModularFromSolve,    // Read off the engine's own well-founded solve.
  kModularLiteralRuns,  // Decided by running CheckModularHiLog.
  kCount,
};

/// Gauges are instantaneous levels (sizes, depths). On MergeInto the
/// aggregate keeps the MAXIMUM — the high-water mark — never the sum:
/// adding two queue depths sampled at different instants would report a
/// depth that never existed. Counters add; gauges max. See MergeInto.
enum class Gauge : uint16_t {
  kProgramRules = 0,
  kTermStoreSize,
  kEnvelopeSize,
  kUniverseSize,
  kGroundRules,
  kAtomTableSize,
  kStableBranchAtoms,
  kSchedLargestScc,
  kSchedParallelMaxWaveWidth,  // Widest wave (components solved) seen.
  // Service load levels, sampled by the server's background sampler.
  kServiceQueueDepth,
  kServiceInflight,
  kCount,
};

enum class Phase : uint16_t {
  kLoad = 0,
  kAnalyze,
  kGround,
  kSolveWfs,
  kSolveStable,
  kSolveModular,
  kSolveStratified,
  kSolveAggregates,
  kMagicRewrite,
  kMagicEval,
  kQuery,
  kProve,
  kProveTabled,
  kCount,
};

/// Latency histograms (log2 buckets, nanoseconds). Unlike counters and
/// gauges these may be recorded concurrently from multiple threads — see
/// Histogram. The service executor records request latency components
/// straight into the shared aggregate registry.
enum class Histo : uint16_t {
  kQueryLatency = 0,  // submit -> response serialized (whole request).
  kQueueWait,         // submit -> worker dequeue.
  kEval,              // engine solve time inside the worker.
  kSerialize,         // answer rendering + response assembly.
  kEngineQuery,       // Engine::Query wall time (any caller, not just svc).
  kCount,
};

const char* CounterName(Counter c);
const char* GaugeName(Gauge g);
const char* PhaseName(Phase p);
const char* HistoName(Histo h);

struct PhaseStat {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
};

class MetricsRegistry {
 public:
  void Add(Counter c, uint64_t n = 1) {
    counters_[static_cast<size_t>(c)] += n;
  }
  uint64_t value(Counter c) const {
    return counters_[static_cast<size_t>(c)];
  }

  void Set(Gauge g, uint64_t v) { gauges_[static_cast<size_t>(g)] = v; }
  uint64_t gauge(Gauge g) const { return gauges_[static_cast<size_t>(g)]; }

  void AddPhase(Phase p, uint64_t ns) {
    PhaseStat& stat = phases_[static_cast<size_t>(p)];
    ++stat.calls;
    stat.total_ns += ns;
  }
  const PhaseStat& phase(Phase p) const {
    return phases_[static_cast<size_t>(p)];
  }

  /// Thread-safe (lock-free relaxed atomics) — the one registry surface
  /// that may be hit concurrently. See Histogram.
  void RecordHisto(Histo h, uint64_t value) {
    histos_[static_cast<size_t>(h)].Record(value);
  }
  const Histogram& histo(Histo h) const {
    return histos_[static_cast<size_t>(h)];
  }

  void Reset();

  /// Accumulates this registry into `into`. The merge rule depends on the
  /// metric kind:
  ///   - counters and phase stats ADD (they are monotone totals);
  ///   - gauges merge by MAXIMUM — gauges are instantaneous levels, so
  ///     the aggregate keeps the high-water mark across merged
  ///     registries, never a sum of levels sampled at different times;
  ///   - histograms ADD bucket-wise (a distribution is a sum of samples).
  /// Counters/gauges/phases are not thread-safe; callers serialize merges
  /// — the service layer merges each worker's per-query registry into its
  /// aggregate under one mutex. Histogram merging is atomic either way.
  void MergeInto(MetricsRegistry* into) const;

  /// JSON object {"counters":{...},"gauges":{...},"phases":{...},
  /// "histograms":{...}} per docs/observability.md. Zero-valued
  /// counters/gauges are included so the schema is stable across runs.
  /// Histograms are emitted last: everything before the "phases" key is
  /// deterministic for a fixed program, and tests slice there.
  std::string ToJson() const;

  /// Human-readable aligned table (the CLI's --stats output).
  std::string ToTable() const;

  /// Prometheus text exposition format 0.0.4: counters as
  /// `hilog_<name>_total`, gauges as `hilog_<name>`, phases as
  /// `hilog_phase_<name>_ns_total` / `_calls_total`, histograms as
  /// cumulative `hilog_<name>_bucket{le="..."}` series plus `_sum` and
  /// `_count`. Metric names replace '.' with '_'.
  std::string ToPrometheus() const;

 private:
  std::array<uint64_t, static_cast<size_t>(Counter::kCount)> counters_{};
  std::array<uint64_t, static_cast<size_t>(Gauge::kCount)> gauges_{};
  std::array<PhaseStat, static_cast<size_t>(Phase::kCount)> phases_{};
  std::array<Histogram, static_cast<size_t>(Histo::kCount)> histos_{};
};

struct ObsContext {
  MetricsRegistry* metrics = nullptr;
  TraceBuffer* trace = nullptr;
};

namespace internal {
// constinit: the definition is constant-initialized, so every access is
// a direct TLS load rather than a call through the TLS init wrapper.
extern constinit thread_local ObsContext tl_context;
}  // namespace internal

inline MetricsRegistry* CurrentMetrics() {
#ifdef HILOG_OBS_DISABLED
  return nullptr;
#else
  return internal::tl_context.metrics;
#endif
}

inline TraceBuffer* CurrentTrace() {
#ifdef HILOG_OBS_DISABLED
  return nullptr;
#else
  return internal::tl_context.trace;
#endif
}

/// Installs (metrics, trace) as the thread's sinks for the scope's
/// lifetime; restores the previous sinks on exit, so engine calls nest.
class ScopedObsContext {
 public:
  explicit ScopedObsContext(MetricsRegistry* metrics,
                            TraceBuffer* trace = nullptr) {
#ifndef HILOG_OBS_DISABLED
    saved_ = internal::tl_context;
    internal::tl_context = ObsContext{metrics, trace};
#else
    (void)metrics;
    (void)trace;
#endif
  }
  ~ScopedObsContext() {
#ifndef HILOG_OBS_DISABLED
    internal::tl_context = saved_;
#endif
  }
  ScopedObsContext(const ScopedObsContext&) = delete;
  ScopedObsContext& operator=(const ScopedObsContext&) = delete;

 private:
  ObsContext saved_;
};

inline void Count(Counter c, uint64_t n = 1) {
  if (MetricsRegistry* m = CurrentMetrics()) m->Add(c, n);
}

inline void SetGauge(Gauge g, uint64_t v) {
  if (MetricsRegistry* m = CurrentMetrics()) m->Set(g, v);
}

inline void RecordLatency(Histo h, uint64_t ns) {
  if (MetricsRegistry* m = CurrentMetrics()) m->RecordHisto(h, ns);
}

/// Nanoseconds from the steady clock (monotonic; epoch unspecified).
uint64_t NowNs();

/// RAII phase timer: accumulates wall time into the current registry's
/// phase stat and emits begin/end trace events. Snapshots the sinks at
/// construction so nested context switches cannot unbalance it.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(Phase phase);
  ~ScopedPhaseTimer();
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  Phase phase_;
  MetricsRegistry* metrics_;
  TraceBuffer* trace_;
  uint64_t start_ns_ = 0;
};

/// RAII latency recorder: on destruction records elapsed wall time into
/// the current registry's histogram. Snapshots the sink at construction,
/// like ScopedPhaseTimer. No trace events — pair with ScopedTraceSpan
/// when a span is wanted too.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histo histo)
      : histo_(histo), metrics_(CurrentMetrics()) {
    if (metrics_ != nullptr) start_ns_ = NowNs();
  }
  ~ScopedLatencyTimer() {
    if (metrics_ != nullptr) metrics_->RecordHisto(histo_, NowNs() - start_ns_);
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histo histo_;
  MetricsRegistry* metrics_;
  uint64_t start_ns_ = 0;
};

}  // namespace hilog::obs

#endif  // HILOG_OBS_METRICS_H_
