#include "src/obs/metrics.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "src/obs/trace.h"

namespace hilog::obs {

namespace internal {
constinit thread_local ObsContext tl_context{};
}  // namespace internal

const char* CounterName(Counter c) {
  switch (c) {
    case Counter::kTermsInterned: return "term.interned";
    case Counter::kTermInternHits: return "term.intern_hits";
    case Counter::kUnifyCalls: return "term.unifications";
    case Counter::kUnifyFailures: return "term.unify_failures";
    case Counter::kOccursChecks: return "term.occurs_checks";
    case Counter::kMatchCalls: return "term.matches";
    case Counter::kGroundInstances: return "ground.instances";
    case Counter::kUniverseTerms: return "ground.universe_terms";
    case Counter::kBottomUpRounds: return "bottomup.rounds";
    case Counter::kBottomUpFacts: return "bottomup.facts";
    case Counter::kIndexProbes: return "index.probes";
    case Counter::kCandidatesPruned: return "index.candidates_pruned";
    case Counter::kUnificationsAvoided: return "index.unifications_avoided";
    case Counter::kColRows: return "col.rows";
    case Counter::kColBatchJoins: return "col.batch_joins";
    case Counter::kColProbeHits: return "col.probe_hits";
    case Counter::kColFallbackTuples: return "col.fallback_tuples";
    case Counter::kWfsRounds: return "wfs.rounds";
    case Counter::kGammaApplications: return "wfs.gamma_applications";
    case Counter::kWfsTrueAtoms: return "wfs.true_atoms";
    case Counter::kWfsUndefinedAtoms: return "wfs.undefined_atoms";
    case Counter::kSchedComponents: return "sched.components";
    case Counter::kSchedComponentsReused: return "sched.components_reused";
    case Counter::kSchedPlansBuilt: return "sched.plans_built";
    case Counter::kSchedPlansReused: return "sched.plans_reused";
    case Counter::kSchedAtomSccs: return "sched.atom_sccs";
    case Counter::kSchedTrivialSccs: return "sched.trivial_sccs";
    case Counter::kSchedCyclicSccs: return "sched.cyclic_sccs";
    case Counter::kSchedGroundAtoms: return "sched.ground_atoms";
    case Counter::kSchedParallelWaves: return "sched.parallel.waves";
    case Counter::kSchedParallelBatchedComponents:
      return "sched.parallel.batched_components";
    case Counter::kStableCandidates: return "stable.candidates";
    case Counter::kStableModels: return "stable.models";
    case Counter::kMagicFactsDerived: return "magic.facts_derived";
    case Counter::kMagicFacts: return "magic.magic_facts";
    case Counter::kMagicBoxFirings: return "magic.box_firings";
    case Counter::kTabledSubgoals: return "tabled.subgoals";
    case Counter::kTabledHits: return "tabled.hits";
    case Counter::kTabledRestarts: return "tabled.restarts";
    case Counter::kTabledAnswers: return "tabled.answers";
    case Counter::kTabledSteps: return "tabled.steps";
    case Counter::kQueries: return "engine.queries";
    case Counter::kIncDeltasApplied: return "inc.deltas_applied";
    case Counter::kIncOverdeleted: return "inc.overdeleted";
    case Counter::kIncRederived: return "inc.rederived";
    case Counter::kIncComponentsResolved: return "inc.components_resolved";
    case Counter::kIncComponentsSkipped: return "inc.components_skipped";
    case Counter::kKernelProgramsCompiled: return "kernel.programs_compiled";
    case Counter::kKernelCacheHits: return "kernel.cache_hits";
    case Counter::kKernelOpsExecuted: return "kernel.ops_executed";
    case Counter::kModularFromSolve: return "modular.from_solve";
    case Counter::kModularLiteralRuns: return "modular.literal_runs";
    case Counter::kCount: break;
  }
  return "?";
}

const char* GaugeName(Gauge g) {
  switch (g) {
    case Gauge::kProgramRules: return "program.rules";
    case Gauge::kTermStoreSize: return "term.store_size";
    case Gauge::kEnvelopeSize: return "ground.envelope_size";
    case Gauge::kUniverseSize: return "ground.universe_size";
    case Gauge::kGroundRules: return "ground.rules";
    case Gauge::kAtomTableSize: return "wfs.atom_table_size";
    case Gauge::kStableBranchAtoms: return "stable.branch_atoms";
    case Gauge::kSchedLargestScc: return "sched.largest_atom_scc";
    case Gauge::kSchedParallelMaxWaveWidth:
      return "sched.parallel.max_wave_width";
    case Gauge::kServiceQueueDepth: return "service.queue_depth";
    case Gauge::kServiceInflight: return "service.inflight";
    case Gauge::kCount: break;
  }
  return "?";
}

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kLoad: return "load";
    case Phase::kAnalyze: return "analyze";
    case Phase::kGround: return "ground";
    case Phase::kSolveWfs: return "solve_wfs";
    case Phase::kSolveStable: return "solve_stable";
    case Phase::kSolveModular: return "solve_modular";
    case Phase::kSolveStratified: return "solve_stratified";
    case Phase::kSolveAggregates: return "solve_aggregates";
    case Phase::kMagicRewrite: return "magic_rewrite";
    case Phase::kMagicEval: return "magic_eval";
    case Phase::kQuery: return "query";
    case Phase::kProve: return "prove";
    case Phase::kProveTabled: return "prove_tabled";
    case Phase::kCount: break;
  }
  return "?";
}

const char* HistoName(Histo h) {
  switch (h) {
    case Histo::kQueryLatency: return "query.latency_ns";
    case Histo::kQueueWait: return "query.queue_wait_ns";
    case Histo::kEval: return "query.eval_ns";
    case Histo::kSerialize: return "query.serialize_ns";
    case Histo::kEngineQuery: return "engine.query_ns";
    case Histo::kCount: break;
  }
  return "?";
}

void MetricsRegistry::Reset() {
  counters_.fill(0);
  gauges_.fill(0);
  phases_.fill(PhaseStat{});
  for (auto& h : histos_) h.Reset();
}

void MetricsRegistry::MergeInto(MetricsRegistry* into) const {
  for (size_t i = 0; i < counters_.size(); ++i) {
    into->counters_[i] += counters_[i];
  }
  for (size_t i = 0; i < gauges_.size(); ++i) {
    if (gauges_[i] > into->gauges_[i]) into->gauges_[i] = gauges_[i];
  }
  for (size_t i = 0; i < phases_.size(); ++i) {
    into->phases_[i].calls += phases_[i].calls;
    into->phases_[i].total_ns += phases_[i].total_ns;
  }
  for (size_t i = 0; i < histos_.size(); ++i) {
    histos_[i].MergeInto(&into->histos_[i]);
  }
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"counters\":{";
  char buf[128];
  for (size_t i = 0; i < counters_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, i ? "," : "",
                  CounterName(static_cast<Counter>(i)), counters_[i]);
    out += buf;
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < gauges_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, i ? "," : "",
                  GaugeName(static_cast<Gauge>(i)), gauges_[i]);
    out += buf;
  }
  out += "},\"phases\":{";
  for (size_t i = 0; i < phases_.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"calls\":%" PRIu64 ",\"total_ns\":%" PRIu64 "}",
                  i ? "," : "", PhaseName(static_cast<Phase>(i)),
                  phases_[i].calls, phases_[i].total_ns);
    out += buf;
  }
  // Histograms last: tests slice the JSON at "phases" to assert the
  // deterministic prefix, and histogram contents are wall-clock.
  out += "},\"histograms\":{";
  for (size_t i = 0; i < histos_.size(); ++i) {
    const Histogram& h = histos_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                  ",\"p50\":%.0f,\"p90\":%.0f,\"p99\":%.0f,\"buckets\":[",
                  i ? "," : "", HistoName(static_cast<Histo>(i)), h.count(),
                  h.sum(), h.Percentile(50), h.Percentile(90),
                  h.Percentile(99));
    out += buf;
    for (size_t b = 0; b < Histogram::kBucketCount; ++b) {
      std::snprintf(buf, sizeof(buf), "%s%" PRIu64, b ? "," : "",
                    h.bucket(b));
      out += buf;
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::ToTable() const {
  std::string out;
  char buf[160];
  out += "counters:\n";
  for (size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i] == 0) continue;
    std::snprintf(buf, sizeof(buf), "  %-26s %12" PRIu64 "\n",
                  CounterName(static_cast<Counter>(i)), counters_[i]);
    out += buf;
  }
  out += "gauges:\n";
  for (size_t i = 0; i < gauges_.size(); ++i) {
    if (gauges_[i] == 0) continue;
    std::snprintf(buf, sizeof(buf), "  %-26s %12" PRIu64 "\n",
                  GaugeName(static_cast<Gauge>(i)), gauges_[i]);
    out += buf;
  }
  out += "phases:\n";
  for (size_t i = 0; i < phases_.size(); ++i) {
    const PhaseStat& stat = phases_[i];
    if (stat.calls == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "  %-26s %6" PRIu64 " call(s) %12.3f ms\n",
                  PhaseName(static_cast<Phase>(i)), stat.calls,
                  static_cast<double>(stat.total_ns) / 1e6);
    out += buf;
  }
  out += "histograms:\n";
  for (size_t i = 0; i < histos_.size(); ++i) {
    const Histogram& h = histos_[i];
    if (h.count() == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "  %-26s %6" PRIu64 " sample(s) p50 %10.3f ms  p99 %10.3f"
                  " ms\n",
                  HistoName(static_cast<Histo>(i)), h.count(),
                  h.Percentile(50) / 1e6, h.Percentile(99) / 1e6);
    out += buf;
  }
  return out;
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names map
// '.' -> '_' and gain a "hilog_" prefix.
std::string PromName(const char* dotted) {
  std::string out = "hilog_";
  for (const char* p = dotted; *p != '\0'; ++p) {
    out += *p == '.' ? '_' : *p;
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::ToPrometheus() const {
  std::string out;
  char buf[160];
  for (size_t i = 0; i < counters_.size(); ++i) {
    const std::string name =
        PromName(CounterName(static_cast<Counter>(i))) + "_total";
    out += "# TYPE " + name + " counter\n";
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", name.c_str(),
                  counters_[i]);
    out += buf;
  }
  for (size_t i = 0; i < gauges_.size(); ++i) {
    const std::string name = PromName(GaugeName(static_cast<Gauge>(i)));
    out += "# TYPE " + name + " gauge\n";
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", name.c_str(),
                  gauges_[i]);
    out += buf;
  }
  for (size_t i = 0; i < phases_.size(); ++i) {
    const std::string base =
        PromName(PhaseName(static_cast<Phase>(i)));
    const std::string ns_name = "hilog_phase_" + base.substr(6) + "_ns_total";
    const std::string calls_name =
        "hilog_phase_" + base.substr(6) + "_calls_total";
    out += "# TYPE " + ns_name + " counter\n";
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", ns_name.c_str(),
                  phases_[i].total_ns);
    out += buf;
    out += "# TYPE " + calls_name + " counter\n";
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", calls_name.c_str(),
                  phases_[i].calls);
    out += buf;
  }
  for (size_t i = 0; i < histos_.size(); ++i) {
    const Histogram& h = histos_[i];
    const std::string name = PromName(HistoName(static_cast<Histo>(i)));
    out += "# TYPE " + name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < Histogram::kBucketCount - 1; ++b) {
      cumulative += h.bucket(b);
      std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64
                    "\n",
                    name.c_str(), Histogram::BucketUpperBound(b), cumulative);
      out += buf;
    }
    cumulative += h.bucket(Histogram::kBucketCount - 1);
    std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n",
                  name.c_str(), cumulative);
    out += buf;
    std::snprintf(buf, sizeof(buf), "%s_sum %" PRIu64 "\n", name.c_str(),
                  h.sum());
    out += buf;
    // _count is the +Inf cumulative, not h.count(): a concurrent Record
    // between the two reads must not break count == sum-of-buckets.
    std::snprintf(buf, sizeof(buf), "%s_count %" PRIu64 "\n", name.c_str(),
                  cumulative);
    out += buf;
  }
  return out;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ScopedPhaseTimer::ScopedPhaseTimer(Phase phase)
    : phase_(phase), metrics_(CurrentMetrics()), trace_(CurrentTrace()) {
  if (metrics_ == nullptr && trace_ == nullptr) return;
  start_ns_ = NowNs();
  if (trace_ != nullptr) trace_->Begin(PhaseName(phase_));
}

ScopedPhaseTimer::~ScopedPhaseTimer() {
  if (metrics_ == nullptr && trace_ == nullptr) return;
  if (trace_ != nullptr) trace_->End(PhaseName(phase_));
  if (metrics_ != nullptr) metrics_->AddPhase(phase_, NowNs() - start_ns_);
}

}  // namespace hilog::obs
