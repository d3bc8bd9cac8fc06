#include "src/core/engine.h"

#include "src/analysis/stratification.h"
#include "src/maint/delta.h"
#include "src/wfs/alternating.h"

namespace hilog {

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  if (options_.trace_capacity > 0) {
    trace_ = std::make_unique<obs::TraceBuffer>(options_.trace_capacity,
                                                options_.trace_tid);
  }
  // Every evaluation path compiles through the engine's cache, whatever
  // the caller put in the options (a caller-supplied pointer would dangle
  // past the options struct it came from anyway).
  options_.bottomup.kernel_cache = &kernel_cache_;
  options_.magic.kernel_cache = &kernel_cache_;
}

std::unique_ptr<Engine> Engine::Fork() const { return Fork(options_); }

std::unique_ptr<Engine> Engine::Fork(const EngineOptions& options) const {
  auto fork = std::make_unique<Engine>(options);
  // The copy is the fork's load: timed into the fork's own registry and
  // trace lane, as Load, LoadMore and ApplyDelta time theirs.
  obs::ScopedObsContext obs_ctx(fork->MetricsSink(), fork->TraceSink());
  obs::ScopedPhaseTimer timer(obs::Phase::kLoad);
  fork->store_.CopyFrom(store_);
  fork->program_ = program_;
  fork->edb_rows_ = edb_rows_;
  // Copies pointers only: settled entries, the plan and the record are
  // immutable and shared.
  fork->scheduler_cache_ = scheduler_cache_;
  // CopyFrom preserves TermIds, so the compiled programs' atom and
  // variable ids mean the same terms in the fork.
  fork->kernel_cache_.CloneFrom(kernel_cache_);
  obs::SetGauge(obs::Gauge::kProgramRules, program_.size());
  obs::SetGauge(obs::Gauge::kTermStoreSize, store_.size());
  return fork;
}

std::string Engine::Load(std::string_view text) {
  program_ = Program();
  scheduler_cache_.Clear();
  edb_rows_.reset();
  kernel_cache_.Clear();
  maintenance_pending_ = false;
  // No Prewarm on a cold load: the first solve touches every reachable
  // rule anyway and resolves entries lazily at equal total cost, while a
  // load-and-query-narrowly engine never pays for rules it skips.
  return AppendProgram(text, /*prewarm=*/false);
}

std::string Engine::LoadMore(std::string_view text) {
  // Appends run eagerly through the compile front-end: on a warm engine
  // every survivor hits the structural cache, so only the new rules pay,
  // and they pay here — off any query path — instead of in the next
  // solve's first round.
  return AppendProgram(text, /*prewarm=*/true);
}

std::string Engine::AppendProgram(std::string_view text, bool prewarm) {
  obs::ScopedObsContext obs_ctx(MetricsSink(), TraceSink());
  obs::ScopedPhaseTimer timer(obs::Phase::kLoad);
  ParseResult<Program> parsed = ParseProgram(store_, text);
  if (!parsed.ok()) return parsed.error;
  const size_t added_from = program_.size();
  for (Rule& rule : (*parsed).rules) program_.Add(std::move(rule));
  KeepOrDropRecord({}, added_from);
  if (prewarm) kernel_cache_.Prewarm(store_, program_);
  obs::SetGauge(obs::Gauge::kProgramRules, program_.size());
  obs::SetGauge(obs::Gauge::kTermStoreSize, store_.size());
  return "";
}

std::string Engine::ApplyDelta(std::string_view additions,
                               std::string_view retractions,
                               std::vector<size_t>* removed_indices) {
  obs::ScopedObsContext obs_ctx(MetricsSink(), TraceSink());
  obs::ScopedPhaseTimer timer(obs::Phase::kLoad);
  FactDelta delta;
  std::string error = ParseFactDelta(store_, additions, retractions, &delta);
  if (!error.empty()) return error;
  std::vector<TermId> removed;
  error = ApplyRetractions(store_, &program_, delta.retractions,
                           removed_indices, &removed);
  if (!error.empty()) return error;
  const size_t added_from = program_.size();
  for (Rule& rule : delta.additions.rules) program_.Add(std::move(rule));
  KeepOrDropRecord(removed, added_from);
  // Only rules the delta introduced get front-end analysis here; the
  // structural cache already covers every survivor.
  kernel_cache_.Prewarm(store_, program_);
  maintenance_pending_ = true;
  obs::Count(obs::Counter::kIncDeltasApplied);
  obs::SetGauge(obs::Gauge::kProgramRules, program_.size());
  obs::SetGauge(obs::Gauge::kTermStoreSize, store_.size());
  return "";
}

void Engine::KeepOrDropRecord(const std::vector<TermId>& removed,
                              size_t added_from) {
  SchedulerCache& cache = scheduler_cache_;
  if (cache.relations != nullptr) {
    cache.relations = KeepFactRelations(store_, *cache.relations, removed,
                                        program_, added_from);
  }
  if (cache.relations == nullptr) {
    cache.plan.reset();
    edb_rows_.reset();
    return;
  }
  if (edb_rows_) {
    // Survivors keep their order and additions append, as a fresh build.
    edb_rows_->EraseBatch(store_, removed);
    for (size_t r = added_from; r < program_.size(); ++r) {
      edb_rows_->Insert(store_, program_.rules[r].head);
    }
  }
  if (cache.plan != nullptr) {
    cache.plan = hilog::PatchSchedulerPlan(store_, *cache.plan, removed,
                                           program_, added_from);
  }
}

std::string Engine::Retract(std::string_view facts) {
  return ApplyDelta("", facts, nullptr);
}

AnalysisReport Engine::Analyze() {
  obs::ScopedObsContext obs_ctx(MetricsSink(), TraceSink());
  obs::ScopedPhaseTimer timer(obs::Phase::kAnalyze);
  AnalysisReport report;
  report.normal = IsNormalProgram(store_, program_);
  report.normal_range_restricted = IsNormalRangeRestricted(store_, program_);
  report.range_restricted = IsRangeRestricted(store_, program_);
  report.strongly_range_restricted =
      IsStronglyRangeRestricted(store_, program_);
  report.datahilog = IsDatahilog(store_, program_);
  report.stratified = IsStratified(store_, program_, nullptr);
  report.flounders = ProgramFlounders(store_, program_);
  // Figure 1's verdict from the engine's own solve (Figure1FitsSolve
  // says when that is exact), else from the literal procedure.
  bool accepted_by_solve = false;
  if (report.strongly_range_restricted) {
    ComponentWfsResult solved;
    {
      obs::ScopedPhaseTimer solve_timer(obs::Phase::kSolveWfs);
      solved = SolveByComponents();
    }
    accepted_by_solve =
        solved.ok && !solved.truncated && !solved.cancelled &&
        solved.locally_stratified &&
        Figure1FitsSolve(store_, program_, options_.modular,
                         scheduler_cache_, solved.ground_count);
  }
  if (accepted_by_solve) {
    obs::Count(obs::Counter::kModularFromSolve);
    report.modularly_stratified = true;
  } else {
    obs::Count(obs::Counter::kModularLiteralRuns);
    ModularResult modular =
        CheckModularHiLog(store_, program_, options_.modular);
    report.modularly_stratified = modular.modularly_stratified;
    report.modular_reason = modular.reason;
  }
  if (report.datahilog) {
    report.datahilog_atom_bound = DatahilogAtomBound(store_, program_);
  }
  return report;
}

ComponentWfsResult Engine::SolveByComponents(bool need_ground) {
  ComponentWfsResult scheduled =
      SolveWfsByComponents(store_, program_, options_.bottomup,
                           &scheduler_cache_, need_ground);
  if (scheduled.ok && maintenance_pending_) {
    // This solve was the maintenance pass for a pending ApplyDelta:
    // report its dirtiness frontier. (stats.components counts solved
    // components only; replays increment components_reused.)
    obs::Count(obs::Counter::kIncComponentsResolved,
               scheduled.stats.components);
    obs::Count(obs::Counter::kIncComponentsSkipped,
               scheduled.stats.components_reused);
    maintenance_pending_ = false;
  }
  return scheduled;
}

std::string Engine::InstantiateHerbrand(InstantiationResult* inst) {
  Universe universe =
      ProgramHiLogUniverse(store_, program_, options_.universe_bound);
  const size_t size = universe.terms.size();
  // Count what InstantiateOverUniverse would emit — one instance per
  // variable-free rule, |U|^vars per other rule — saturating, so an
  // over-cap program is refused before a single instance is interned.
  size_t instances = 0;
  for (const Rule& rule : program_.rules) {
    std::vector<TermId> vars;
    CollectRuleVariables(store_, rule, &vars);
    size_t count = 1;
    for (size_t v = 0; v < vars.size(); ++v) {
      count = size != 0 && count > SIZE_MAX / size ? SIZE_MAX : count * size;
    }
    instances = count > SIZE_MAX - instances ? SIZE_MAX : instances + count;
  }
  const std::string universe_text =
      std::to_string(size) + " universe terms (depth <= " +
      std::to_string(options_.universe_bound.max_depth) + ")";
  if (instances > options_.max_instances) {
    return "bounded Herbrand instantiation refused: " +
           (instances == SIZE_MAX ? "over 2^64" : std::to_string(instances)) +
           " ground instances over " + universe_text +
           " exceed max_instances = " + std::to_string(options_.max_instances);
  }
  *inst = InstantiateOverUniverse(store_, program_, universe.terms,
                                  options_.max_instances);
  if (inst->truncated) {
    return "bounded Herbrand instantiation refused: it omits the "
           "aggregate/builtin rules, so the program over " +
           universe_text + " would be partial";
  }
  return "";
}

Engine::WfsAnswer Engine::SolveOnGround(const GroundProgram& ground,
                                        GrounderKind kind, bool exact,
                                        std::string notes) {
  WfsAnswer answer;
  answer.grounder = kind;
  answer.exact = exact;
  answer.notes = std::move(notes);
  answer.ground_rules = ground.size();
  WfsResult wfs = ComputeWfsScc(ground);
  if (wfs.cancelled) {
    answer.cancelled = true;
    answer.exact = false;
  }
  answer.model = std::move(wfs.model);
  return answer;
}

Engine::WfsAnswer Engine::SolveWellFounded() {
  obs::ScopedObsContext obs_ctx(MetricsSink(), TraceSink());
  if (IsStronglyRangeRestricted(store_, program_)) {
    return SolveWellFoundedWith(GrounderKind::kRelevance);
  }
  return SolveWellFoundedWith(GrounderKind::kHerbrand);
}

Engine::WfsAnswer Engine::SolveWellFoundedWith(GrounderKind grounder) {
  obs::ScopedObsContext obs_ctx(MetricsSink(), TraceSink());
  obs::ScopedPhaseTimer timer(obs::Phase::kSolveWfs);
  if (grounder == GrounderKind::kRelevance) {
    ComponentWfsResult scheduled = SolveByComponents();
    if (!scheduled.ok) {
      WfsAnswer answer;
      answer.ok = false;
      answer.notes = scheduled.error;
      return answer;
    }
    WfsAnswer answer;
    answer.grounder = GrounderKind::kRelevance;
    answer.exact = !scheduled.truncated && !scheduled.cancelled;
    answer.cancelled = scheduled.cancelled;
    answer.notes = scheduled.truncated ? "envelope truncated" : "";
    answer.ground_rules = scheduled.ground_count;
    answer.model = std::move(scheduled.model);
    answer.sched = scheduled.stats;
    return answer;
  }
  InstantiationResult inst;
  std::string refusal = InstantiateHerbrand(&inst);
  if (!refusal.empty()) {
    WfsAnswer answer;
    answer.grounder = GrounderKind::kHerbrand;
    answer.ok = false;
    answer.notes = std::move(refusal);
    return answer;
  }
  std::string notes = "bounded Herbrand fragment (depth <= " +
                      std::to_string(options_.universe_bound.max_depth) +
                      ", " + std::to_string(inst.universe_size) +
                      " universe terms)";
  return SolveOnGround(inst.program, GrounderKind::kHerbrand,
                       /*exact=*/false, std::move(notes));
}

StableModelsResult Engine::SolveStable() {
  obs::ScopedObsContext obs_ctx(MetricsSink(), TraceSink());
  obs::ScopedPhaseTimer timer(obs::Phase::kSolveStable);
  StableModelsResult refused;
  refused.complete = false;
  if (IsStronglyRangeRestricted(store_, program_)) {
    // SolveWellFounded's relevance solve, with the union of restricted
    // component groundings materialized and the settled well-founded
    // model handed to the enumerator, so it only branches on genuinely
    // undefined atoms. A grounding it refuses or truncates has no stable
    // models to enumerate.
    ComponentWfsResult scheduled = SolveByComponents(/*need_ground=*/true);
    if (scheduled.cancelled) {
      refused.cancelled = true;
      return refused;
    }
    if (!scheduled.ok || scheduled.truncated) {
      refused.reason = scheduled.ok ? "envelope truncated" : scheduled.error;
      return refused;
    }
    return EnumerateStableModels(scheduled.ground, options_.stable,
                                 &scheduled.model);
  }
  InstantiationResult inst;
  refused.reason = InstantiateHerbrand(&inst);
  if (!refused.reason.empty()) return refused;
  return EnumerateStableModels(inst.program, options_.stable);
}

ModularResult Engine::SolveModular() {
  obs::ScopedObsContext obs_ctx(MetricsSink(), TraceSink());
  obs::ScopedPhaseTimer timer(obs::Phase::kSolveModular);
  return CheckModularHiLog(store_, program_, options_.modular);
}

AggregateEvalResult Engine::SolveAggregates() {
  obs::ScopedObsContext obs_ctx(MetricsSink(), TraceSink());
  obs::ScopedPhaseTimer timer(obs::Phase::kSolveAggregates);
  return EvaluateWithAggregates(store_, program_, options_.aggregate);
}

Engine::QueryAnswer Engine::Query(std::string_view query_text) {
  obs::ScopedObsContext obs_ctx(MetricsSink(), TraceSink());
  obs::ScopedPhaseTimer timer(obs::Phase::kQuery);
  obs::ScopedLatencyTimer latency(obs::Histo::kEngineQuery);
  obs::Count(obs::Counter::kQueries);
  QueryAnswer answer;
  ParseResult<TermId> parsed = ParseTerm(store_, query_text);
  if (!parsed.ok()) {
    answer.ok = false;
    answer.error = parsed.error;
    return answer;
  }
  // The EDB: the record's rows, rebuilt only after a change it did not keep.
  std::shared_ptr<const FactRelations>& relations = scheduler_cache_.relations;
  if (relations == nullptr) relations = BuildFactRelations(store_, program_);
  if (!edb_rows_) edb_rows_ = FactRows(store_, program_, *relations);
  MagicRewriteOptions rewrite_options;
  rewrite_options.edb = &*edb_rows_;
  MagicProgram magic = [&] {
    obs::ScopedPhaseTimer rewrite_timer(obs::Phase::kMagicRewrite);
    return MagicRewrite(store_, program_, *parsed, rewrite_options);
  }();
  MagicEvalResult result = EvaluateMagic(store_, magic, options_.magic);
  if (!result.error.empty()) {
    answer.ok = false;
    answer.cancelled = result.cancelled;
    answer.error = result.error;
    return answer;
  }
  answer.answers = std::move(result.answers);
  answer.ground_status = result.ground_status;
  answer.unsettled_negative_calls =
      std::move(result.unsettled_negative_calls);
  answer.facts_derived = result.facts_derived;
  return answer;
}

ResolutionResult Engine::Prove(std::string_view query_text) {
  obs::ScopedObsContext obs_ctx(MetricsSink(), TraceSink());
  obs::ScopedPhaseTimer timer(obs::Phase::kProve);
  ParseResult<TermId> parsed = ParseTerm(store_, query_text);
  if (!parsed.ok()) {
    ResolutionResult result;
    result.error = parsed.error;
    return result;
  }
  return SolveByResolution(store_, program_, *parsed, ResolutionOptions());
}

TabledResult Engine::ProveTabled(std::string_view query_text) {
  obs::ScopedObsContext obs_ctx(MetricsSink(), TraceSink());
  obs::ScopedPhaseTimer timer(obs::Phase::kProveTabled);
  ParseResult<TermId> parsed = ParseTerm(store_, query_text);
  if (!parsed.ok()) {
    TabledResult result;
    result.error = parsed.error;
    return result;
  }
  return SolveTabled(store_, program_, *parsed, options_.tabled);
}

StratifiedEvalResult Engine::SolveStratified() {
  obs::ScopedObsContext obs_ctx(MetricsSink(), TraceSink());
  obs::ScopedPhaseTimer timer(obs::Phase::kSolveStratified);
  // The perfect model is the true part of the engine's own well-founded
  // solve: components settled by SolveWellFounded or Analyze replay, and
  // the ones settled here replay for them.
  return EvaluateStratifiedBy(store_, program_, options_.bottomup.max_facts,
                              [this] { return SolveByComponents(); });
}

DomainIndependenceResult Engine::CheckDomainIndependence(
    size_t extra_symbols) {
  obs::ScopedObsContext obs_ctx(MetricsSink(), TraceSink());
  return CheckDomainIndependenceWfs(store_, program_, extra_symbols,
                                    options_.universe_bound);
}

}  // namespace hilog
