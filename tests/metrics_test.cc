// Tests for the observability layer (src/obs): registry semantics, the
// thread-local context install, the trace ring buffer, and exact counter
// values for the engine on the ground win/move chain (the ground instance
// family of the paper's Example 6.1 game program).

#include "src/core/engine.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <string>

namespace hilog {
namespace {

// bench::GroundWinChain(n): w(ni) :- m(ni,ni+1), ~w(ni+1) plus the move
// facts. Already ground, so grounding yields exactly 2n instances.
std::string GroundWinChain(int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    std::string x = std::to_string(i);
    std::string y = std::to_string(i + 1);
    text += "w(n" + x + ") :- m(n" + x + ",n" + y + "), ~w(n" + y + ").\n";
    text += "m(n" + x + ",n" + y + ").\n";
  }
  return text;
}

TEST(MetricsRegistryTest, CountersGaugesPhases) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.value(obs::Counter::kUnifyCalls), 0u);
  reg.Add(obs::Counter::kUnifyCalls, 3);
  reg.Add(obs::Counter::kUnifyCalls);
  EXPECT_EQ(reg.value(obs::Counter::kUnifyCalls), 4u);
  reg.Set(obs::Gauge::kProgramRules, 7);
  EXPECT_EQ(reg.gauge(obs::Gauge::kProgramRules), 7u);
  reg.AddPhase(obs::Phase::kLoad, 1000);
  reg.AddPhase(obs::Phase::kLoad, 500);
  EXPECT_EQ(reg.phase(obs::Phase::kLoad).calls, 2u);
  EXPECT_EQ(reg.phase(obs::Phase::kLoad).total_ns, 1500u);
  reg.Reset();
  EXPECT_EQ(reg.value(obs::Counter::kUnifyCalls), 0u);
  EXPECT_EQ(reg.gauge(obs::Gauge::kProgramRules), 0u);
  EXPECT_EQ(reg.phase(obs::Phase::kLoad).calls, 0u);
}

TEST(MetricsRegistryTest, JsonHasStableSchema) {
  obs::MetricsRegistry reg;
  reg.Add(obs::Counter::kWfsRounds, 5);
  std::string json = reg.ToJson();
  // Every key is present even at zero, so downstream diffs are stable.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"wfs.rounds\":5"), std::string::npos);
  EXPECT_NE(json.find("\"term.interned\":0"), std::string::npos);
}

// The multi-thread aggregation contract: each worker accumulates into a
// private registry, then merges into the service aggregate under a lock.
TEST(MetricsRegistryTest, MergeIntoAddsCountersAndPhasesMaxesGauges) {
  obs::MetricsRegistry worker;
  obs::MetricsRegistry aggregate;
  aggregate.Add(obs::Counter::kUnifyCalls, 10);
  aggregate.Set(obs::Gauge::kProgramRules, 5);
  aggregate.AddPhase(obs::Phase::kQuery, 100);

  worker.Add(obs::Counter::kUnifyCalls, 3);
  worker.Add(obs::Counter::kQueries, 1);
  worker.Set(obs::Gauge::kProgramRules, 2);   // Below the aggregate: kept.
  worker.Set(obs::Gauge::kAtomTableSize, 9);  // New high-water mark.
  worker.AddPhase(obs::Phase::kQuery, 250);
  worker.MergeInto(&aggregate);

  EXPECT_EQ(aggregate.value(obs::Counter::kUnifyCalls), 13u);
  EXPECT_EQ(aggregate.value(obs::Counter::kQueries), 1u);
  EXPECT_EQ(aggregate.gauge(obs::Gauge::kProgramRules), 5u);
  EXPECT_EQ(aggregate.gauge(obs::Gauge::kAtomTableSize), 9u);
  EXPECT_EQ(aggregate.phase(obs::Phase::kQuery).calls, 2u);
  EXPECT_EQ(aggregate.phase(obs::Phase::kQuery).total_ns, 350u);
  // The source registry is untouched; the per-query flush pairs
  // MergeInto with an explicit Reset.
  EXPECT_EQ(worker.value(obs::Counter::kUnifyCalls), 3u);
}

TEST(MetricsRegistryTest, MergeIntoTwiceDoublesOnlyWithoutReset) {
  obs::MetricsRegistry worker;
  obs::MetricsRegistry aggregate;
  worker.Add(obs::Counter::kQueries, 1);
  worker.MergeInto(&aggregate);
  worker.Reset();  // The flush protocol: merge, then restart from zero.
  worker.Add(obs::Counter::kQueries, 1);
  worker.MergeInto(&aggregate);
  EXPECT_EQ(aggregate.value(obs::Counter::kQueries), 2u);
}

TEST(MetricsRegistryTest, MergeIntoAddsHistogramsBucketwise) {
  obs::MetricsRegistry worker;
  obs::MetricsRegistry aggregate;
  aggregate.RecordHisto(obs::Histo::kQueryLatency, 100);
  worker.RecordHisto(obs::Histo::kQueryLatency, 100);
  worker.RecordHisto(obs::Histo::kQueueWait, 50);
  worker.MergeInto(&aggregate);
  EXPECT_EQ(aggregate.histo(obs::Histo::kQueryLatency).count(), 2u);
  EXPECT_EQ(aggregate.histo(obs::Histo::kQueryLatency).sum(), 200u);
  EXPECT_EQ(aggregate.histo(obs::Histo::kQueueWait).count(), 1u);
  // Unlike gauges (max) and counters (add), a histogram merge is a
  // bucket-wise add — a distribution is a sum of samples.
  EXPECT_EQ(aggregate.histo(obs::Histo::kQueryLatency)
                .bucket(obs::Histogram::BucketIndex(100)),
            2u);
}

TEST(ObsContextTest, CountIsNoOpWithoutContext) {
  // No context installed: must not crash and must not touch any registry.
  obs::Count(obs::Counter::kUnifyCalls);
  obs::SetGauge(obs::Gauge::kProgramRules, 9);
  obs::TraceInstant("free.standing", 1);
  EXPECT_EQ(obs::CurrentMetrics(), nullptr);
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
}

TEST(ObsContextTest, ScopedInstallAndNestedRestore) {
  obs::MetricsRegistry outer;
  obs::MetricsRegistry inner;
  {
    obs::ScopedObsContext outer_ctx(&outer, nullptr);
    obs::Count(obs::Counter::kUnifyCalls);
    {
      obs::ScopedObsContext inner_ctx(&inner, nullptr);
      obs::Count(obs::Counter::kUnifyCalls, 2);
    }
    // Restored to the outer registry after the inner scope ends.
    obs::Count(obs::Counter::kUnifyCalls);
  }
  EXPECT_EQ(outer.value(obs::Counter::kUnifyCalls), 2u);
  EXPECT_EQ(inner.value(obs::Counter::kUnifyCalls), 2u);
  EXPECT_EQ(obs::CurrentMetrics(), nullptr);
}

TEST(ObsContextTest, PhaseTimerAccumulates) {
  obs::MetricsRegistry reg;
  {
    obs::ScopedObsContext ctx(&reg, nullptr);
    obs::ScopedPhaseTimer timer(obs::Phase::kQuery);
  }
  EXPECT_EQ(reg.phase(obs::Phase::kQuery).calls, 1u);
}

TEST(TraceBufferTest, RingOverwritesOldest) {
  obs::TraceBuffer buffer(4);
  for (uint64_t i = 0; i < 6; ++i) buffer.Instant("ev", i);
  EXPECT_EQ(buffer.dropped(), 2u);
  auto events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two (values 0, 1) were overwritten; order is preserved.
  EXPECT_EQ(events.front().value, 2u);
  EXPECT_EQ(events.back().value, 5u);
  std::string chrome = buffer.ToChromeJson();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(buffer.ToJson().find("\"dropped\":2"), std::string::npos);
}

TEST(TraceBufferTest, ClearEmptiesRingAndKeepsLane) {
  obs::TraceBuffer buffer(4, /*tid=*/3);
  for (uint64_t i = 0; i < 6; ++i) buffer.Instant("ev", i);
  EXPECT_EQ(buffer.dropped(), 2u);
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
  buffer.Instant("after", 7);
  auto events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].value, 7u);
  EXPECT_EQ(events[0].tid, 3u);  // The lane survives Clear.
}

TEST(TraceBufferTest, MergeIntoRebasesKeepsLanesAndCarriesDropped) {
  obs::TraceBuffer aggregate(8, /*tid=*/0);
  obs::TraceBuffer worker(2, /*tid=*/5);  // Created after: later epoch.
  aggregate.Instant("agg.before", 1);
  worker.Instant("w.dropped", 0);  // Overwritten below (capacity 2).
  worker.Instant("w.a", 2);
  worker.Instant("w.b", 3);
  ASSERT_EQ(worker.dropped(), 1u);
  const uint64_t worker_local_ts = worker.Snapshot()[0].ts_ns;

  worker.MergeInto(&aggregate);
  auto events = aggregate.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(std::string(events[1].name), "w.a");
  EXPECT_EQ(events[1].tid, 5u);  // Worker lane preserved in the merge.
  EXPECT_EQ(events[0].tid, 0u);
  // Rebasing into the earlier epoch can only push timestamps forward.
  EXPECT_GE(events[1].ts_ns, worker_local_ts);
  EXPECT_EQ(aggregate.dropped(), 1u);  // The worker's loss is not hidden.

  // Chrome export separates the lanes (+1 keeps the historical lane 1
  // for single-threaded buffers).
  std::string chrome = aggregate.ToChromeJson();
  EXPECT_NE(chrome.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(chrome.find("\"tid\":6"), std::string::npos);
}

TEST(TraceBufferTest, MergeIntoRespectsDestinationCapacity) {
  obs::TraceBuffer aggregate(2);
  obs::TraceBuffer worker(4);
  for (uint64_t i = 0; i < 4; ++i) worker.Instant("ev", i);
  worker.MergeInto(&aggregate);
  auto events = aggregate.Snapshot();
  ASSERT_EQ(events.size(), 2u);  // Ring semantics in the destination.
  EXPECT_EQ(events.front().value, 2u);
  EXPECT_EQ(events.back().value, 3u);
  EXPECT_EQ(aggregate.dropped(), 2u);
}

// Satellite: exact, deterministic counters on the Example 6.1 win/move
// chain. These values are part of the observable contract — a change in
// any of them means the engine's work (not just its timing) changed.
TEST(EngineMetricsTest, WinChainExactWfsCounters) {
  Engine engine;
  ASSERT_EQ(engine.Load(GroundWinChain(8)), "");
  Engine::WfsAnswer answer = engine.SolveWellFounded();
  ASSERT_TRUE(answer.ok) << answer.notes;
  ASSERT_TRUE(answer.exact);

  const obs::MetricsRegistry& m = engine.metrics();
  // Grounding: the program is already ground, 8 rules + 8 facts.
  EXPECT_EQ(m.value(obs::Counter::kGroundInstances), 16u);
  EXPECT_EQ(m.gauge(obs::Gauge::kProgramRules), 16u);
  EXPECT_EQ(m.gauge(obs::Gauge::kGroundRules), 16u);
  // The SCC scheduler splits {m} below {w} and settles every atom-level
  // SCC by rule inspection: the chain is acyclic, so no alternating
  // fixpoint (and no Gamma application) runs at all.
  EXPECT_EQ(m.value(obs::Counter::kWfsRounds), 0u);
  EXPECT_EQ(m.value(obs::Counter::kGammaApplications), 0u);
  EXPECT_EQ(m.value(obs::Counter::kSchedComponents), 2u);
  EXPECT_EQ(m.value(obs::Counter::kSchedComponentsReused), 0u);
  // Atom SCCs: 8 m-atoms in the m component, then w(n0..n8) in the w
  // component (its m-subgoals are resolved before scheduling).
  EXPECT_EQ(m.value(obs::Counter::kSchedAtomSccs), 17u);
  EXPECT_EQ(m.value(obs::Counter::kSchedTrivialSccs), 17u);
  EXPECT_EQ(m.value(obs::Counter::kSchedCyclicSccs), 0u);
  EXPECT_EQ(m.value(obs::Counter::kSchedGroundAtoms), 17u);
  EXPECT_EQ(m.gauge(obs::Gauge::kSchedLargestScc), 1u);
  // Wave execution: {m} at depth 0, {w} at depth 1 — two waves of width
  // one, so nothing is batched.
  EXPECT_EQ(m.value(obs::Counter::kSchedParallelWaves), 2u);
  EXPECT_EQ(m.value(obs::Counter::kSchedParallelBatchedComponents), 0u);
  EXPECT_EQ(m.gauge(obs::Gauge::kSchedParallelMaxWaveWidth), 1u);
  // True atoms: 8 move facts + w(n1), w(n3), w(n5), w(n7).
  EXPECT_EQ(m.value(obs::Counter::kWfsTrueAtoms), 12u);
  EXPECT_EQ(m.value(obs::Counter::kWfsUndefinedAtoms), 0u);
  // 17 atoms: w(n0..n8) and the 8 move facts.
  EXPECT_EQ(m.gauge(obs::Gauge::kAtomTableSize), 17u);
  // Component envelopes: m's 8 facts, then w seeded with those 8 plus
  // its own 8 derived heads.
  EXPECT_EQ(m.gauge(obs::Gauge::kEnvelopeSize), 24u);
  // Semi-naive envelopes: m is fact-only and settles on the scheduler's
  // fast path without entering the bottom-up evaluator, so only w's two
  // rounds over the seeded m-atoms count here.
  EXPECT_EQ(m.value(obs::Counter::kBottomUpRounds), 2u);
  EXPECT_EQ(m.value(obs::Counter::kBottomUpFacts), 8u);
  // Membership probes must be on the hot path: ground body literals
  // resolve by one probe each, skipping per-name bucket scans.
  EXPECT_GT(m.value(obs::Counter::kIndexProbes), 0u);
  EXPECT_GT(m.value(obs::Counter::kCandidatesPruned), 0u);
  EXPECT_GT(m.value(obs::Counter::kUnificationsAvoided), 0u);
}

// Satellite: exact columnar batch-join counters. The ground win chain
// resolves every body literal by membership probe, so the columnar hash
// never fires there; a non-ground transitive closure drives every join
// through it.
TEST(EngineMetricsTest, ColumnarCountersExactOnWinChainAndTc) {
  {
    Engine engine;
    ASSERT_EQ(engine.Load(GroundWinChain(8)), "");
    ASSERT_TRUE(engine.SolveWellFounded().ok);
    const obs::MetricsRegistry& m = engine.metrics();
    EXPECT_EQ(m.value(obs::Counter::kColRows), 0u);
    EXPECT_EQ(m.value(obs::Counter::kColBatchJoins), 0u);
    EXPECT_EQ(m.value(obs::Counter::kColProbeHits), 0u);
    EXPECT_EQ(m.value(obs::Counter::kColFallbackTuples), 0u);
  }
  {
    std::string text;
    for (int i = 0; i < 16; ++i) {
      text += "e(n" + std::to_string(i) + ",n" + std::to_string(i + 1) +
              ").\n";
    }
    text += "t(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), e(Y,Z).\n";
    Engine engine;
    ASSERT_EQ(engine.Load(text), "");
    ASSERT_TRUE(engine.SolveWellFounded().ok);
    const obs::MetricsRegistry& m = engine.metrics();
    EXPECT_EQ(m.value(obs::Counter::kColRows), 152u);
    EXPECT_EQ(m.value(obs::Counter::kColBatchJoins), 168u);
    EXPECT_EQ(m.value(obs::Counter::kColProbeHits), 360u);
    EXPECT_EQ(m.value(obs::Counter::kColFallbackTuples), 200u);
  }
}

// Satellite: exact kernel-executor counters on the same 16-node chain.
// The fixpoint lowers five (rule, delta position, order) variants — the
// two TC rules in their full and delta-rewritten forms plus the seeding
// pass — and every later round re-asks for one of those, so exactly
// three requests are cache hits. 568 executed ops is the whole
// semi-naive run. The cache holds exactly the two TC rules:
// fact rules short-circuit before compilation, and a cold Load no
// longer prewarms, so only rules the fixpoint actually joins get
// entries.
TEST(EngineMetricsTest, KernelCountersExactOnTc) {
  std::string text;
  for (int i = 0; i < 16; ++i) {
    text += "e(n" + std::to_string(i) + ",n" + std::to_string(i + 1) +
            ").\n";
  }
  text += "t(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), e(Y,Z).\n";
  Engine engine;
  ASSERT_EQ(engine.Load(text), "");
  ASSERT_TRUE(engine.SolveWellFounded().ok);
  const obs::MetricsRegistry& m = engine.metrics();
  EXPECT_EQ(m.value(obs::Counter::kKernelProgramsCompiled), 5u);
  EXPECT_EQ(m.value(obs::Counter::kKernelCacheHits), 3u);
  EXPECT_EQ(m.value(obs::Counter::kKernelOpsExecuted), 568u);
  EXPECT_EQ(engine.kernel_cache().size(), 2u);
}

// Satellite: exact incremental-maintenance counters on the win chain.
// The program is GroundWinChain(8) plus an independent p/q pair, so the
// condensation has four components: {m} and {w} (which the delta
// reaches) and {p}, {q} (which it does not). Retracting m(n7,n8) flips
// the winning parity of the whole chain: the maintenance solve
// re-resolves {m} (its rule set changed) and {w} (its lower model
// changed) and replays {p}, {q} from the settled-component cache.
TEST(EngineMetricsTest, IncrementalCountersExactOnWinChainDelta) {
  Engine engine;
  ASSERT_EQ(engine.Load(GroundWinChain(8) + "p(a).\nq(X) :- p(X).\n"), "");
  ASSERT_TRUE(engine.SolveWellFounded().ok);
  // The initial solve is not maintenance: nothing incremental counted.
  EXPECT_EQ(engine.metrics().value(obs::Counter::kIncDeltasApplied), 0u);
  EXPECT_EQ(engine.metrics().value(obs::Counter::kIncOverdeleted), 0u);

  ASSERT_EQ(engine.Retract("m(n7,n8)."), "");
  Engine::WfsAnswer maintained = engine.SolveWellFounded();
  ASSERT_TRUE(maintained.ok);
  // 7 surviving move facts, the flipped winners w(n0), w(n2), w(n4),
  // w(n6) (previously the odd positions won), and p(a), q(a).
  EXPECT_EQ(maintained.model.TrueAtoms().size(), 13u);

  const obs::MetricsRegistry& m = engine.metrics();
  EXPECT_EQ(m.value(obs::Counter::kIncDeltasApplied), 1u);
  EXPECT_EQ(m.value(obs::Counter::kIncComponentsResolved), 2u);
  EXPECT_EQ(m.value(obs::Counter::kIncComponentsSkipped), 2u);
  // Overdeleted: the retracted m(n7,n8) plus the four w atoms whose old
  // truth did not survive. Rederived: the seven remaining move facts
  // ({w}'s old true atoms all flipped, so none of them rederive).
  EXPECT_EQ(m.value(obs::Counter::kIncOverdeleted), 5u);
  EXPECT_EQ(m.value(obs::Counter::kIncRederived), 7u);
}

// Satellite: incremental counters on a transitive-closure delta. Adding
// one edge extends the chain; every old e and t atom survives in the new
// model, so the maintenance pass rederives all of them and overdeletes
// nothing, while the untouched iso/iso2 components replay.
TEST(EngineMetricsTest, IncrementalCountersExactOnTcDelta) {
  std::string text;
  for (int i = 0; i < 16; ++i) {
    text += "e(n" + std::to_string(i) + ",n" + std::to_string(i + 1) +
            ").\n";
  }
  text += "t(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), e(Y,Z).\n";
  text += "iso(a).\niso2(X) :- iso(X).\n";
  Engine engine;
  ASSERT_EQ(engine.Load(text), "");
  ASSERT_TRUE(engine.SolveWellFounded().ok);

  ASSERT_EQ(engine.ApplyDelta("e(n16,n17).", "", nullptr), "");
  Engine::WfsAnswer maintained = engine.SolveWellFounded();
  ASSERT_TRUE(maintained.ok);

  const obs::MetricsRegistry& m = engine.metrics();
  EXPECT_EQ(m.value(obs::Counter::kIncDeltasApplied), 1u);
  EXPECT_EQ(m.value(obs::Counter::kIncComponentsResolved), 2u);
  EXPECT_EQ(m.value(obs::Counter::kIncComponentsSkipped), 2u);
  EXPECT_EQ(m.value(obs::Counter::kIncOverdeleted), 0u);
  // 16 old edges + C(17,2) = 136 old closure atoms, all still true.
  EXPECT_EQ(m.value(obs::Counter::kIncRederived), 152u);
}

// Satellite: component counts on the Example 6.3 game. The guard game(M)
// instantiates the generic rule once per game, so the scheduler plans
// five per-name components: game, mv1, mv2, winning(mv1), winning(mv2).
// A move delta re-solves its move relation and that game's winning
// component and replays the other three. Retracting game(mv1) re-solves
// game and winning(mv2) (every winning component reads game), replays
// the move relations, and leaves winning(mv1) without rules.
TEST(EngineMetricsTest, ComponentCountersExactOnHiLogGameDeltas) {
  Engine engine;
  ASSERT_EQ(engine.Load("winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).\n"
                        "game(mv1).\ngame(mv2).\n"
                        "mv1(a,b).\nmv1(b,c).\nmv1(a,c).\n"
                        "mv2(x,y).\nmv2(y,z).\n"),
            "");
  ASSERT_TRUE(engine.SolveWellFounded().ok);
  EXPECT_EQ(engine.metrics().value(obs::Counter::kSchedComponents), 5u);
  EXPECT_EQ(engine.metrics().value(obs::Counter::kSchedComponentsReused), 0u);
  EXPECT_EQ(engine.metrics().value(obs::Counter::kSchedPlansBuilt), 1u);
  EXPECT_EQ(engine.metrics().value(obs::Counter::kSchedPlansReused), 0u);

  // A move fact patches the plan; the guard fact game(mv1) rebuilds it.
  struct Step {
    const char* add;
    const char* retract;
    uint64_t resolved;
    uint64_t skipped;
    uint64_t plans_built;
    uint64_t plans_reused;
  };
  const Step steps[] = {
      {"", "mv1(a,c).", 2, 3, 0, 1},
      {"mv1(a,c).", "", 2, 3, 0, 1},
      {"", "game(mv1).", 2, 2, 1, 0},
  };
  for (const Step& step : steps) {
    engine.metrics().Reset();
    ASSERT_EQ(engine.ApplyDelta(step.add, step.retract, nullptr), "");
    Engine::WfsAnswer answer = engine.SolveWellFounded();
    ASSERT_TRUE(answer.ok) << answer.notes;
    const obs::MetricsRegistry& m = engine.metrics();
    EXPECT_EQ(m.value(obs::Counter::kSchedComponents), step.resolved)
        << step.add << step.retract;
    EXPECT_EQ(m.value(obs::Counter::kSchedComponentsReused), step.skipped)
        << step.add << step.retract;
    EXPECT_EQ(m.value(obs::Counter::kIncComponentsResolved), step.resolved)
        << step.add << step.retract;
    EXPECT_EQ(m.value(obs::Counter::kIncComponentsSkipped), step.skipped)
        << step.add << step.retract;
    EXPECT_EQ(m.value(obs::Counter::kSchedPlansBuilt), step.plans_built)
        << step.add << step.retract;
    EXPECT_EQ(m.value(obs::Counter::kSchedPlansReused), step.plans_reused)
        << step.add << step.retract;
  }
  // Without game(mv1) no winning(mv1) atom survives.
  Engine::WfsAnswer last = engine.SolveWellFounded();
  for (TermId atom : last.model.TrueAtoms()) {
    EXPECT_EQ(engine.store().ToString(atom).find("winning(mv1)"),
              std::string::npos);
  }
  EXPECT_EQ(engine.scheduler_cache().size(), 4u);
}

// Satellite: Engine::Analyze counts where each Figure 1 verdict came
// from, exactly one counter per call. On game.hl the engine's own solve
// decides, and the SolveWellFounded after it replays every component; a
// ground win chain ending in a self-loop is not locally stratified and
// Example 6.5 has an instance head Figure 1 settles early, so both go to
// the literal procedure.
TEST(EngineMetricsTest, ModularVerdictCountersAreExact) {
  const std::string game =
      "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).\n"
      "game(move1).\ngame(move2).\n"
      "move1(a,b).\nmove1(b,c).\n"
      "move2(x,y).\nmove2(y,z).\nmove2(x,z).\n";
  {
    Engine engine;
    ASSERT_EQ(engine.Load(game), "");
    AnalysisReport report = engine.Analyze();
    EXPECT_TRUE(report.modularly_stratified) << report.modular_reason;
    const obs::MetricsRegistry& m = engine.metrics();
    EXPECT_EQ(m.value(obs::Counter::kModularFromSolve), 1u);
    EXPECT_EQ(m.value(obs::Counter::kModularLiteralRuns), 0u);
    // The verify recipe's game.hl counters, earned inside Analyze.
    EXPECT_EQ(m.value(obs::Counter::kSchedComponents), 5u);
    EXPECT_EQ(m.value(obs::Counter::kSchedAtomSccs), 13u);
    EXPECT_EQ(m.value(obs::Counter::kGroundInstances), 12u);
    EXPECT_EQ(m.value(obs::Counter::kSchedPlansBuilt), 1u);
    EXPECT_EQ(m.phase(obs::Phase::kAnalyze).calls, 1u);
    EXPECT_EQ(m.phase(obs::Phase::kSolveWfs).calls, 1u);
    ASSERT_TRUE(engine.SolveWellFounded().ok);
    EXPECT_EQ(m.value(obs::Counter::kSchedComponents), 5u);
    EXPECT_EQ(m.value(obs::Counter::kSchedComponentsReused), 5u);
    EXPECT_EQ(m.value(obs::Counter::kSchedPlansReused), 1u);
    EXPECT_EQ(m.value(obs::Counter::kGroundInstances), 12u);
    EXPECT_EQ(m.phase(obs::Phase::kSolveWfs).calls, 2u);
  }
  struct Case {
    std::string text;
    bool accepted;
    uint64_t from_solve;
    uint64_t literal_runs;
  };
  const Case cases[] = {
      {GroundWinChain(8), true, 1, 0},
      {GroundWinChain(8) + "w(n8) :- m(n8,n8), ~w(n8).\nm(n8,n8).\n", false,
       0, 1},
      {"winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).\n"
       "game(move1).\ngame(move2).\n"
       "q(move1(a,b)).\nq(move1(b,c)).\nmove2(x,y).\n"
       "p(X) :- q(X).\nX :- p(X).\n",
       false, 0, 1},
  };
  for (const Case& c : cases) {
    Engine engine;
    ASSERT_EQ(engine.Load(c.text), "");
    EXPECT_EQ(engine.Analyze().modularly_stratified, c.accepted) << c.text;
    const obs::MetricsRegistry& m = engine.metrics();
    EXPECT_EQ(m.value(obs::Counter::kModularFromSolve), c.from_solve)
        << c.text;
    EXPECT_EQ(m.value(obs::Counter::kModularLiteralRuns), c.literal_runs)
        << c.text;
  }
}

// A layered program with `width` mutually independent chains: every
// chain contributes one component per layer, so each topological depth
// is a wave of `width` components — the shape the parallel scheduler
// batches and fans out.
std::string LayeredChains(int width, int depth) {
  std::string text;
  for (int c = 0; c < width; ++c) {
    std::string chain = std::to_string(c);
    text += "p" + chain + "_0(a). p" + chain + "_0(b).\n";
    for (int l = 1; l < depth; ++l) {
      text += "p" + chain + "_" + std::to_string(l) + "(X) :- p" + chain +
              "_" + std::to_string(l - 1) + "(X).\n";
    }
  }
  return text;
}

// The wave counters are exact: every wave solves as one batch on the
// caller's store.
TEST(EngineMetricsTest, ParallelWaveCountersAreExact) {
  const std::string text = LayeredChains(/*width=*/6, /*depth=*/4);

  Engine sequential;
  ASSERT_EQ(sequential.Load(text), "");
  Engine::WfsAnswer a = sequential.SolveWellFounded();
  ASSERT_TRUE(a.ok);

  // 4 depths x 6 chains: 4 waves of width 6, each one 6-component batch.
  const obs::MetricsRegistry& ms = sequential.metrics();
  EXPECT_EQ(ms.value(obs::Counter::kSchedParallelWaves), 4u);
  EXPECT_EQ(ms.value(obs::Counter::kSchedParallelBatchedComponents), 24u);
  EXPECT_EQ(ms.gauge(obs::Gauge::kSchedParallelMaxWaveWidth), 6u);
}

// Stratified evaluation is the engine's own well-founded solve: cold, it
// earns exactly a cold SolveWellFounded's sched.* and ground counters,
// and after SolveWellFounded it replays every component (and vice versa).
TEST(EngineMetricsTest, StratifiedSolveIsTheWellFoundedSolve) {
  const std::string text = LayeredChains(/*width=*/3, /*depth=*/3) +
                           "q(a).\nr(X) :- p0_2(X), ~q(X).\n";
  Engine wfs_first;
  Engine stratified_first;
  ASSERT_EQ(wfs_first.Load(text), "");
  ASSERT_EQ(stratified_first.Load(text), "");
  ASSERT_TRUE(wfs_first.SolveWellFounded().ok);
  StratifiedEvalResult cold = stratified_first.SolveStratified();
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.facts.size(), 3u * 3u * 2u + 1u + 1u);

  const obs::MetricsRegistry& mw = wfs_first.metrics();
  const obs::MetricsRegistry& ms = stratified_first.metrics();
  // 9 chain components, q and r.
  EXPECT_EQ(ms.value(obs::Counter::kSchedComponents), 11u);
  EXPECT_EQ(ms.value(obs::Counter::kSchedComponentsReused), 0u);
  EXPECT_EQ(ms.value(obs::Counter::kGroundInstances), 21u);
  EXPECT_EQ(ms.value(obs::Counter::kSchedPlansBuilt), 1u);
  for (size_t c = 0; c < static_cast<size_t>(obs::Counter::kCount); ++c) {
    const auto counter = static_cast<obs::Counter>(c);
    const std::string name = obs::CounterName(counter);
    if (name.rfind("sched.", 0) != 0) continue;
    EXPECT_EQ(ms.value(counter), mw.value(counter)) << name;
  }
  EXPECT_EQ(ms.value(obs::Counter::kGroundInstances),
            mw.value(obs::Counter::kGroundInstances));
  EXPECT_EQ(ms.phase(obs::Phase::kSolveStratified).calls, 1u);
  EXPECT_EQ(ms.phase(obs::Phase::kGround).calls,
            mw.phase(obs::Phase::kGround).calls);

  // The second solve on each engine replays all 11 components.
  ASSERT_TRUE(wfs_first.SolveStratified().ok);
  ASSERT_TRUE(stratified_first.SolveWellFounded().ok);
  for (const obs::MetricsRegistry* m : {&mw, &ms}) {
    EXPECT_EQ(m->value(obs::Counter::kSchedComponents), 11u);
    EXPECT_EQ(m->value(obs::Counter::kSchedComponentsReused), 11u);
    EXPECT_EQ(m->value(obs::Counter::kSchedPlansReused), 1u);
    EXPECT_EQ(m->value(obs::Counter::kGroundInstances), 21u);
  }
}

TEST(EngineMetricsTest, WinChainExactMagicQueryCounters) {
  Engine engine;
  ASSERT_EQ(engine.Load(GroundWinChain(8)), "");
  ASSERT_TRUE(engine.SolveWellFounded().ok);
  engine.metrics().Reset();

  Engine::QueryAnswer answer = engine.Query("w(n1)");
  ASSERT_TRUE(answer.ok) << answer.error;
  EXPECT_EQ(answer.answers.size(), 1u);  // w(n1) is well-founded true.

  const obs::MetricsRegistry& m = engine.metrics();
  EXPECT_EQ(m.value(obs::Counter::kQueries), 1u);
  // Magic rewriting seeds w(n1) and walks the chain upward only:
  // magic facts for w(n1..n8) plus the seed's adornment.
  EXPECT_EQ(m.value(obs::Counter::kMagicFacts), 9u);
  EXPECT_EQ(m.value(obs::Counter::kMagicFactsDerived), 50u);
  EXPECT_EQ(m.value(obs::Counter::kMagicBoxFirings), 4u);
  // The query must not re-run the full WFS computation.
  EXPECT_EQ(m.value(obs::Counter::kWfsRounds), 0u);
}

TEST(EngineMetricsTest, CountersAreDeterministicAcrossRuns) {
  auto run = [] {
    Engine engine;
    EXPECT_EQ(engine.Load(GroundWinChain(8)), "");
    EXPECT_TRUE(engine.SolveWellFounded().ok);
    EXPECT_TRUE(engine.Query("w(n0)").ok);
    // Phase timers are wall-clock; only counters and gauges are
    // deterministic, so compare the JSON up to the "phases" section.
    std::string json = engine.metrics().ToJson();
    return json.substr(0, json.find("\"phases\""));
  };
  EXPECT_EQ(run(), run());
}

// Satellite: disabled instrumentation must not change any answer.
TEST(EngineMetricsTest, DisabledMetricsYieldIdenticalAnswers) {
  EngineOptions off;
  off.metrics_enabled = false;
  EngineOptions on;
  on.trace_capacity = 1024;
  Engine plain(off);
  Engine instrumented(on);  // metrics on + a trace buffer

  const std::string text = GroundWinChain(8);
  ASSERT_EQ(plain.Load(text), "");
  ASSERT_EQ(instrumented.Load(text), "");

  Engine::WfsAnswer a = plain.SolveWellFounded();
  Engine::WfsAnswer b = instrumented.SolveWellFounded();
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.ground_rules, b.ground_rules);
  for (int i = 0; i <= 8; ++i) {
    std::string atom = "w(n" + std::to_string(i) + ")";
    TermId pa = *ParseTerm(plain.store(), atom);
    TermId pb = *ParseTerm(instrumented.store(), atom);
    EXPECT_EQ(a.model.Value(pa), b.model.Value(pb)) << atom;
  }

  Engine::QueryAnswer qa = plain.Query("w(n1)");
  Engine::QueryAnswer qb = instrumented.Query("w(n1)");
  ASSERT_TRUE(qa.ok);
  ASSERT_TRUE(qb.ok);
  EXPECT_EQ(qa.answers.size(), qb.answers.size());
  EXPECT_EQ(qa.ground_status, qb.ground_status);

  // With metrics disabled nothing was recorded at all.
  EXPECT_EQ(plain.metrics().value(obs::Counter::kWfsRounds), 0u);
  EXPECT_EQ(plain.metrics().value(obs::Counter::kTermsInterned), 0u);
  EXPECT_EQ(plain.metrics().phase(obs::Phase::kSolveWfs).calls, 0u);
  // The instrumented twin recorded the same exact values as always.
  EXPECT_EQ(instrumented.metrics().value(obs::Counter::kSchedAtomSccs), 17u);
  ASSERT_NE(instrumented.trace(), nullptr);
  EXPECT_GT(instrumented.trace()->Snapshot().size(), 0u);
}

}  // namespace
}  // namespace hilog
