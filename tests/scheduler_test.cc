// Tests for the SCC evaluation scheduler (src/eval/scheduler.h):
//  - per-atom-SCC settling equals the whole-program alternating fixpoint
//    on random ground programs;
//  - component-at-a-time evaluation equals monolithic relevance
//    grounding + alternating WFS on random normal and HiLog programs;
//  - HiLog name variables bound by fact-only guards instantiate into an
//    exact per-name plan with the monolithic grounding and model, and
//    unguarded names fall back to one component;
//  - the condensation splits independent predicates into components and
//    settles acyclic atoms without Gamma applications;
//  - the engine's component cache is reused across LoadMore, and a
//    service session's fork of a solved append publish replays it.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "random_programs.h"
#include "src/core/engine.h"
#include "src/eval/scheduler.h"
#include "src/ground/grounder.h"
#include "src/lang/parser.h"
#include "src/service/snapshot.h"
#include "src/wfs/wfs.h"

namespace hilog {
namespace {

// Compares two interpretations over the union of their atom tables.
// Interpretation::Value reports kFalse for atoms outside its table, which
// is exactly the WFS reading of an irrelevant atom.
void ExpectSameModel(const TermStore& store, const Interpretation& a,
                     const Interpretation& b, const std::string& text) {
  for (TermId atom : a.atoms().atoms()) {
    EXPECT_EQ(a.Value(atom), b.Value(atom))
        << text << "\natom " << store.ToString(atom);
  }
  for (TermId atom : b.atoms().atoms()) {
    EXPECT_EQ(a.Value(atom), b.Value(atom))
        << text << "\natom " << store.ToString(atom);
  }
}

// True atoms rendered to text, sorted — comparable across term stores.
std::vector<std::string> TrueAtomStrings(const TermStore& store,
                                         const Interpretation& model) {
  std::vector<std::string> out;
  for (TermId atom : model.TrueAtoms()) out.push_back(store.ToString(atom));
  std::sort(out.begin(), out.end());
  return out;
}

std::string WinChain(const std::string& move, int length) {
  std::string text;
  for (int i = 0; i < length; ++i) {
    text += move + "(n" + std::to_string(i) + ",n" + std::to_string(i + 1) +
            ").\n";
  }
  text += "win_" + move + "(X) :- " + move + "(X,Y), ~win_" + move +
          "(Y).\n";
  return text;
}

class SchedulerPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SchedulerPropertyTest, AtomSccSettlingEqualsAlternating) {
  TermStore store;
  std::string text = testing::RandomGroundProgram(GetParam());
  ParseResult<Program> parsed = ParseProgram(store, text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  GroundProgram ground;
  ASSERT_TRUE(ToGroundProgram(store, *parsed, &ground));

  SchedulerStats stats;
  WfsResult scheduled = ComputeWfsScc(ground, &stats);
  WfsResult monolithic = ComputeWfsAlternating(ground);
  ExpectSameModel(store, scheduled.model, monolithic.model, text);
  EXPECT_EQ(stats.atom_sccs, stats.trivial_sccs + stats.cyclic_sccs) << text;
}

TEST_P(SchedulerPropertyTest, ComponentEvaluationEqualsMonolithic) {
  TermStore store;
  std::string text = testing::RandomRangeRestrictedNormalProgram(GetParam());
  ParseResult<Program> parsed = ParseProgram(store, text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  BottomUpOptions options;
  ComponentWfsResult scheduled =
      SolveWfsByComponents(store, *parsed, options);
  ASSERT_TRUE(scheduled.ok) << scheduled.error;
  ASSERT_FALSE(scheduled.truncated) << text;

  RelevanceGroundingResult grounded =
      GroundWithRelevance(store, *parsed, options);
  ASSERT_TRUE(grounded.ok) << grounded.error;
  WfsResult monolithic = ComputeWfsAlternating(grounded.program);
  ExpectSameModel(store, scheduled.model, monolithic.model, text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Range(1u, 41u));

std::vector<std::string> GroundRuleStrings(const TermStore& store,
                                           const GroundProgram& ground) {
  std::vector<std::string> out;
  for (const GroundRule& rule : ground.rules) {
    std::string text = store.ToString(rule.head) + " :-";
    for (TermId a : rule.pos) text += " " + store.ToString(a);
    for (TermId a : rule.neg) text += " ~" + store.ToString(a);
    out.push_back(std::move(text));
  }
  return out;
}

// Solves `text` with the scheduler and checks it against monolithic
// relevance grounding + the alternating fixpoint: the same ground
// instances (as a multiset) and the same model. Returns the scheduler's
// component count and whether guard instantiation applied.
struct GuardedSolve {
  bool instantiated = false;
  size_t components = 0;
};

GuardedSolve ExpectScheduledMatchesMonolithic(const std::string& text) {
  TermStore store;
  ParseResult<Program> parsed = ParseProgram(store, text);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  GuardedSolve out;
  if (!parsed.ok()) return out;

  GuardedProgram plan = InstantiateGuardedNames(
      store, *parsed, *BuildFactRelations(store, *parsed));
  out.instantiated = plan.instantiated;
  if (plan.instantiated) {
    EXPECT_TRUE(CondenseProgram(store, plan.program).exact) << text;
    EXPECT_EQ(plan.identity.size(), plan.program.size()) << text;
  }

  BottomUpOptions options;
  ComponentWfsResult scheduled = SolveWfsByComponents(store, *parsed, options);
  EXPECT_TRUE(scheduled.ok) << scheduled.error;
  EXPECT_FALSE(scheduled.truncated) << text;
  out.components = scheduled.stats.components;

  RelevanceGroundingResult grounded =
      GroundWithRelevance(store, *parsed, options);
  EXPECT_TRUE(grounded.ok) << grounded.error;
  std::vector<std::string> a = GroundRuleStrings(store, scheduled.ground);
  std::vector<std::string> b = GroundRuleStrings(store, grounded.program);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b) << text;
  WfsResult monolithic = ComputeWfsAlternating(grounded.program);
  ExpectSameModel(store, scheduled.model, monolithic.model, text);
  return out;
}

// Parameterized win rules have variables in predicate names, but `game`
// is a fact-only guard binding M: the plan instantiates one rule per game,
// condenses exactly (game, each move relation, each winning(mvG)), and
// must still reproduce the monolithic grounding and model — on acyclic
// games and on games whose back edge makes positions undefined.
class GuardInstantiationPropertyTest
    : public ::testing::TestWithParam<unsigned> {};

TEST_P(GuardInstantiationPropertyTest, GamePlanIsExactAndMonolithic) {
  for (bool cyclic : {false, true}) {
    const std::string text = testing::RandomGameProgram(GetParam(), cyclic);
    GuardedSolve solve = ExpectScheduledMatchesMonolithic(text);
    EXPECT_TRUE(solve.instantiated) << text;
    // game, then one move relation and one winning name per game.
    const size_t games = text.find("game(mv1)") == std::string::npos ? 1 : 2;
    EXPECT_EQ(solve.components, 1 + 2 * games) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuardInstantiationPropertyTest,
                         ::testing::Range(1u, 41u));

TEST(GuardInstantiationTest, HiLogProgramsMatchMonolithic) {
  const std::vector<std::string> programs = {
      // Example 2.1's generic closure, guarded by graph/1.
      "tc(G)(X,Y) :- graph(G), G(X,Y).\n"
      "tc(G)(X,Y) :- graph(G), G(X,Z), tc(G)(Z,Y).\n"
      "graph(e). graph(f). e(a,b). e(b,c). f(c,a). f(a,c).\n",
      // Two guards bind the two name variables; one guard fact repeats.
      "pair(M,N)(X) :- left(M), right(N), M(X), ~N(X).\n"
      "left(p). left(q). left(p). right(q). p(a). p(b). q(b).\n",
      // A guard binding the name variable of a negated call only.
      "blocked(X) :- lock(L), item(X), ~L(X).\n"
      "lock(held). item(a). item(b). held(a).\n",
      // A guard relation with no facts at all: the rule never fires.
      "w(M)(X) :- none(M), M(X,Y), ~w(M)(Y). mv(a,b).\n",
      // The guard sits in a ground-named rule's body.
      "out(X) :- sel(R), R(X). sel(data). data(1). data(2).\n"};
  for (const std::string& text : programs) {
    GuardedSolve solve = ExpectScheduledMatchesMonolithic(text);
    EXPECT_TRUE(solve.instantiated) << text;
  }
}

// Programs the guard rule must leave monolithic: one component, same
// grounding and model as the monolithic path.
TEST(GuardInstantiationTest, UnguardedNamesFallBackToOneComponent) {
  const std::vector<std::string> programs = {
      // A rule derives the would-be guard relation.
      "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).\n"
      "game(mv0). game(mv1) :- p. p. mv0(a,b). mv1(b,c).\n",
      // A bare-variable head name matches every name, so q is no guard.
      "M(X) :- q(M,X). q(p,a). q(r,b). s(X) :- p(X), ~r(X).\n",
      // sel binds N, but nothing fact-only binds M.
      "two(M,X) :- sel(N), M(X), N(X). sel(p). p(a). q(a). q(b).\n"};
  for (const std::string& text : programs) {
    GuardedSolve solve = ExpectScheduledMatchesMonolithic(text);
    EXPECT_FALSE(solve.instantiated) << text;
    EXPECT_EQ(solve.components, 1u) << text;
  }
}

TEST(SchedulerTest, WinChainSplitsIntoComponentsWithoutGamma) {
  TermStore store;
  std::string text = WinChain("m", 8);
  ParseResult<Program> parsed = ParseProgram(store, text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  SchedulerCache cache;
  ComponentWfsResult result =
      SolveWfsByComponents(store, *parsed, BottomUpOptions(), &cache);
  ASSERT_TRUE(result.ok) << result.error;
  // One component for the edge relation, one for the win predicate.
  EXPECT_EQ(result.stats.components, 2u);
  EXPECT_EQ(result.stats.components_reused, 0u);
  // The chain is acyclic: every atom SCC is a trivial singleton, settled
  // by rule inspection with zero alternating-fixpoint rounds.
  EXPECT_GT(result.stats.atom_sccs, 0u);
  EXPECT_EQ(result.stats.cyclic_sccs, 0u);
  EXPECT_EQ(result.stats.trivial_sccs, result.stats.atom_sccs);
  EXPECT_EQ(result.stats.largest_scc, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(result.model.IsTotal());
}

TEST(SchedulerTest, CyclicNegationStillRunsMiniFixpoints) {
  TermStore store;
  std::string text = "p :- ~q.\nq :- ~p.\n";
  ParseResult<Program> parsed = ParseProgram(store, text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  ComponentWfsResult result =
      SolveWfsByComponents(store, *parsed, BottomUpOptions());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.stats.cyclic_sccs, 1u);
  EXPECT_EQ(result.stats.largest_scc, 2u);
  EXPECT_FALSE(result.model.IsTotal());  // Both atoms undefined.
}

TEST(SchedulerTest, LoadMoreReusesSettledComponents) {
  Engine engine;
  ASSERT_EQ(engine.Load(WinChain("m", 6)), "");
  Engine::WfsAnswer first = engine.SolveWellFounded();
  ASSERT_TRUE(first.ok) << first.notes;
  EXPECT_GT(engine.scheduler_cache().size(), 0u);
  EXPECT_EQ(engine.metrics().value(obs::Counter::kSchedComponentsReused), 0u);

  // Append an independent chain: the first chain's components are
  // untouched and must be served from the cache.
  ASSERT_EQ(engine.LoadMore(WinChain("k", 6)), "");
  Engine::WfsAnswer second = engine.SolveWellFounded();
  ASSERT_TRUE(second.ok) << second.notes;
  EXPECT_GE(engine.metrics().value(obs::Counter::kSchedComponentsReused), 2u);

  // Byte-identical to a cold engine that loaded everything at once.
  Engine cold;
  ASSERT_EQ(cold.Load(WinChain("m", 6) + WinChain("k", 6)), "");
  Engine::WfsAnswer reference = cold.SolveWellFounded();
  ASSERT_TRUE(reference.ok) << reference.notes;
  EXPECT_EQ(TrueAtomStrings(engine.store(), second.model),
            TrueAtomStrings(cold.store(), reference.model));
}

TEST(SchedulerTest, LoadInvalidatesTheComponentCache) {
  Engine engine;
  ASSERT_EQ(engine.Load(WinChain("m", 4)), "");
  ASSERT_TRUE(engine.SolveWellFounded().ok);
  EXPECT_GT(engine.scheduler_cache().size(), 0u);
  ASSERT_EQ(engine.Load(WinChain("k", 4)), "");
  EXPECT_EQ(engine.scheduler_cache().size(), 0u);
}

// An append publish forks the previous prototype, so its publish-time
// solve re-solves only the appended chain. A session then forks the solved
// prototype: its first solve builds no plan, replays every component, and
// agrees with a cold load of the served text.
TEST(SchedulerTest, SessionForkReplaysSolvedAppend) {
  service::SnapshotStore snapshots;
  ASSERT_EQ(snapshots.Publish(WinChain("m", 6), /*append=*/false,
                              /*solve_wfs=*/true),
            "");
  service::EngineSession session;
  session.Materialize(*snapshots.Current());

  ASSERT_EQ(snapshots.Publish(WinChain("k", 6), /*append=*/true,
                              /*solve_wfs=*/true),
            "");
  ASSERT_TRUE(snapshots.Current()->seeded());
  session.Materialize(*snapshots.Current());
  EXPECT_EQ(session.epoch(), snapshots.epoch());
  Engine::WfsAnswer answer = session.engine().SolveWellFounded();
  ASSERT_TRUE(answer.ok) << answer.notes;
  EXPECT_EQ(session.engine().metrics().value(obs::Counter::kSchedPlansBuilt),
            0u);
  EXPECT_EQ(answer.sched.components, 0u);

  Engine cold;
  ASSERT_EQ(cold.Load(snapshots.Current()->program_text()), "");
  Engine::WfsAnswer reference = cold.SolveWellFounded();
  ASSERT_TRUE(reference.ok) << reference.notes;
  EXPECT_GT(reference.sched.components, 0u);
  EXPECT_EQ(answer.sched.components_reused, reference.sched.components);
  EXPECT_EQ(TrueAtomStrings(session.engine().store(), answer.model),
            TrueAtomStrings(cold.store(), reference.model));
}

}  // namespace
}  // namespace hilog
