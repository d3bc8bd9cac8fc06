// Tests for the Engine facade.

#include "src/core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace hilog {
namespace {

TEST(EngineTest, LoadReportsParseErrors) {
  Engine engine;
  EXPECT_EQ(engine.Load("p :- q."), "");
  EXPECT_NE(engine.Load("p :- ."), "");
  // A failed Load leaves the engine usable.
  EXPECT_EQ(engine.Load("p :- q. q."), "");
  EXPECT_EQ(engine.program().size(), 2u);
}

TEST(EngineTest, LoadMoreAppends) {
  Engine engine;
  ASSERT_EQ(engine.Load("p :- q."), "");
  ASSERT_EQ(engine.LoadMore("q."), "");
  EXPECT_EQ(engine.program().size(), 2u);
}

TEST(EngineTest, AnalyzeClassifiesTheGameProgram) {
  Engine engine;
  ASSERT_EQ(engine.Load(
                "winning(M,X) :- game(M), M(X,Y), ~winning(M,Y)."
                "game(mv). mv(a,b). mv(b,c)."),
            "");
  AnalysisReport report = engine.Analyze();
  EXPECT_FALSE(report.normal);  // mv is used as both predicate and value.
  EXPECT_TRUE(report.range_restricted);
  EXPECT_TRUE(report.strongly_range_restricted);
  EXPECT_TRUE(report.datahilog);
  EXPECT_FALSE(report.stratified);
  EXPECT_FALSE(report.flounders);
  EXPECT_TRUE(report.modularly_stratified) << report.modular_reason;
  EXPECT_GT(report.datahilog_atom_bound, 0u);
}

TEST(EngineTest, AnalyzeNormalProgram) {
  Engine engine;
  ASSERT_EQ(engine.Load("p(X) :- q(X), ~r(X). q(a). r(b)."), "");
  AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.normal);
  EXPECT_TRUE(report.normal_range_restricted);
  EXPECT_TRUE(report.stratified);
  EXPECT_TRUE(report.modularly_stratified);
}

TEST(EngineTest, SolveWellFoundedPicksRelevanceGrounder) {
  Engine engine;
  ASSERT_EQ(engine.Load(
                "w(X) :- m(X,Y), ~w(Y). m(1,2). m(2,3)."),
            "");
  Engine::WfsAnswer answer = engine.SolveWellFounded();
  ASSERT_TRUE(answer.ok) << answer.notes;
  EXPECT_EQ(answer.grounder, GrounderKind::kRelevance);
  EXPECT_TRUE(answer.exact);
  TermId w2 = *ParseTerm(engine.store(), "w(2)");
  TermId w3 = *ParseTerm(engine.store(), "w(3)");
  EXPECT_EQ(answer.model.Value(w2), TruthValue::kTrue);
  EXPECT_EQ(answer.model.Value(w3), TruthValue::kFalse);
}

TEST(EngineTest, SolveWellFoundedFallsBackToHerbrand) {
  Engine engine;
  // Example 4.1: not range restricted; needs the bounded Herbrand path.
  ASSERT_EQ(engine.Load("p :- ~q(X). q(a)."), "");
  Engine::WfsAnswer answer = engine.SolveWellFounded();
  ASSERT_TRUE(answer.ok);
  EXPECT_EQ(answer.grounder, GrounderKind::kHerbrand);
  EXPECT_FALSE(answer.exact);
  TermId p = *ParseTerm(engine.store(), "p");
  EXPECT_EQ(answer.model.Value(p), TruthValue::kTrue);
}

TEST(EngineTest, HerbrandGroundingWithoutAggregateRulesIsRefused) {
  Engine engine;
  // Not range restricted (p's X is unbound), so the Herbrand path; its
  // aggregate rule cannot be instantiated over the universe, and the
  // grounding without it would be partial.
  ASSERT_EQ(engine.Load("p :- ~q(X). q(a). n(N) :- N = count(X, q(X))."),
            "");
  Engine::WfsAnswer answer = engine.SolveWellFounded();
  EXPECT_FALSE(answer.ok);
  EXPECT_EQ(answer.grounder, GrounderKind::kHerbrand);
  EXPECT_NE(answer.notes.find("aggregate/builtin"), std::string::npos)
      << answer.notes;
  StableModelsResult stable = engine.SolveStable();
  EXPECT_FALSE(stable.complete);
  EXPECT_TRUE(stable.models.empty());
  EXPECT_EQ(stable.reason, answer.notes);
}

// A relevance solve that a budget truncates has no stable models to
// enumerate: SolveStable refuses with SolveWellFounded's note instead of
// presenting the truncated model as a complete enumeration, whether it
// solves cold or replays the components a truncated SolveWellFounded
// cached; and a replayed solve stays inexact.
TEST(EngineTest, SolveStableRefusesATruncatedRelevanceSolve) {
  std::string text = "t(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), e(Y,Z).\n";
  for (int i = 0; i < 12; ++i) {
    text += "e(n" + std::to_string(i) + ",n" + std::to_string(i + 1) + ").\n";
  }
  EngineOptions options;
  options.bottomup.max_facts = 10;
  for (bool wfs_first : {true, false}) {
    SCOPED_TRACE(wfs_first ? "SolveWellFounded first" : "cold");
    Engine engine(options);
    ASSERT_EQ(engine.Load(text), "");
    if (wfs_first) {
      Engine::WfsAnswer wfs = engine.SolveWellFounded();
      ASSERT_TRUE(wfs.ok);
      EXPECT_FALSE(wfs.exact);
      EXPECT_EQ(wfs.notes, "envelope truncated");
    }
    StableModelsResult stable = engine.SolveStable();
    EXPECT_FALSE(stable.complete);
    EXPECT_TRUE(stable.models.empty());
    EXPECT_EQ(stable.reason, "envelope truncated");
    Engine::WfsAnswer replayed = engine.SolveWellFounded();
    EXPECT_GT(replayed.sched.components_reused, 0u);
    EXPECT_FALSE(replayed.exact);
    EXPECT_EQ(replayed.notes, "envelope truncated");
  }

  // Without the budget the one stable model has all 90 true atoms.
  Engine full;
  ASSERT_EQ(full.Load(text), "");
  StableModelsResult exact = full.SolveStable();
  EXPECT_TRUE(exact.complete);
  EXPECT_TRUE(exact.reason.empty());
  ASSERT_EQ(exact.models.size(), 1u);
  EXPECT_EQ(exact.models[0].true_atoms.size(), 12u + 78u);
}

TEST(EngineTest, SolveStable) {
  Engine engine;
  ASSERT_EQ(engine.Load("p :- ~q. q :- ~p."), "");
  StableModelsResult stable = engine.SolveStable();
  EXPECT_TRUE(stable.complete);
  EXPECT_EQ(stable.models.size(), 2u);
}

TEST(EngineTest, SolveModular) {
  Engine engine;
  ASSERT_EQ(engine.Load(
                "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y)."
                "game(mv). mv(a,b)."),
            "");
  ModularResult result = engine.SolveModular();
  ASSERT_TRUE(result.modularly_stratified) << result.reason;
  TermId wa = *ParseTerm(engine.store(), "winning(mv)(a)");
  EXPECT_TRUE(result.model.IsTrue(wa));
}

TEST(EngineTest, QueryViaMagicSets) {
  Engine engine;
  ASSERT_EQ(engine.Load(
                "w(M)(X) :- g(M), M(X,Y), ~w(M)(Y)."
                "g(m). m(a,b). m(b,c)."),
            "");
  Engine::QueryAnswer yes = engine.Query("w(m)(b)");
  ASSERT_TRUE(yes.ok) << yes.error;
  EXPECT_EQ(yes.ground_status, QueryStatus::kTrue);

  Engine::QueryAnswer no = engine.Query("w(m)(a)");
  EXPECT_EQ(no.ground_status, QueryStatus::kSettledFalse);

  Engine::QueryAnswer open = engine.Query("w(m)(X)");
  EXPECT_EQ(open.answers.size(), 1u);

  Engine::QueryAnswer bad = engine.Query("w(m)(");
  EXPECT_FALSE(bad.ok);
}

// Magic treats as EDB only the relations the fact-only rule admits: every
// rule with the name is a ground fact, and no variable-named head can
// produce it. Here X(a) :- q(X) derives game(a), which r reads.
TEST(EngineTest, QueryDerivesThroughAVariableNamedHead) {
  Engine engine;
  ASSERT_EQ(engine.Load("game(m1). q(game). X(a) :- q(X). r(Y) :- game(Y)."),
            "");
  Engine::QueryAnswer ground = engine.Query("r(a)");
  ASSERT_TRUE(ground.ok) << ground.error;
  EXPECT_EQ(ground.ground_status, QueryStatus::kTrue);
  Engine::QueryAnswer open = engine.Query("r(Y)");
  ASSERT_TRUE(open.ok) << open.error;
  std::vector<std::string> answers;
  for (TermId atom : open.answers) {
    answers.push_back(engine.store().ToString(atom));
  }
  std::sort(answers.begin(), answers.end());
  EXPECT_EQ(answers, (std::vector<std::string>{"r(a)", "r(m1)"}));
}

// A relation with a non-ground fact is not EDB: p(X) must reach the query
// as a rule, not be dropped with the ground rows.
TEST(EngineTest, QueryReadsANonGroundFact) {
  Engine engine;
  ASSERT_EQ(engine.Load("p(X). r(a). q(Y) :- r(Y), p(Y)."), "");
  Engine::QueryAnswer answer = engine.Query("q(a)");
  ASSERT_TRUE(answer.ok) << answer.error;
  EXPECT_EQ(answer.ground_status, QueryStatus::kTrue);
}

TEST(EngineTest, SolveAggregates) {
  Engine engine;
  ASSERT_EQ(engine.Load(
                "in(M,X,Y,null,N) :- assoc(M,P), P(X,Y,N)."
                "in(M,X,Y,Z,N) :- assoc(M,P), P(X,Z,Q),"
                "                 contains(M,Z,Y,R), N = Q * R."
                "contains(M,X,Y,N) :- N = sum(P, in(M,X,Y,_,P))."
                "assoc(bike, bp). bp(bicycle, wheel, 2). bp(wheel, spoke, 47)."),
            "");
  AggregateEvalResult result = engine.SolveAggregates();
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.converged);
  TermId spokes =
      *ParseTerm(engine.store(), "contains(bike,bicycle,spoke,94)");
  EXPECT_TRUE(result.facts.Contains(spokes));
}

TEST(EngineTest, ForcedGrounderAgreesWithAutomatic) {
  Engine engine;
  ASSERT_EQ(engine.Load("w(X) :- m(X,Y), ~w(Y). m(1,2). m(2,3)."), "");
  Engine::WfsAnswer rel =
      engine.SolveWellFoundedWith(GrounderKind::kRelevance);
  Engine::WfsAnswer her = engine.SolveWellFoundedWith(GrounderKind::kHerbrand);
  ASSERT_TRUE(rel.ok && her.ok);
  for (TermId atom : rel.model.atoms().atoms()) {
    EXPECT_EQ(rel.model.Value(atom), her.model.Value(atom))
        << engine.store().ToString(atom);
  }
}

}  // namespace
}  // namespace hilog
