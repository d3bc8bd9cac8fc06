// Tests for the stratified (iterated least-fixpoint / perfect-model)
// evaluator, and its agreement with the well-founded semantics on
// stratified programs — the classic result the paper builds on ("a
// stratified program has a well defined semantics given by the Herbrand
// model constructed by taking least fixpoints at successively higher
// levels", Section 1). Stratified evaluation is the true part of the
// engine's own well-founded solve, so the engine-level tests pin the
// fact sequence, not just the set.

#include "src/eval/stratified.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/workloads.h"
#include "random_programs.h"
#include "src/core/engine.h"
#include "src/eval/cancel.h"
#include "src/ground/grounder.h"
#include "src/lang/parser.h"
#include "src/wfs/alternating.h"

namespace hilog {
namespace {

class StratifiedEvalTest : public ::testing::Test {
 protected:
  Program P(std::string_view text) {
    ParseResult<Program> parsed = ParseProgram(store_, text);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    return *parsed;
  }
  TermId T(std::string_view text) { return *ParseTerm(store_, text); }
  TermStore store_;
};

TEST_F(StratifiedEvalTest, TwoStrata) {
  Program p = P("q(a). q(b). r(a). p(X) :- q(X), ~r(X).");
  StratifiedEvalResult result =
      EvaluateStratified(store_, p, BottomUpOptions());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.strata, 2u);
  EXPECT_TRUE(result.facts.Contains(T("p(b)")));
  EXPECT_FALSE(result.facts.Contains(T("p(a)")));
}

TEST_F(StratifiedEvalTest, RecursionWithinStratum) {
  Program p = P(
      "e(1,2). e(2,3). e(3,4). blocked(3)."
      "reach(1)."
      "reach(Y) :- reach(X), e(X,Y), ~blocked(Y).");
  StratifiedEvalResult result =
      EvaluateStratified(store_, p, BottomUpOptions());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.facts.Contains(T("reach(2)")));
  EXPECT_FALSE(result.facts.Contains(T("reach(3)")));
  EXPECT_FALSE(result.facts.Contains(T("reach(4)")));
}

TEST_F(StratifiedEvalTest, ThreeStrataChain) {
  Program p = P(
      "base(1). base(2). base(3)."
      "bad(2)."
      "good(X) :- base(X), ~bad(X)."
      "best(X) :- good(X), ~worst(X)."
      "worst(3).");
  StratifiedEvalResult result =
      EvaluateStratified(store_, p, BottomUpOptions());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.facts.Contains(T("best(1)")));
  EXPECT_FALSE(result.facts.Contains(T("best(2)")));
  EXPECT_FALSE(result.facts.Contains(T("best(3)")));
}

TEST_F(StratifiedEvalTest, RejectsUnstratified) {
  Program p = P("w(X) :- m(X,Y), ~w(Y). m(a,b).");
  StratifiedEvalResult result =
      EvaluateStratified(store_, p, BottomUpOptions());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("not stratified"), std::string::npos);
}

TEST_F(StratifiedEvalTest, RejectsUnsafePrograms) {
  Program p = P("p(X) :- ~q(X). q(a).");
  StratifiedEvalResult result =
      EvaluateStratified(store_, p, BottomUpOptions());
  EXPECT_FALSE(result.ok);
}

TEST_F(StratifiedEvalTest, RejectsVariableHeadNamesUnderNegation) {
  Program p = P("X(b) :- p(X), ~q(b). p(r). q(a).");
  StratifiedEvalResult result =
      EvaluateStratified(store_, p, BottomUpOptions());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("head predicate name"), std::string::npos);
}

TEST_F(StratifiedEvalTest, HiLogPositiveProgramsAllowed) {
  // Without negation, variable-named heads are fine (pure least model).
  Program p = P(
      "graph(e). e(1,2). e(2,3)."
      "tc(G,X,Y) :- graph(G), G(X,Y)."
      "tc(G,X,Y) :- graph(G), G(X,Z), tc(G,Z,Y).");
  StratifiedEvalResult result =
      EvaluateStratified(store_, p, BottomUpOptions());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.facts.Contains(T("tc(e,1,3)")));
}

class StratifiedAgreementTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(StratifiedAgreementTest, MatchesWellFoundedModel) {
  TermStore store;
  // Filter the random programs down to stratified, safe ones.
  std::string text =
      hilog::testing::RandomRangeRestrictedNormalProgram(GetParam());
  auto parsed = ParseProgram(store, text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  StratifiedEvalResult stratified =
      EvaluateStratified(store, *parsed, BottomUpOptions());
  if (!stratified.ok) return;  // Not stratified: nothing to compare.

  RelevanceGroundingResult ground =
      GroundWithRelevance(store, *parsed, BottomUpOptions());
  ASSERT_TRUE(ground.ok) << ground.error;
  WfsResult wfs = ComputeWfsAlternating(ground.program);
  EXPECT_TRUE(wfs.model.IsTotal()) << text;
  for (TermId atom : wfs.model.TrueAtoms()) {
    EXPECT_TRUE(stratified.facts.Contains(atom))
        << text << "\n" << store.ToString(atom);
  }
  for (TermId atom : stratified.facts.facts()) {
    EXPECT_TRUE(wfs.model.IsTrue(atom))
        << text << "\n" << store.ToString(atom);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StratifiedAgreementTest,
                         ::testing::Range(1u, 41u));

std::vector<std::string> Render(const TermStore& store,
                                const std::vector<TermId>& atoms) {
  std::vector<std::string> out;
  for (TermId atom : atoms) out.push_back(store.ToString(atom));
  return out;
}

// Solves `text` on one engine in both call orders (stratified first,
// then well-founded first), and checks that the stratified facts are the
// well-founded model's true atoms in the same sequence and that the model
// is total. Returns false when the program is not admitted to stratified
// evaluation.
bool ExpectStratifiedIsWfsTruePart(const std::string& text) {
  bool admitted = false;
  for (bool stratified_first : {true, false}) {
    Engine engine;
    EXPECT_EQ(engine.Load(text), "");
    StratifiedEvalResult stratified;
    Engine::WfsAnswer wfs;
    if (stratified_first) {
      stratified = engine.SolveStratified();
      wfs = engine.SolveWellFounded();
    } else {
      wfs = engine.SolveWellFounded();
      stratified = engine.SolveStratified();
    }
    EXPECT_TRUE(wfs.ok) << wfs.notes;
    admitted = stratified.ok;
    if (!stratified.ok) continue;
    EXPECT_TRUE(wfs.model.IsTotal()) << text;
    EXPECT_EQ(Render(engine.store(), stratified.facts.facts()),
              Render(engine.store(), wfs.model.TrueAtoms()))
        << text << "\nstratified first " << stratified_first;
  }
  return admitted;
}

TEST(StratifiedFromSchedulerTest, RandomProgramsMatchWfsTrueAtomSequence) {
  size_t admitted = 0;
  for (unsigned seed = 1; seed <= 40; ++seed) {
    const std::string text =
        hilog::testing::RandomRangeRestrictedNormalProgram(seed);
    if (ExpectStratifiedIsWfsTruePart(text)) ++admitted;
  }
  // Enough of the seeds are stratified for the check to mean something.
  EXPECT_GE(admitted, 10u);
}

TEST(StratifiedFromSchedulerTest, PaperProgramsMatchWfsTrueAtomSequence) {
  const std::string programs[] = {
      // Example 2.1, guarded as in Example 5.3 (strongly range restricted).
      "graph(flight).\n"
      "stc(G)(X,Y) :- graph(G), G(X,Y).\n"
      "stc(G)(X,Y) :- graph(G), G(X,Z), stc(G)(Z,Y).\n"
      "flight(sfo,jfk). flight(jfk,lhr). flight(lhr,cdg).\n",
      // Section 6: the stratified rule the universal encoding breaks.
      "q(a). q(b). r(a). p(X) :- q(X), ~r(X).\n",
      // Example 3.1 without its u :- ~u loop: three strata.
      "p :- q. q :- p. r :- s, ~p. s. t :- ~r.\n",
      bench::TcProgram(16),
  };
  for (const std::string& text : programs) {
    EXPECT_TRUE(ExpectStratifiedIsWfsTruePart(text)) << text;
  }
}

TEST(StratifiedFromSchedulerTest, AfterApplyDeltaMatchesColdEngine) {
  const std::string rules =
      "t(X,Y) :- e(X,Y).\n"
      "t(X,Z) :- t(X,Y), e(Y,Z).\n"
      "near(X) :- e(n0,X).\n"
      "far(X) :- t(n0,X), ~near(X).\n"
      "iso(a).\niso2(X) :- iso(X), ~far(X).\n";
  const std::string edges = bench::ChainFacts("e", 12);
  const std::string retracted = "e(n3,n4).\n";
  const std::string added = "e(n3,n5).\ne(n12,n0).\n";
  std::string composed = rules + edges;
  composed.erase(composed.find(retracted), retracted.size());
  composed += added;
  Engine warm;
  ASSERT_EQ(warm.Load(rules + edges), "");
  ASSERT_TRUE(warm.SolveStratified().ok);
  ASSERT_EQ(warm.ApplyDelta(added, retracted), "");
  StratifiedEvalResult after = warm.SolveStratified();
  ASSERT_TRUE(after.ok) << after.error;
  // The delta's maintenance pass ran here and replayed iso/1.
  EXPECT_GT(warm.metrics().value(obs::Counter::kIncComponentsResolved), 0u);
  EXPECT_GT(warm.metrics().value(obs::Counter::kIncComponentsSkipped), 0u);

  Engine cold;
  ASSERT_EQ(cold.Load(composed), "");
  StratifiedEvalResult expected = cold.SolveStratified();
  ASSERT_TRUE(expected.ok) << expected.error;
  EXPECT_EQ(Render(warm.store(), after.facts.facts()),
            Render(cold.store(), expected.facts.facts()));
}

TEST(StratifiedFromSchedulerTest, FactBudgetBelowModelSizeIsAnError) {
  // TcProgram(16): 16 edges, 136 closure atoms and the graph fact; the
  // closure's envelope trips the budget. ChainFacts: 20 facts settle
  // without an envelope, so only the model's size can trip it.
  const std::string programs[] = {bench::TcProgram(16),
                                  bench::ChainFacts("e", 20)};
  for (const std::string& text : programs) {
    for (size_t max_facts : {size_t{10}, size_t{19}}) {
      EngineOptions options;
      options.bottomup.max_facts = max_facts;
      Engine engine(options);
      ASSERT_EQ(engine.Load(text), "");
      StratifiedEvalResult result = engine.SolveStratified();
      EXPECT_FALSE(result.ok) << max_facts << "\n" << text;
      EXPECT_FALSE(result.error.empty());
      EXPECT_EQ(result.facts.size(), 0u);

      TermStore store;
      ParseResult<Program> parsed = ParseProgram(store, text);
      ASSERT_TRUE(parsed.ok());
      StratifiedEvalResult direct =
          EvaluateStratified(store, *parsed, options.bottomup);
      EXPECT_FALSE(direct.ok);
      EXPECT_EQ(direct.facts.size(), 0u);
    }
  }
  EngineOptions exact;
  exact.bottomup.max_facts = 20;
  Engine engine(exact);
  ASSERT_EQ(engine.Load(bench::ChainFacts("e", 20)), "");
  EXPECT_TRUE(engine.SolveStratified().ok);
}

TEST(StratifiedFromSchedulerTest, CancelledSolveIsAnErrorWithItsReason) {
  Engine engine;
  ASSERT_EQ(engine.Load(bench::TcProgram(16)), "");
  CancelToken token;
  token.Cancel();
  ScopedCancelToken scope(&token);
  StratifiedEvalResult result = engine.SolveStratified();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, CancelReasonMessage(CancelReason::kCancelled));
  EXPECT_EQ(result.facts.size(), 0u);
}

}  // namespace
}  // namespace hilog
