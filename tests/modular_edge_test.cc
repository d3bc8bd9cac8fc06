// Additional edge cases for the Figure 1 machinery: deferred reduction of
// literals whose compound predicate names are only partially known,
// settling-order diagnostics, agreement of the left-to-right refinement
// with the full-edge graph on the standard families, and reduction
// corner cases.

#include <gtest/gtest.h>

#include "random_programs.h"
#include "src/analysis/modular.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"

namespace hilog {
namespace {

class ModularEdgeTest : public ::testing::Test {
 protected:
  Program P(std::string_view text) {
    ParseResult<Program> parsed = ParseProgram(store_, text);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    return *parsed;
  }
  TermId T(std::string_view text) { return *ParseTerm(store_, text); }
  TermStore store_;
};

TEST_F(ModularEdgeTest, ReductionDefersNonGroundCompoundNames) {
  // winning(move1) is settled, but the literal's name winning(M) is not
  // ground yet: it must be left alone until M is bound.
  Program p = P("top(M) :- pick(M), winning(M)(a).");
  SettledModel settled;
  settled.SettleName(T("winning(move1)"));
  settled.AddTrue(store_, T("winning(move1)(a)"));
  ReductionResult reduced = HiLogReduce(store_, p.rules, settled, 1000);
  ASSERT_EQ(reduced.rules.size(), 1u);
  EXPECT_EQ(reduced.rules[0].body.size(), 2u);

  // Once pick is settled and binds M, the same literal resolves.
  settled.SettleName(T("pick"));
  settled.AddTrue(store_, T("pick(move1)"));
  ReductionResult again =
      HiLogReduce(store_, reduced.rules, settled, 1000);
  ASSERT_EQ(again.rules.size(), 1u);
  EXPECT_TRUE(again.rules[0].IsFact());
  EXPECT_EQ(store_.ToString(again.rules[0].head), "top(move1)");
}

TEST_F(ModularEdgeTest, ReductionCascades) {
  // Resolving one settled literal grounds the next literal's name, which
  // is itself settled: the worklist must cascade within one call.
  Program p = P("out(X) :- sel(R), R(X).");
  SettledModel settled;
  settled.SettleName(T("sel"));
  settled.AddTrue(store_, T("sel(data)"));
  settled.SettleName(T("data"));
  settled.AddTrue(store_, T("data(1)"));
  settled.AddTrue(store_, T("data(2)"));
  ReductionResult reduced = HiLogReduce(store_, p.rules, settled, 1000);
  ASSERT_EQ(reduced.rules.size(), 2u);
  EXPECT_TRUE(reduced.rules[0].IsFact());
  EXPECT_TRUE(reduced.rules[1].IsFact());
}

TEST_F(ModularEdgeTest, ReductionBudgetReported) {
  Program p = P("out(X) :- big(X).");
  SettledModel settled;
  settled.SettleName(T("big"));
  for (int i = 0; i < 100; ++i) {
    settled.AddTrue(store_, T("big(" + std::to_string(i) + ")"));
  }
  ReductionResult reduced = HiLogReduce(store_, p.rules, settled, 10);
  EXPECT_TRUE(reduced.truncated);
}

TEST_F(ModularEdgeTest, SettlingOrderDiagnostics) {
  Program p = P(
      "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y)."
      "game(mv1). game(mv2). mv1(a,b). mv2(x,y).");
  ModularResult result = CheckModularHiLog(store_, p, ModularOptions());
  ASSERT_TRUE(result.modularly_stratified) << result.reason;
  ASSERT_EQ(result.settled_per_round.size(), 2u);
  // Round 1: the EDB names; round 2: both winning(mv_i) names.
  EXPECT_EQ(result.settled_per_round[0].size(), 3u);
  EXPECT_EQ(result.settled_per_round[1].size(), 2u);
  std::vector<std::string> round2;
  for (TermId t : result.settled_per_round[1]) {
    round2.push_back(store_.ToString(t));
  }
  std::sort(round2.begin(), round2.end());
  EXPECT_EQ(round2, (std::vector<std::string>{"winning(mv1)",
                                              "winning(mv2)"}));
}

TEST_F(ModularEdgeTest, LeftmostAndFullEdgesAgreeOnStandardFamilies) {
  // The magic-sets refinement (edges only to the leftmost subgoal) and
  // the full graph must agree on verdicts for well-ordered bodies.
  for (unsigned seed = 1; seed <= 15; ++seed) {
    for (bool cyclic : {false, true}) {
      TermStore store;
      std::string text = testing::RandomGameProgram(seed, cyclic);
      auto parsed = ParseProgram(store, text);
      ASSERT_TRUE(parsed.ok());
      ModularOptions full;
      ModularOptions ltr;
      ltr.leftmost_only_edges = true;
      ModularResult a = CheckModularHiLog(store, *parsed, full);
      ModularResult b = CheckModularHiLog(store, *parsed, ltr);
      EXPECT_EQ(a.modularly_stratified, b.modularly_stratified)
          << text << "\nfull: " << a.reason << "\nltr: " << b.reason;
    }
  }
}

TEST_F(ModularEdgeTest, GroundFactsOnlyProgram) {
  Program p = P("a. b(c). d(e,f).");
  ModularResult result = CheckModularHiLog(store_, p, ModularOptions());
  ASSERT_TRUE(result.modularly_stratified);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_TRUE(result.model.IsTrue(T("b(c)")));
}

TEST_F(ModularEdgeTest, TwoIndependentNegationTowers) {
  // Two disjoint towers must settle in interleaved sink batches without
  // interference.
  Program p = P(
      "a1(X) :- b1(X), ~c1(X). c1(X) :- d1(X). b1(1). d1(1)."
      "a2(X) :- b2(X), ~c2(X). c2(X) :- d2(X). b2(2). d2(9).");
  ModularResult result = CheckModularHiLog(store_, p, ModularOptions());
  ASSERT_TRUE(result.modularly_stratified) << result.reason;
  EXPECT_FALSE(result.model.IsTrue(T("a1(1)")));  // c1(1) true blocks.
  EXPECT_TRUE(result.model.IsTrue(T("a2(2)")));   // c2(2) false.
}

TEST_F(ModularEdgeTest, SharedWinChainsRejectedAtTheLoopedComponent) {
  // 64 ground win chains of 128 positions over one w/m pair, every other
  // chain ending in a self-loop (bench_modular's BM_Figure1_SharedWinChains).
  // Round 1 settles m; reducing the w rules against it resolves each ground
  // m literal by lookup, and round 2 finds w(c) :- ~w(c) in the looped
  // chains.
  std::string text;
  for (int c = 0; c < 64; ++c) {
    auto at = [&](int i) {
      return "c" + std::to_string(c) + "_" + std::to_string(i);
    };
    const int last = c % 2 == 1 ? 128 : 127;
    for (int i = 0; i <= last; ++i) {
      const int to = i < 128 ? i + 1 : 128;
      std::string move = "m(" + at(i) + "," + at(to) + ")";
      text += "w(" + at(i) + ") :- " + move + ", ~w(" + at(to) + ").\n";
      text += move + ".\n";
    }
  }
  Program p = P(text);
  ModularResult result = CheckModularHiLog(store_, p, ModularOptions());
  EXPECT_FALSE(result.modularly_stratified);
  EXPECT_EQ(result.reason, "reduced component is not locally stratified");
  EXPECT_EQ(result.rounds, 2u);
  ASSERT_EQ(result.settled_per_round.size(), 1u);
  EXPECT_EQ(result.settled_per_round[0], std::vector<TermId>{T("m")});
}

TEST_F(ModularEdgeTest, ReductionResolvesGroundSettledLiteralsByLookup) {
  // A ground positive literal on a settled name is true or false outright:
  // true drops the literal, false deletes the rule.
  Program p = P("a :- e(1,2), ~b. c :- e(2,3). d(X) :- e(X,2).");
  SettledModel settled;
  settled.SettleName(T("e"));
  settled.AddTrue(store_, T("e(1,2)"));
  ReductionResult reduced = HiLogReduce(store_, p.rules, settled, 1000);
  ASSERT_EQ(reduced.rules.size(), 2u);
  EXPECT_EQ(RuleToString(store_, reduced.rules[0]), "a :- ~b.");
  EXPECT_EQ(RuleToString(store_, reduced.rules[1]), "d(1).");
}

TEST_F(ModularEdgeTest, SettledModelLookups) {
  SettledModel settled;
  EXPECT_FALSE(settled.IsSettledName(T("p")));
  settled.SettleName(T("p"));
  EXPECT_TRUE(settled.IsSettledName(T("p")));
  EXPECT_FALSE(settled.IsTrue(T("p(a)")));
  settled.AddTrue(store_, T("p(a)"));
  EXPECT_TRUE(settled.IsTrue(T("p(a)")));
  EXPECT_FALSE(settled.IsTrue(T("p(b)")));
  // Compound names are first-class keys.
  settled.SettleName(T("winning(mv)"));
  EXPECT_TRUE(settled.IsSettledName(T("winning(mv)")));
  EXPECT_FALSE(settled.IsSettledName(T("winning(other)")));
}

}  // namespace
}  // namespace hilog
