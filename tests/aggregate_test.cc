// Tests for Section 6's parts-explosion aggregation: recursion through
// sum, modularly stratified over an acyclic subpart hierarchy, written
// once generically in HiLog (one `assoc`-dispatched program for all part
// relations).

#include "src/eval/aggregate.h"

#include <gtest/gtest.h>

#include "src/lang/parser.h"

namespace hilog {
namespace {

class AggregateTest : public ::testing::Test {
 protected:
  Program P(std::string_view text) {
    ParseResult<Program> parsed = ParseProgram(store_, text);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    return *parsed;
  }
  TermId T(std::string_view text) { return *ParseTerm(store_, text); }

  // The paper's parts-explosion program (Section 6), with `assoc` mapping
  // machine names to their part relations.
  static constexpr const char* kPartsProgram =
      "in(Mach,X,Y,null,N) :- assoc(Mach,Part), Part(X,Y,N).\n"
      "in(Mach,X,Y,Z,N) :- assoc(Mach,Part), Part(X,Z,P),\n"
      "                    contains(Mach,Z,Y,M), N = P * M.\n"
      "contains(Mach,X,Y,N) :- N = sum(P, in(Mach,X,Y,_,P)).\n";

  TermStore store_;
};

// The paper's numbers: a bicycle has 2 wheels, each wheel has 47 spokes,
// so a bicycle has 94 spokes.
TEST_F(AggregateTest, BicycleSpokes) {
  Program p = P(std::string(kPartsProgram) +
                "assoc(bike, bikeparts).\n"
                "bikeparts(bicycle, wheel, 2).\n"
                "bikeparts(wheel, spoke, 47).\n");
  AggregateEvalResult result =
      EvaluateWithAggregates(store_, p, AggregateEvalOptions());
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.facts.Contains(T("contains(bike,bicycle,spoke,94)")));
  EXPECT_TRUE(result.facts.Contains(T("contains(bike,bicycle,wheel,2)")));
  EXPECT_TRUE(result.facts.Contains(T("contains(bike,wheel,spoke,47)")));
}

// Multiple immediate-subpart paths must be summed: x has 2 y directly and
// contains y via z as well (3 z, each with 4 y): 2 + 12 = 14.
TEST_F(AggregateTest, DiamondPathsSum) {
  Program p = P(std::string(kPartsProgram) +
                "assoc(m, parts).\n"
                "parts(x, y, 2).\n"
                "parts(x, z, 3).\n"
                "parts(z, y, 4).\n");
  AggregateEvalResult result =
      EvaluateWithAggregates(store_, p, AggregateEvalOptions());
  ASSERT_TRUE(result.error.empty());
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.facts.Contains(T("contains(m,x,y,14)")));
  EXPECT_TRUE(result.facts.Contains(T("contains(m,x,z,3)")));
}

// The HiLog selling point: one program serves several machines, each with
// its own part relation, selected through `assoc`.
TEST_F(AggregateTest, MultipleMachinesShareTheProgram) {
  Program p = P(std::string(kPartsProgram) +
                "assoc(m1, parts1). assoc(m2, parts2).\n"
                "parts1(a, b, 2). parts1(b, c, 3).\n"
                "parts2(a, b, 10).\n");
  AggregateEvalResult result =
      EvaluateWithAggregates(store_, p, AggregateEvalOptions());
  ASSERT_TRUE(result.error.empty());
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.facts.Contains(T("contains(m1,a,c,6)")));
  EXPECT_TRUE(result.facts.Contains(T("contains(m2,a,b,10)")));
  // Machines do not leak into each other.
  EXPECT_FALSE(result.facts.Contains(T("contains(m2,a,c,6)")));
}

// Machines sharing a part hierarchy (the paper's argument for `assoc`
// over an extra argument: hierarchies are represented once).
TEST_F(AggregateTest, SharedHierarchy) {
  Program p = P(std::string(kPartsProgram) +
                "assoc(m1, parts). assoc(m2, parts).\n"
                "parts(a, b, 5).\n");
  AggregateEvalResult result =
      EvaluateWithAggregates(store_, p, AggregateEvalOptions());
  ASSERT_TRUE(result.error.empty());
  EXPECT_TRUE(result.facts.Contains(T("contains(m1,a,b,5)")));
  EXPECT_TRUE(result.facts.Contains(T("contains(m2,a,b,5)")));
}

TEST_F(AggregateTest, DeepChainMultiplies) {
  // a -(2)-> b -(3)-> c -(5)-> d: contains(a,d) = 30; converges in a
  // number of rounds bounded by the hierarchy depth.
  Program p = P(std::string(kPartsProgram) +
                "assoc(m, parts).\n"
                "parts(a, b, 2). parts(b, c, 3). parts(c, d, 5).\n");
  AggregateEvalResult result =
      EvaluateWithAggregates(store_, p, AggregateEvalOptions());
  ASSERT_TRUE(result.error.empty());
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.facts.Contains(T("contains(m,a,d,30)")));
  EXPECT_LE(result.outer_rounds, 8u);
}

TEST_F(AggregateTest, CountMinMax) {
  Program p = P(
      "score(alice, 3). score(bob, 5). score(carol, 5).\n"
      "n(N) :- N = count(S, score(P, S)).\n"
      "lo(N) :- N = min(S, score(P, S)).\n"
      "hi(N) :- N = max(S, score(P, S)).\n"
      "total(N) :- N = sum(S, score(P, S)).\n");
  AggregateEvalResult result =
      EvaluateWithAggregates(store_, p, AggregateEvalOptions());
  ASSERT_TRUE(result.error.empty());
  EXPECT_TRUE(result.facts.Contains(T("n(3)")));
  EXPECT_TRUE(result.facts.Contains(T("lo(3)")));
  EXPECT_TRUE(result.facts.Contains(T("hi(5)")));
  EXPECT_TRUE(result.facts.Contains(T("total(13)")));
}

TEST_F(AggregateTest, GroupingByOuterVariables) {
  // Grouping is by the aggregate atom's variables that occur elsewhere in
  // the rule: per-player totals here.
  Program p = P(
      "score(alice, 3). score(alice, 4). score(bob, 5).\n"
      "player(alice). player(bob).\n"
      "total(P, N) :- player(P), N = sum(S, score(P, S)).\n");
  AggregateEvalResult result =
      EvaluateWithAggregates(store_, p, AggregateEvalOptions());
  ASSERT_TRUE(result.error.empty());
  EXPECT_TRUE(result.facts.Contains(T("total(alice,7)")));
  EXPECT_TRUE(result.facts.Contains(T("total(bob,5)")));
  EXPECT_FALSE(result.facts.Contains(T("total(alice,5)")));
}

TEST_F(AggregateTest, ArithmeticChain) {
  Program p = P(
      "base(3, 4).\n"
      "m(N) :- base(A, B), N = A * B.\n"
      "s(N) :- base(A, B), N = A + B.\n"
      "d(N) :- base(A, B), N = A - B.\n");
  AggregateEvalResult result =
      EvaluateWithAggregates(store_, p, AggregateEvalOptions());
  ASSERT_TRUE(result.error.empty());
  EXPECT_TRUE(result.facts.Contains(T("m(12)")));
  EXPECT_TRUE(result.facts.Contains(T("s(7)")));
  EXPECT_TRUE(result.facts.Contains(T("d(-1)")));
}

TEST_F(AggregateTest, NegationIsRejected) {
  Program p = P("a :- ~b.");
  AggregateEvalResult result =
      EvaluateWithAggregates(store_, p, AggregateEvalOptions());
  EXPECT_FALSE(result.error.empty());
}

// examples/programs/tc.hl: the open tc(G) rules rebind G to every
// derived name (tc(stc(flight)), tc(tc(stc(flight))), ...), so naive
// rounds would grow without end. The evaluator refuses before any round
// and names the first rule Definition 5.6 rejects.
TEST_F(AggregateTest, RejectsNonStronglyRangeRestricted) {
  Program p = P(
      "tc(G)(X,Y) :- G(X,Y).\n"
      "tc(G)(X,Y) :- G(X,Z), tc(G)(Z,Y).\n"
      "graph(flight).\n"
      "stc(G)(X,Y) :- graph(G), G(X,Y).\n"
      "stc(G)(X,Y) :- graph(G), G(X,Z), stc(G)(Z,Y).\n"
      "flight(sfo, jfk).\n"
      "flight(jfk, lhr).\n"
      "flight(lhr, cdg).\n");
  AggregateEvalResult result =
      EvaluateWithAggregates(store_, p, AggregateEvalOptions());
  EXPECT_NE(result.error.find("strongly range-restricted"),
            std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("tc(G)(X,Y) :- G(X,Y)"), std::string::npos)
      << result.error;
  EXPECT_EQ(result.outer_rounds, 0u);
  EXPECT_EQ(result.facts.size(), 0u);
}

TEST_F(AggregateTest, CyclicHierarchyDoesNotConverge) {
  // A cyclic part relation breaks modular stratification of the
  // aggregation; the evaluator must report non-convergence instead of
  // silently returning nonsense.
  Program p = P(std::string(kPartsProgram) +
                "assoc(m, parts).\n"
                "parts(a, b, 2). parts(b, a, 2).\n");
  AggregateEvalOptions options;
  options.max_outer_rounds = 30;
  AggregateEvalResult result = EvaluateWithAggregates(store_, p, options);
  EXPECT_FALSE(result.converged);
}

TEST_F(AggregateTest, EmptyGroupsProduceNoFacts) {
  Program p = P("n(N) :- N = sum(S, score(P, S)).");
  AggregateEvalResult result =
      EvaluateWithAggregates(store_, p, AggregateEvalOptions());
  ASSERT_TRUE(result.error.empty());
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.facts.size(), 0u);
}

}  // namespace
}  // namespace hilog
