// Unit tests for the fact store and the semi-naive bottom-up substrate.

#include "src/eval/fact_base.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>

#include "random_programs.h"
#include "src/eval/bottomup.h"
#include "src/lang/parser.h"
#include "src/term/unify.h"

namespace hilog {
namespace {

class FactBaseTest : public ::testing::Test {
 protected:
  TermId T(std::string_view text) { return *ParseTerm(store_, text); }
  // A non-frozen probe's candidates, copied out of the scratch buffer.
  std::vector<TermId> Probe(const FactBase& facts, std::string_view pattern) {
    std::vector<TermId> scratch;
    std::span<const TermId> candidates =
        facts.CandidatesBatch(store_, T(pattern), &scratch, /*frozen=*/false);
    return {candidates.begin(), candidates.end()};
  }
  TermStore store_;
};

TEST_F(FactBaseTest, InsertDeduplicates) {
  FactBase facts;
  EXPECT_TRUE(facts.Insert(store_, T("e(1,2)")));
  EXPECT_FALSE(facts.Insert(store_, T("e(1,2)")));
  EXPECT_TRUE(facts.Insert(store_, T("e(2,1)")));
  EXPECT_EQ(facts.size(), 2u);
  EXPECT_TRUE(facts.Contains(T("e(1,2)")));
  EXPECT_FALSE(facts.Contains(T("e(3,3)")));
}

TEST_F(FactBaseTest, NameIndexDiscriminatesCompoundNames) {
  FactBase facts;
  facts.Insert(store_, T("winning(m1)(a)"));
  facts.Insert(store_, T("winning(m2)(a)"));
  facts.Insert(store_, T("winning(m1)(b)"));
  EXPECT_EQ(facts.WithName(T("winning(m1)")).size(), 2u);
  EXPECT_EQ(facts.WithName(T("winning(m2)")).size(), 1u);
  EXPECT_TRUE(facts.WithName(T("winning(m3)")).empty());
}

TEST_F(FactBaseTest, CandidatesUseNameBucketForGroundNames) {
  FactBase facts;
  facts.Insert(store_, T("e(1,2)"));
  facts.Insert(store_, T("f(1,2)"));
  // Ground-named pattern: only the e bucket.
  EXPECT_EQ(Probe(facts, "e(X,Y)").size(), 1u);
  // Variable-named pattern: the whole store.
  EXPECT_EQ(Probe(facts, "G(X,Y)").size(), 2u);
}

TEST_F(FactBaseTest, SymbolAtomsIndexUnderThemselves) {
  FactBase facts;
  facts.Insert(store_, T("flag"));
  EXPECT_EQ(facts.WithName(T("flag")).size(), 1u);
}

TEST_F(FactBaseTest, ClearResets) {
  FactBase facts;
  facts.Insert(store_, T("e(1,2)"));
  facts.Clear();
  EXPECT_EQ(facts.size(), 0u);
  EXPECT_TRUE(facts.WithName(T("e")).empty());
}

TEST_F(FactBaseTest, EraseBatchCompactsPreservingInsertionOrder) {
  FactBase facts;
  facts.Insert(store_, T("e(1,2)"));
  facts.Insert(store_, T("e(2,3)"));
  facts.Insert(store_, T("f(1,1)"));
  facts.Insert(store_, T("e(3,4)"));
  EXPECT_EQ(facts.EraseBatch(store_, {T("e(2,3)"), T("g(9)")}), 1u);
  EXPECT_FALSE(facts.Contains(T("e(2,3)")));
  EXPECT_EQ(facts.size(), 3u);
  // Survivors keep their relative insertion order — the property the
  // byte-identity of maintained vs from-scratch EDB loads rests on.
  ASSERT_EQ(facts.facts().size(), 3u);
  EXPECT_EQ(facts.facts()[0], T("e(1,2)"));
  EXPECT_EQ(facts.facts()[1], T("f(1,1)"));
  EXPECT_EQ(facts.facts()[2], T("e(3,4)"));
  ASSERT_EQ(facts.WithName(T("e")).size(), 2u);
  EXPECT_EQ(facts.WithName(T("e"))[0], T("e(1,2)"));
  EXPECT_EQ(facts.WithName(T("e"))[1], T("e(3,4)"));
  // Re-inserting the erased fact works and lands at the end.
  EXPECT_TRUE(facts.Insert(store_, T("e(2,3)")));
  EXPECT_EQ(facts.facts().back(), T("e(2,3)"));
}

TEST_F(FactBaseTest, EraseInvalidatesKeyColumns) {
  FactBase facts;
  for (int i = 0; i < 8; ++i) {
    facts.Insert(store_, T("q(" + std::to_string(i) + ",x)"));
  }
  // Warm the first-argument key column, then erase through it.
  EXPECT_EQ(Probe(facts, "q(3,Y)").size(), 1u);
  EXPECT_TRUE(facts.Erase(store_, T("q(3,x)")));
  EXPECT_TRUE(Probe(facts, "q(3,Y)").empty());
  EXPECT_EQ(Probe(facts, "q(5,Y)").size(), 1u);
}

// Regression: the columnar key columns are append-watermarked against
// the per-name bucket. A mutation that shrinks the bucket (erase, or a
// clear-and-rebuild that lands on a shorter bucket) must not leave a
// column serving rows past the new end — stale probes here would break
// the maintained-vs-fresh byte-identity guarantee.
TEST_F(FactBaseTest, ColumnProbesStayFreshAcrossEraseAndRebuild) {
  FactBase facts;
  for (int i = 0; i < 6; ++i) {
    facts.Insert(store_, T("e(k" + std::to_string(i) + ",v)"));
  }
  std::vector<TermId> scratch;
  // CandidatesBatch returns a candidate *superset* (possibly the whole
  // bucket), so the freshness property to pin is containment: an erased
  // fact must never come back out of a probe.
  auto probe_has = [&](std::string_view pattern, TermId atom) {
    std::span<const TermId> s =
        facts.CandidatesBatch(store_, T(std::string(pattern)), &scratch,
                              /*frozen=*/false);
    return std::find(s.begin(), s.end(), atom) != s.end();
  };
  // Warm the key column with a ground first-argument probe.
  EXPECT_TRUE(probe_has("e(k3,X)", T("e(k3,v)")));
  EXPECT_EQ(facts.EraseBatch(store_, {T("e(k3,v)")}), 1u);
  EXPECT_FALSE(probe_has("e(k3,X)", T("e(k3,v)")));
  EXPECT_TRUE(probe_has("e(k4,X)", T("e(k4,v)")));
  // Appends after the erase extend the rebuilt column.
  facts.Insert(store_, T("e(k9,v)"));
  EXPECT_TRUE(probe_has("e(k9,X)", T("e(k9,v)")));
  // Clear-and-rebuild onto a shorter bucket: no stale rows survive.
  facts.Clear();
  facts.Insert(store_, T("e(k5,v)"));
  EXPECT_FALSE(probe_has("e(k3,X)", T("e(k3,v)")));
  EXPECT_FALSE(probe_has("e(k9,X)", T("e(k9,v)")));
  EXPECT_TRUE(probe_has("e(k5,X)", T("e(k5,v)")));
  EXPECT_EQ(facts.size(), 1u);
}

TEST_F(FactBaseTest, ForEachPositiveMatchEnumeratesJoins) {
  FactBase facts;
  facts.Insert(store_, T("e(1,2)"));
  facts.Insert(store_, T("e(2,3)"));
  facts.Insert(store_, T("e(3,4)"));
  auto parsed = ParseProgram(store_, "path(X,Z) :- e(X,Y), e(Y,Z).");
  ASSERT_TRUE(parsed.ok());
  size_t matches = 0;
  ForEachPositiveMatch(store_, parsed->rules[0], facts,
                       [&](const Substitution&) {
                         ++matches;
                         return true;
                       });
  EXPECT_EQ(matches, 2u);  // 1-2-3 and 2-3-4.
}

TEST_F(FactBaseTest, ForEachPositiveMatchEarlyExit) {
  FactBase facts;
  for (int i = 0; i < 10; ++i) {
    facts.Insert(store_, T("q(" + std::to_string(i) + ")"));
  }
  auto parsed = ParseProgram(store_, "p(X) :- q(X).");
  size_t matches = 0;
  bool completed = ForEachPositiveMatch(store_, parsed->rules[0], facts,
                                        [&](const Substitution&) {
                                          return ++matches < 3;
                                        });
  EXPECT_FALSE(completed);
  EXPECT_EQ(matches, 3u);
}

TEST_F(FactBaseTest, HiLogJoinThroughNameVariable) {
  // The join that makes Example 6.3 work: game(M) then M(X,Y).
  FactBase facts;
  facts.Insert(store_, T("game(mv)"));
  facts.Insert(store_, T("mv(a,b)"));
  facts.Insert(store_, T("other(c,d)"));
  auto parsed =
      ParseProgram(store_, "reach(M,X,Y) :- game(M), M(X,Y).");
  std::vector<std::string> heads;
  ForEachPositiveMatch(store_, parsed->rules[0], facts,
                       [&](const Substitution& theta) {
                         heads.push_back(store_.ToString(
                             theta.Apply(store_, parsed->rules[0].head)));
                         return true;
                       });
  EXPECT_EQ(heads, (std::vector<std::string>{"reach(mv,a,b)"}));
}

TEST_F(FactBaseTest, SemiNaiveAndNaiveAgree) {
  // Semi-naive evaluation must produce the same least model as a naive
  // reference on a diamond-shaped reachability program.
  const char* text =
      "e(1,2). e(1,3). e(2,4). e(3,4). e(4,5)."
      "r(1). r(Y) :- r(X), e(X,Y).";
  auto parsed = ParseProgram(store_, text);
  BottomUpResult result =
      LeastModelOfPositiveProjection(store_, *parsed, BottomUpOptions());
  for (int i = 1; i <= 5; ++i) {
    EXPECT_TRUE(result.facts.Contains(T("r(" + std::to_string(i) + ")")))
        << i;
  }
  EXPECT_EQ(result.facts.size(), 5u + 5u);
}

TEST_F(FactBaseTest, UnsafeRulesAreReported) {
  auto parsed = ParseProgram(store_, "p(X,Y) :- q(X). q(a).");
  BottomUpResult result =
      LeastModelOfPositiveProjection(store_, *parsed, BottomUpOptions());
  ASSERT_EQ(result.unsafe_rules.size(), 1u);
  EXPECT_EQ(result.unsafe_rules[0], 0u);
}

TEST_F(FactBaseTest, GroundPatternIsMembershipCheck) {
  FactBase facts;
  for (int i = 0; i < 20; ++i) {
    facts.Insert(store_, T("e(n" + std::to_string(i) + ",n" +
                           std::to_string(i + 1) + ")"));
  }
  // Present: exactly the one fact. Absent: empty, not the name bucket.
  EXPECT_EQ(Probe(facts, "e(n3,n4)"), (std::vector<TermId>{T("e(n3,n4)")}));
  EXPECT_TRUE(Probe(facts, "e(n4,n3)").empty());
}

TEST_F(FactBaseTest, KeyColumnsPruneBoundPositions) {
  FactBase facts;
  for (int i = 0; i < 100; ++i) {
    facts.Insert(store_, T("e(n" + std::to_string(i) + ",n" +
                           std::to_string(i + 1) + ")"));
  }
  // First argument bound: a chain node has exactly one successor.
  EXPECT_EQ(Probe(facts, "e(n42,Y)").size(), 1u);
  // Second argument bound: one predecessor.
  EXPECT_EQ(Probe(facts, "e(X,n42)").size(), 1u);
  // Nothing bound: the whole name bucket.
  EXPECT_EQ(Probe(facts, "e(X,Y)").size(), 100u);
  // A bound argument no fact carries: provably empty.
  EXPECT_TRUE(Probe(facts, "e(zzz,Y)").empty());
}

// Probed candidates must yield exactly the match sequence of a full scan
// of the base in insertion order, across compound HiLog names, nested
// arguments, and variable-name literals. This is the contract every
// evaluator's join relies on.
TEST_F(FactBaseTest, ProbedCandidatesAgreeWithFullScanOnRandomFacts) {
  for (unsigned seed = 0; seed < 25; ++seed) {
    FactBase facts;
    for (const std::string& text : testing::RandomHiLogFacts(seed, 120)) {
      facts.Insert(store_, T(text));
    }
    for (const std::string& text :
         testing::RandomHiLogPatterns(seed * 31 + 7, 40)) {
      TermId pattern = T(text);
      auto matches = [&](std::span<const TermId> candidates) {
        std::vector<TermId> out;
        for (TermId fact : candidates) {
          Substitution subst;
          if (MatchInto(store_, pattern, fact, &subst)) out.push_back(fact);
        }
        return out;
      };
      EXPECT_EQ(matches(Probe(facts, text)), matches(facts.facts()))
          << "pattern " << text << " seed " << seed;
    }
  }
}

// The join planner reorders body literals; the enumerated substitution
// multiset must not change. A deliberately badly ordered rule (the huge
// relation first, the selective guard last) exercises the reorder.
TEST_F(FactBaseTest, JoinPlannerPreservesMatchMultiset) {
  FactBase facts;
  for (int i = 0; i < 50; ++i) {
    std::string s = std::to_string(i);
    facts.Insert(store_, T("big(c" + s + ",d" + s + ")"));
  }
  facts.Insert(store_, T("sel(c7)"));
  facts.Insert(store_, T("sel(c9)"));
  auto parsed =
      ParseProgram(store_, "out(X,Y) :- big(X,Y), sel(X).");
  ASSERT_TRUE(parsed.ok());
  std::multiset<std::string> heads;
  ForEachPositiveMatch(store_, parsed->rules[0], facts,
                       [&](const Substitution& theta) {
                         heads.insert(store_.ToString(
                             theta.Apply(store_, parsed->rules[0].head)));
                         return true;
                       });
  EXPECT_EQ(heads, (std::multiset<std::string>{"out(c7,d7)", "out(c9,d9)"}));
}

}  // namespace
}  // namespace hilog
