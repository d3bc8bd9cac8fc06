// Suite for the columnar join path (FactBase key columns +
// CandidatesBatch + the kernel's register-computed probe keys):
//  - batch probes yield exactly the match sequence of a full scan of the
//    base in insertion order, frozen and non-frozen, across random HiLog
//    facts and patterns (including variable predicate names);
//  - per-column watermarks catch up after interleaved inserts;
//  - whole evaluations (semi-naive least model, component WFS, magic
//    queries, the universal call/u_i encoding) reproduce the transcripts
//    in tests/golden/column_join.txt.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "golden.h"
#include "join_transcripts.h"
#include "random_programs.h"
#include "src/eval/bottomup.h"
#include "src/eval/fact_base.h"
#include "src/lang/parser.h"
#include "src/term/unify.h"

namespace hilog {
namespace {

// The matches a candidate list produces, in candidate order.
std::vector<TermId> MatchSequence(TermStore& store, TermId pattern,
                                  std::span<const TermId> candidates) {
  std::vector<TermId> out;
  for (TermId fact : candidates) {
    Substitution subst;
    if (MatchInto(store, pattern, fact, &subst)) out.push_back(fact);
  }
  return out;
}

TEST(ColumnJoinTest, BatchProbeMatchesFullScanOnRandomFactsAndPatterns) {
  for (unsigned seed = 0; seed < 25; ++seed) {
    TermStore store;
    FactBase facts;
    for (const std::string& text : testing::RandomHiLogFacts(seed, 120)) {
      facts.Insert(store, *ParseTerm(store, text));
    }
    for (const std::string& text :
         testing::RandomHiLogPatterns(seed * 31 + 7, 40)) {
      TermId pattern = *ParseTerm(store, text);
      std::vector<TermId> want = MatchSequence(store, pattern, facts.facts());
      for (bool frozen : {false, true}) {
        std::vector<TermId> scratch;
        std::span<const TermId> batch =
            facts.CandidatesBatch(store, pattern, &scratch, frozen);
        EXPECT_EQ(MatchSequence(store, pattern, batch), want)
            << "pattern " << text << " seed " << seed << " frozen "
            << frozen;
      }
    }
  }
}

TEST(ColumnJoinTest, ColumnWatermarkCatchesUpAfterInserts) {
  // Probe (building columns), insert more facts, probe again: the column
  // extension must cover the new bucket tail, including provable-empty
  // keys that become non-empty.
  TermStore store;
  FactBase facts;
  auto T = [&](const std::string& text) { return *ParseTerm(store, text); };
  for (int i = 0; i < 40; ++i) {
    facts.Insert(store, T("e(n" + std::to_string(i) + ",n" +
                          std::to_string(i + 1) + ")"));
  }
  std::vector<TermId> scratch;
  EXPECT_EQ(facts.CandidatesBatch(store, T("e(n7,Y)"), &scratch, false).size(),
            1u);
  EXPECT_TRUE(
      facts.CandidatesBatch(store, T("e(zzz,Y)"), &scratch, false).empty());
  facts.Insert(store, T("e(zzz,n0)"));
  facts.Insert(store, T("e(n7,zzz)"));
  EXPECT_EQ(facts.CandidatesBatch(store, T("e(zzz,Y)"), &scratch, false).size(),
            1u);
  EXPECT_EQ(facts.CandidatesBatch(store, T("e(n7,Y)"), &scratch, false).size(),
            2u);
  // Sub-argument path columns catch up too (universal-style wrapping).
  FactBase wrapped;
  for (int i = 0; i < 20; ++i) {
    wrapped.Insert(store, T("call(u3(e,n" + std::to_string(i) + ",n" +
                            std::to_string(i + 1) + "))"));
  }
  EXPECT_EQ(
      wrapped.CandidatesBatch(store, T("call(u3(e,n4,Y))"), &scratch, false)
          .size(),
      1u);
  wrapped.Insert(store, T("call(u3(e,n4,extra))"));
  EXPECT_EQ(
      wrapped.CandidatesBatch(store, T("call(u3(e,n4,Y))"), &scratch, false)
          .size(),
      2u);
}

TEST(ColumnJoinTest, SemiNaiveDerivesFullClosureWithMidRoundInserts) {
  // Transitive closure inserts into `facts` while candidate spans from the
  // same base are live: the non-frozen snapshot contract keeps the join
  // sound. Chain of n edges => n(n+1)/2 closure facts.
  TermStore store;
  constexpr int n = 30;
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += "e(n" + std::to_string(i) + ",n" + std::to_string(i + 1) + ").\n";
  }
  text += "t(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), e(Y,Z).\n";
  ParseResult<Program> parsed = ParseProgram(store, text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  BottomUpResult result =
      LeastModelOfPositiveProjection(store, *parsed, BottomUpOptions());
  ASSERT_FALSE(result.truncated);
  EXPECT_EQ(result.facts.size(), n + n * (n + 1) / 2);
}

using testing::GoldenRecord;

const testing::GoldenFile& Golden() {
  static const testing::GoldenFile golden =
      testing::ReadGolden("column_join.txt");
  return golden;
}

class ColumnJoinPropertyTest : public ::testing::TestWithParam<unsigned> {
 protected:
  std::string Key(const std::string& family, const std::string& program) {
    std::string key = family + " seed=" + std::to_string(GetParam());
    return program.empty() ? key : key + " " + program;
  }
};

TEST_P(ColumnJoinPropertyTest, LeastModelMatchesGolden) {
  // Derivation *order* must match, not just the set: the scheduler's and
  // service's byte-identity guarantees ride on it.
  const std::pair<std::string, std::string> programs[] = {
      {"game", testing::RandomGameProgram(GetParam())},
      {"normal", testing::RandomRangeRestrictedNormalProgram(GetParam())},
      {"ground", testing::RandomGroundProgram(GetParam())}};
  for (const auto& [name, text] : programs) {
    EXPECT_EQ(testing::LeastModelTranscript(text),
              GoldenRecord(Golden(), Key("least_model", name)))
        << name << "\n" << text;
  }
}

TEST_P(ColumnJoinPropertyTest, UniversalEncodingMatchesGolden) {
  // The call/u_i encoding buries every joining term one level down:
  // candidates must flow through the sub-argument columns.
  const std::string text = testing::UniversalEncodingText(
      testing::RandomGameProgram(GetParam()));
  const std::string model = testing::LeastModelTranscript(text);
  EXPECT_FALSE(model.empty()) << text;
  EXPECT_EQ(model, GoldenRecord(Golden(), Key("universal", ""))) << text;
}

TEST_P(ColumnJoinPropertyTest, ComponentWfsMatchesGolden) {
  const std::pair<std::string, std::string> programs[] = {
      {"game_cyclic", testing::RandomGameProgram(GetParam(), /*cyclic=*/true)},
      {"normal", testing::RandomRangeRestrictedNormalProgram(GetParam())}};
  for (const auto& [name, text] : programs) {
    EXPECT_EQ(testing::ComponentWfsTranscript(text),
              GoldenRecord(Golden(), Key("component_wfs", name)))
        << name << "\n" << text;
  }
}

TEST_P(ColumnJoinPropertyTest, MagicQueryMatchesGolden) {
  // Answer order is part of the contract too.
  const std::string text =
      testing::RandomGameProgram(GetParam(), /*cyclic=*/true);
  EXPECT_EQ(testing::MagicQueryTranscript(text, "winning(mv0)(X)"),
            GoldenRecord(Golden(), Key("magic", "")))
      << text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnJoinPropertyTest,
                         ::testing::Range(0u, 12u));

}  // namespace
}  // namespace hilog
