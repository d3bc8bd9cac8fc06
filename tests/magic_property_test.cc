// E25: randomized agreement between query-directed magic evaluation and
// the full well-founded model, on modularly stratified (left-to-right)
// game programs — the correctness content of Section 6.1's method.

#include <gtest/gtest.h>

#include "random_programs.h"
#include "src/core/engine.h"

namespace hilog {
namespace {

class MagicPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MagicPropertyTest, MagicAgreesWithWfsOnEveryGroundAtom) {
  Engine engine;
  std::string text = testing::RandomGameProgram(GetParam(), false, 6);
  ASSERT_EQ(engine.Load(text), "");
  Engine::WfsAnswer wfs = engine.SolveWellFounded();
  ASSERT_TRUE(wfs.ok);

  // Query every winning(...) atom of the ground base and compare.
  for (TermId atom : wfs.model.atoms().atoms()) {
    if (engine.store().OutermostFunctor(atom) !=
        engine.store().MakeSymbol("winning")) {
      continue;
    }
    Engine::QueryAnswer answer =
        engine.Query(engine.store().ToString(atom));
    ASSERT_TRUE(answer.ok) << answer.error;
    TruthValue expected = wfs.model.Value(atom);
    switch (answer.ground_status) {
      case QueryStatus::kTrue:
        EXPECT_EQ(expected, TruthValue::kTrue)
            << text << "\n" << engine.store().ToString(atom);
        break;
      case QueryStatus::kSettledFalse:
        EXPECT_EQ(expected, TruthValue::kFalse)
            << text << "\n" << engine.store().ToString(atom);
        break;
      case QueryStatus::kUnsettled:
        ADD_FAILURE() << text << "\nunsettled on modularly stratified input: "
                      << engine.store().ToString(atom);
        break;
    }
  }
}

TEST_P(MagicPropertyTest, OpenQueryEnumeratesExactlyWfsTrueAtoms) {
  Engine engine;
  std::string text = testing::RandomGameProgram(GetParam() + 100, false, 5);
  ASSERT_EQ(engine.Load(text), "");
  Engine::WfsAnswer wfs = engine.SolveWellFounded();
  ASSERT_TRUE(wfs.ok);

  Engine::QueryAnswer open = engine.Query("winning(G)(X)");
  ASSERT_TRUE(open.ok) << open.error;
  std::vector<TermId> got = open.answers;
  std::sort(got.begin(), got.end());
  got.erase(std::unique(got.begin(), got.end()), got.end());

  std::vector<TermId> expected;
  TermId winning = engine.store().MakeSymbol("winning");
  for (TermId atom : wfs.model.TrueAtoms()) {
    if (engine.store().OutermostFunctor(atom) == winning) {
      expected.push_back(atom);
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected) << text;
}

TEST_P(MagicPropertyTest, QueryTouchesOnlyReachableFragment) {
  // Two disjoint games; a query about game 0 must not derive answer or
  // magic facts about game 1's positions beyond the EDB copy.
  Engine engine;
  std::string text = testing::RandomGameProgram(GetParam(), false, 6);
  if (text.find("mv1") == std::string::npos) return;  // One-game seed.
  ASSERT_EQ(engine.Load(text), "");
  Engine::QueryAnswer answer = engine.Query("winning(mv0)(n0)");
  ASSERT_TRUE(answer.ok);
  for (TermId atom : answer.answers) {
    EXPECT_EQ(engine.store().ToString(atom).find("winning(mv1)"),
              std::string::npos)
        << engine.store().ToString(atom);
  }
}

// Variable-named heads that land on fact-bearing relations: magic must
// not read such a relation as EDB, since its facts are not all its rows.
// The programs are definite, so every ground atom over the vocabulary is
// true or settled false, as in the well-founded model.
TEST_P(MagicPropertyTest, VariableNamedHeadsAgreeWithWfs) {
  Engine engine;
  std::string text = testing::RandomVariableHeadProgram(GetParam());
  ASSERT_EQ(engine.Load(text), "");
  Engine::WfsAnswer wfs = engine.SolveWellFounded();
  ASSERT_TRUE(wfs.ok && wfs.exact) << text;
  for (const std::string& name : testing::VariableHeadProgramNames()) {
    for (const char* constant : {"a", "b", "c"}) {
      const std::string atom_text = name + "(" + constant + ")";
      Engine::QueryAnswer answer = engine.Query(atom_text);
      ASSERT_TRUE(answer.ok) << answer.error;
      TermId atom = *ParseTerm(engine.store(), atom_text);
      EXPECT_EQ(answer.ground_status,
                wfs.model.IsTrue(atom) ? QueryStatus::kTrue
                                       : QueryStatus::kSettledFalse)
          << text << atom_text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MagicPropertyTest,
                         ::testing::Range(1u, 31u));

}  // namespace
}  // namespace hilog
