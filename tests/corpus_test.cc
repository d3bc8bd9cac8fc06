// Integration corpus: every .hl program shipped under examples/programs
// must load, classify, and run through the engines appropriate to it
// without errors — guarding the shipped artifacts against library drift.

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "src/core/engine.h"

#ifndef HILOG_SOURCE_DIR
#define HILOG_SOURCE_DIR "."
#endif

namespace hilog {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::string ProgramPath(const char* name) {
  return std::string(HILOG_SOURCE_DIR) + "/examples/programs/" + name;
}

TEST(CorpusTest, GameHl) {
  Engine engine;
  ASSERT_EQ(engine.Load(ReadFile(ProgramPath("game.hl"))), "");
  AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.strongly_range_restricted);
  EXPECT_TRUE(report.modularly_stratified) << report.modular_reason;
  Engine::WfsAnswer wfs = engine.SolveWellFounded();
  ASSERT_TRUE(wfs.ok);
  EXPECT_TRUE(wfs.model.IsTotal());
  Engine::QueryAnswer q = engine.Query("winning(move1)(b)");
  EXPECT_EQ(q.ground_status, QueryStatus::kTrue);
}

TEST(CorpusTest, TcHl) {
  Engine engine;
  ASSERT_EQ(engine.Load(ReadFile(ProgramPath("tc.hl"))), "");
  AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.range_restricted);
  // The open tc rules keep it from being strongly range restricted.
  EXPECT_FALSE(report.strongly_range_restricted);
  Engine::QueryAnswer q = engine.Query("tc(flight)(sfo, X)");
  ASSERT_TRUE(q.ok);
  EXPECT_EQ(q.answers.size(), 3u);
  TabledResult tabled = engine.ProveTabled("stc(flight)(sfo, X)");
  ASSERT_TRUE(tabled.error.empty());
  EXPECT_EQ(tabled.answers.size(), 3u);
}

// tc.hl is not strongly range restricted, so its well-founded and stable
// solves take the bounded Herbrand path. Over its depth-1 universe the
// rules need about 2.3 x 10^11 instances, far over max_instances: the
// solve is refused up front, never cut off mid-rule into a silently
// partial model.
TEST(CorpusTest, TcHlHerbrandSolveIsRefusedNotPartial) {
  Engine engine;
  ASSERT_EQ(engine.Load(ReadFile(ProgramPath("tc.hl"))), "");
  Engine::WfsAnswer wfs = engine.SolveWellFounded();
  EXPECT_FALSE(wfs.ok);
  EXPECT_EQ(wfs.grounder, GrounderKind::kHerbrand);
  EXPECT_NE(wfs.notes.find("max_instances = 2000000"), std::string::npos)
      << wfs.notes;
  EXPECT_NE(wfs.notes.find("584 universe terms"), std::string::npos)
      << wfs.notes;
  EXPECT_EQ(wfs.model.atoms().size(), 0u);
  EXPECT_EQ(engine.metrics().value(obs::Counter::kGroundInstances), 0u);
  StableModelsResult stable = engine.SolveStable();
  EXPECT_FALSE(stable.complete);
  EXPECT_TRUE(stable.models.empty());
  EXPECT_EQ(stable.reason, wfs.notes);
  EXPECT_EQ(engine.metrics().value(obs::Counter::kGroundInstances), 0u);
}

TEST(CorpusTest, PartsHl) {
  Engine engine;
  ASSERT_EQ(engine.Load(ReadFile(ProgramPath("parts.hl"))), "");
  AggregateEvalResult result = engine.SolveAggregates();
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.converged);
  TermId spokes =
      *ParseTerm(engine.store(), "contains(bike,bicycle,spoke,94)");
  EXPECT_TRUE(result.facts.Contains(spokes));
  // The relevance solve refuses the aggregate rules, and stable-model
  // enumeration says so instead of reading as a budget trip.
  StableModelsResult stable = engine.SolveStable();
  EXPECT_FALSE(stable.complete);
  EXPECT_TRUE(stable.models.empty());
  EXPECT_EQ(stable.reason.rfind("aggregate/builtin literals require the "
                                "aggregate evaluator",
                                0),
            0u)
      << stable.reason;
}

TEST(CorpusTest, NegationZooHl) {
  Engine engine;
  ASSERT_EQ(engine.Load(ReadFile(ProgramPath("negation_zoo.hl"))), "");
  Engine::WfsAnswer wfs = engine.SolveWellFounded();
  ASSERT_TRUE(wfs.ok);
  TermId u = *ParseTerm(engine.store(), "u");
  TermId r = *ParseTerm(engine.store(), "r");
  EXPECT_EQ(wfs.model.Value(u), TruthValue::kUndefined);
  EXPECT_EQ(wfs.model.Value(r), TruthValue::kTrue);
  StableModelsResult stable = engine.SolveStable();
  // The u :- ~u rule kills all stable models of the combined file.
  EXPECT_TRUE(stable.models.empty());
}

}  // namespace
}  // namespace hilog
