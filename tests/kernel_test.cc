// Golden equivalence for the join-kernel executor (src/eval/kernel.h):
// every evaluator must reproduce the transcripts in
// tests/golden/kernel_equivalence.txt byte for byte — same atoms, same
// order — across delta publishes with retraction. The kernel cache must also demonstrably serve the
// second round of a semi-naive fixpoint.

#include "src/eval/kernel.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "golden.h"
#include "join_transcripts.h"
#include "random_programs.h"
#include "src/core/engine.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"

namespace hilog {
namespace {

using testing::ChainTc;
using testing::GoldenRecord;

const testing::GoldenFile& Golden() {
  static const testing::GoldenFile golden =
      testing::ReadGolden("kernel_equivalence.txt");
  return golden;
}

TEST(KernelEquivalenceTest, GroundNormalProgramsMatchGolden) {
  for (unsigned seed = 0; seed < 25; ++seed) {
    const std::string text = testing::RandomGroundProgram(seed);
    const std::string key = "ground_normal seed=" + std::to_string(seed);
    EXPECT_EQ(testing::EngineTranscript(text, {"a0", "a1"}),
              GoldenRecord(Golden(), key))
        << key << "\n" << text;
  }
}

TEST(KernelEquivalenceTest, NormalRangeRestrictedProgramsMatchGolden) {
  for (unsigned seed = 0; seed < 25; ++seed) {
    const std::string text =
        testing::RandomRangeRestrictedNormalProgram(seed);
    const std::string key =
        "normal_range_restricted seed=" + std::to_string(seed);
    EXPECT_EQ(testing::EngineTranscript(text, {"p(a)", "q(X)"}),
              GoldenRecord(Golden(), key))
        << key << "\n" << text;
  }
}

TEST(KernelEquivalenceTest, HiLogGameProgramsMatchGolden) {
  for (unsigned seed = 0; seed < 10; ++seed) {
    for (bool cyclic : {false, true}) {
      const std::string text = testing::RandomGameProgram(seed, cyclic);
      const std::string key = "hilog_game seed=" + std::to_string(seed) +
                              " cyclic=" + std::to_string(cyclic);
      EXPECT_EQ(testing::EngineTranscript(
                    text, {"winning(mv0)(X)", "winning(mv0)(n0)"}),
                GoldenRecord(Golden(), key))
          << key << "\n" << text;
    }
  }
}

TEST(KernelEquivalenceTest, TransitiveClosureWithTablingMatchesGolden) {
  EXPECT_EQ(testing::EngineTranscript(ChainTc(16), {"t(n0,X)", "t(X,n16)"},
                                      "t(n0,X)"),
            GoldenRecord(Golden(), "tc_tabling"));
}

// The universal call/u_i encoding (Section 2) buries every joining term
// inside call(...) — the workload where kernel probes must use the
// sub-argument key paths. Compare the least models fact by fact.
TEST(KernelEquivalenceTest, UniversalEncodingMatchesGolden) {
  const std::string encoded = testing::UniversalEncodingText(ChainTc(12));
  const std::string model = testing::LeastModelTranscript(encoded);
  EXPECT_EQ(model, GoldenRecord(Golden(), "universal_tc"));
  EXPECT_NE(model.find("call(u3(t,n0,n12))"), std::string::npos);
}

// Delta publishes with retraction: the maintenance solve after an
// ApplyDelta must reproduce the golden transcript byte for byte.
TEST(KernelEquivalenceTest, DeltaPublishWithRetractionMatchesGolden) {
  EXPECT_EQ(testing::DeltaPublishTranscript(),
            GoldenRecord(Golden(), "delta_publish"));
}

// The point of the variant cache: from the second semi-naive round on,
// every (rule, delta position, order) the fixpoint asks for is already
// lowered, so a multi-round evaluation must record cache hits.
TEST(KernelCacheTest, SecondRoundOfFixpointHitsCache) {
  Engine engine;
  ASSERT_EQ(engine.Load(ChainTc(16)), "");
  ASSERT_TRUE(engine.SolveWellFounded().ok);
  const obs::MetricsRegistry& m = engine.metrics();
  EXPECT_GT(m.value(obs::Counter::kKernelProgramsCompiled), 0u);
  EXPECT_GT(m.value(obs::Counter::kKernelCacheHits), 0u);
  EXPECT_GT(m.value(obs::Counter::kKernelOpsExecuted), 0u);
  EXPECT_GT(engine.kernel_cache().size(), 0u);
}

// A forked engine replays compiled programs from its cloned cache. A
// fork that re-solves the identical program replays memoized component
// models from the scheduler cache and never evaluates at all, so force
// re-evaluation with a new fact: the unchanged rules must then run from
// the cloned kernel cache without compiling anything new.
TEST(KernelCacheTest, ForkClonesCompiledRules) {
  Engine engine;
  ASSERT_EQ(engine.Load(ChainTc(8)), "");
  ASSERT_TRUE(engine.SolveWellFounded().ok);
  const size_t compiled_rules = engine.kernel_cache().size();
  ASSERT_GT(compiled_rules, 0u);
  std::unique_ptr<Engine> fork = engine.Fork();
  EXPECT_EQ(fork->kernel_cache().size(), compiled_rules);
  ASSERT_EQ(fork->LoadMore("e(n8,n9).\n"), "");
  ASSERT_TRUE(fork->SolveWellFounded().ok);
  EXPECT_GT(fork->metrics().value(obs::Counter::kKernelCacheHits), 0u);
  EXPECT_GT(fork->metrics().value(obs::Counter::kKernelOpsExecuted), 0u);
  // Every rule the extended fixpoint ran was already lowered in the
  // parent; only the new fact's entry is fresh.
  EXPECT_EQ(fork->metrics().value(obs::Counter::kKernelProgramsCompiled), 0u);
}

// Fully ground bodies run uncompiled: one membership probe per positive
// literal — the delta literal first, then by arity (descending) and
// bucket size (ascending) — with nothing compiled. A failed probe ends the body, so the probe count shows the
// order.
TEST(KernelGroundBodyTest, ProbesInPlannerOrderWithoutCompiling) {
  TermStore store;
  auto T = [&](const char* text) { return *ParseTerm(store, text); };
  auto parsed =
      ParseProgram(store, "h :- flag, g(a), k(a), m(a,b), ~blocked.\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Rule& rule = parsed->rules[0];
  ASSERT_FALSE(WorthCompiling(store, rule));
  FactBase facts;
  for (const char* f : {"flag", "m(b,c)", "g(b)", "g(c)", "k(z)"}) {
    facts.Insert(store, T(f));
  }
  KernelContext ctx;
  ctx.facts = &facts;
  int fired = 0;
  auto sink = [&](const Substitution& theta) {
    EXPECT_EQ(theta.size(), 0u);
    ++fired;
    return true;
  };
  auto probes = [&](size_t delta_pos) {
    obs::MetricsRegistry metrics;
    obs::ScopedObsContext scope(&metrics);
    EXPECT_TRUE(RunGroundBody(store, rule, ctx, delta_pos, sink));
    EXPECT_EQ(metrics.value(obs::Counter::kKernelOpsExecuted), 0u);
    return metrics.value(obs::Counter::kIndexProbes);
  };
  // m(a,b) has the highest arity and misses first.
  EXPECT_EQ(probes(SIZE_MAX), 1u);
  facts.Insert(store, T("m(a,b)"));
  facts.Insert(store, T("g(a)"));
  // Among the arity-1 literals k (one fact) precedes g (three): k(a)
  // misses before g(a) is probed.
  EXPECT_EQ(probes(SIZE_MAX), 2u);
  EXPECT_EQ(fired, 0);
  facts.Insert(store, T("k(a)"));
  EXPECT_EQ(probes(SIZE_MAX), 4u);
  EXPECT_EQ(fired, 1);
  // The delta literal probes first, against the delta: flag is not in it.
  FactBase delta;
  delta.Insert(store, T("m(b,c)"));
  ctx.delta = &delta;
  EXPECT_EQ(probes(/*delta_pos=*/0), 0u);
  delta.Insert(store, T("flag"));
  EXPECT_EQ(probes(/*delta_pos=*/0), 4u);
  EXPECT_EQ(fired, 2);
}

TEST(KernelGroundBodyTest, GroundProgramsLeaveTheCacheEmpty) {
  // A ground win chain for the well-founded solve and a ground layer
  // under stratified negation for the stratified fixpoint.
  std::string chain;
  std::string layer;
  for (int i = 0; i < 16; ++i) {
    const std::string x = std::to_string(i);
    const std::string y = std::to_string(i + 1);
    const std::string move = "m(n" + x + ",n" + y + ")";
    chain += "w(n" + x + ") :- " + move + ", ~w(n" + y + ").\n";
    chain += move + ".\n";
    layer += "p(n" + x + ") :- " + move + ", ~q(n" + x + ").\n";
    layer += move + ".\n";
    if (i % 2 == 0) layer += "q(n" + x + ").\n";
  }
  for (bool stratified : {false, true}) {
    Engine engine;
    ASSERT_EQ(engine.Load(stratified ? layer : chain), "");
    if (stratified) {
      StratifiedEvalResult result = engine.SolveStratified();
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_EQ(result.facts.size(), 16u + 8u + 8u);
    } else {
      ASSERT_TRUE(engine.SolveWellFounded().ok);
    }
    const obs::MetricsRegistry& m = engine.metrics();
    EXPECT_GT(m.value(obs::Counter::kIndexProbes), 0u) << stratified;
    EXPECT_EQ(m.value(obs::Counter::kKernelProgramsCompiled), 0u);
    EXPECT_EQ(m.value(obs::Counter::kKernelOpsExecuted), 0u);
    EXPECT_EQ(engine.kernel_cache().size(), 0u);
  }
}

TEST(KernelExplainTest, DumpsOneProgramPerRule) {
  TermStore store;
  auto parsed = ParseProgram(
      store, "e(a,b).\nt(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), e(Y,Z).\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const std::string text = ExplainKernelPrograms(store, *parsed);
  EXPECT_NE(text.find("rule 0:"), std::string::npos);
  EXPECT_NE(text.find("rule 2:"), std::string::npos);
  EXPECT_NE(text.find("ScanRelation"), std::string::npos);
  EXPECT_NE(text.find("ProbeColumn"), std::string::npos);
  EXPECT_NE(text.find("Emit"), std::string::npos);
  EXPECT_NE(text.find("Project"), std::string::npos);
}

}  // namespace
}  // namespace hilog
