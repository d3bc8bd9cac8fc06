// Randomized equivalence suite for the incremental maintenance engine
// (src/maint): after any sequence of delta publishes — fact insertions
// and retractions — the maintained engine's well-founded model must be
// byte-identical to a from-scratch Load of the composed program text, at
// every eval-thread setting. The suite sweeps ground normal programs,
// range-restricted normal programs, the HiLog game family (acyclic and
// with negation cycles), and the universal call/u_i encoding, and also
// cross-checks the magic-sets query path against the maintained EDB
// cache. After every maintenance solve the scheduler plan the engine kept
// (patched across the delta, or rebuilt) must equal a plan built from
// scratch for the post-delta program. The file also checks the statement
// splitter and text composer against reference copies of their original
// character loops.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "random_programs.h"
#include "src/core/engine.h"
#include "src/maint/delta.h"
#include "src/maint/maintain.h"

namespace hilog {
namespace {

// Renders a model deterministically through the owning engine's store:
// true atoms in model order, then undefined atoms, then the exactness
// flag. Two engines agree byte-for-byte iff these strings are equal.
std::string ModelText(Engine& engine, const Engine::WfsAnswer& answer) {
  std::string out;
  for (TermId atom : answer.model.TrueAtoms()) {
    out += engine.store().ToString(atom);
    out += '\n';
  }
  out += "--undefined--\n";
  for (TermId atom : answer.model.UndefinedAtoms()) {
    out += engine.store().ToString(atom);
    out += '\n';
  }
  out += answer.exact ? "exact" : "fragment";
  return out;
}

// A fact-only relation record the engine kept across a delta must be the
// record a cold start would build for the same program.
void ExpectRecordMatchesFresh(Engine& engine, const std::string& context) {
  std::shared_ptr<const FactRelations> kept =
      engine.scheduler_cache().relations;
  if (kept == nullptr) return;  // Dropped: the next query or solve builds.
  EXPECT_TRUE(*kept == *BuildFactRelations(engine.store(), engine.program()))
      << context;
}

// The plan the engine's last solve used must be the plan a cold start
// would build for the same program: same components in the same order,
// with the same member names, rules, rule identities, signatures and
// depths. The record beside it must be there and match a fresh build too.
void ExpectPlanMatchesFresh(Engine& engine, const std::string& context) {
  ASSERT_NE(engine.scheduler_cache().relations, nullptr) << context;
  ExpectRecordMatchesFresh(engine, context);
  std::shared_ptr<const SchedulerPlan> kept = engine.scheduler_cache().plan;
  ASSERT_NE(kept, nullptr) << context;
  std::shared_ptr<const SchedulerPlan> fresh =
      BuildSchedulerPlan(engine.store(), engine.program());
  EXPECT_EQ(kept->program_size, fresh->program_size) << context;
  EXPECT_EQ(kept->program_fingerprint, fresh->program_fingerprint) << context;
  EXPECT_EQ(kept->shape->exact, fresh->shape->exact) << context;
  EXPECT_EQ(kept->shape->instantiated, fresh->shape->instantiated) << context;
  EXPECT_EQ(kept->shape->waves, fresh->shape->waves) << context;
  EXPECT_EQ(kept->shape->fact_relations, fresh->shape->fact_relations)
      << context;
  EXPECT_EQ(kept->shape->cached_components, fresh->shape->cached_components)
      << context;
  ASSERT_EQ(kept->components.size(), fresh->components.size()) << context;
  for (size_t c = 0; c < kept->components.size(); ++c) {
    const SchedulerPlan::Component& a = *kept->components[c];
    const SchedulerPlan::Component& b = *fresh->components[c];
    EXPECT_EQ(a.id, b.id) << context;
    EXPECT_EQ(a.member_names, b.member_names) << context << " component " << c;
    EXPECT_EQ(a.rules, b.rules) << context << " component " << c;
    EXPECT_EQ(a.identities, b.identities) << context << " component " << c;
    EXPECT_EQ(a.lower_names, b.lower_names) << context << " component " << c;
    EXPECT_EQ(a.signature, b.signature) << context << " component " << c;
    EXPECT_EQ(a.depth, b.depth) << context << " component " << c;
    EXPECT_EQ(a.fact_only, b.fact_only) << context << " component " << c;
    EXPECT_EQ(a.named_by_first_rule, b.named_by_first_rule)
        << context << " component " << c;
    EXPECT_EQ(a.cache_key, b.cache_key) << context << " component " << c;
  }
}

// The ground facts currently in the program, as retractable statements.
std::vector<std::string> GroundFactTexts(Engine& engine) {
  std::vector<std::string> out;
  std::set<std::string> seen;  // Duplicate fact rules retract together.
  for (const Rule& rule : engine.program().rules) {
    if (!rule.IsFact() || !engine.store().IsGround(rule.head)) continue;
    std::string text = engine.store().ToString(rule.head) + ".";
    if (seen.insert(text).second) out.push_back(std::move(text));
  }
  return out;
}

// One delta step: additions text, retractions text.
using Delta = std::pair<std::string, std::string>;

// Builds a random insert/retract schedule by replaying it on a scratch
// engine, so every retraction names a fact actually present at its step
// and re-adding previously retracted facts happens naturally through the
// addition pool.
std::vector<Delta> RandomDeltas(const std::string& base, unsigned seed,
                                int steps,
                                const std::vector<std::string>& additions) {
  std::mt19937 rng(seed);
  Engine scratch;
  EXPECT_EQ(scratch.Load(base), "");
  std::vector<Delta> out;
  for (int s = 0; s < steps; ++s) {
    std::vector<std::string> facts = GroundFactTexts(scratch);
    std::set<size_t> picked;
    std::string retract;
    if (!facts.empty()) {
      int wanted = static_cast<int>(rng() % 3);
      for (int i = 0; i < wanted; ++i) {
        picked.insert(rng() % facts.size());
      }
      for (size_t index : picked) {
        retract += facts[index];
        retract += '\n';
      }
    }
    std::string add;
    int wanted = static_cast<int>(rng() % 3) + (retract.empty() ? 1 : 0);
    for (int i = 0; i < wanted; ++i) {
      add += additions[rng() % additions.size()];
      add += '\n';
    }
    EXPECT_EQ(scratch.ApplyDelta(add, retract, nullptr), "")
        << "add:\n" << add << "retract:\n" << retract;
    out.emplace_back(std::move(add), std::move(retract));
  }
  return out;
}

// The core property: apply `deltas` one by one to a maintained engine,
// and after every step compare its solve byte-for-byte against a cold
// engine loading the composed text. Optionally cross-checks a query.
void CheckMaintainedMatchesFresh(const std::string& base,
                                 const std::vector<Delta>& deltas,
                                 const std::string& query = "") {
  Engine maintained;
  ASSERT_EQ(maintained.Load(base), "");
  ASSERT_TRUE(maintained.SolveWellFounded().ok);
  std::string composed = base;
  for (size_t step = 0; step < deltas.size(); ++step) {
    const auto& [add, retract] = deltas[step];
    std::vector<size_t> removed;
    ASSERT_EQ(maintained.ApplyDelta(add, retract, &removed), "");
    composed = ComposeDeltaText(composed, removed, add);
    ExpectRecordMatchesFresh(maintained, "kept at step " +
                                             std::to_string(step) +
                                             "\nprogram:\n" + composed);
    Engine::WfsAnswer got = maintained.SolveWellFounded();
    ASSERT_TRUE(got.ok);
    ExpectPlanMatchesFresh(maintained, "step " + std::to_string(step) +
                                           "\nprogram:\n" + composed);

    Engine fresh;
    ASSERT_EQ(fresh.Load(composed), "");
    Engine::WfsAnswer want = fresh.SolveWellFounded();
    ASSERT_TRUE(want.ok);
    EXPECT_EQ(ModelText(maintained, got), ModelText(fresh, want))
        << "step " << step << "\nprogram:\n" << composed;

    if (!query.empty()) {
      Engine::QueryAnswer got_q = maintained.Query(query);
      Engine::QueryAnswer want_q = fresh.Query(query);
      ASSERT_TRUE(got_q.ok && want_q.ok);
      std::vector<std::string> got_answers, want_answers;
      for (TermId a : got_q.answers) {
        got_answers.push_back(maintained.store().ToString(a));
      }
      for (TermId a : want_q.answers) {
        want_answers.push_back(fresh.store().ToString(a));
      }
      EXPECT_EQ(got_answers, want_answers) << "query " << query << " step "
                                           << step << "\nprogram:\n"
                                           << composed;
    }
  }
}

class IncrementalEquivalenceTest : public ::testing::TestWithParam<unsigned> {
};

TEST_P(IncrementalEquivalenceTest, GroundNormalPrograms) {
  const unsigned seed = GetParam();
  std::string base = testing::RandomGroundProgram(seed);
  // Additions include rules, not just facts: the maintenance path must
  // handle rule-bearing deltas (they dirty their component's signature).
  std::vector<std::string> pool = {"a0.",          "a3.",
                                   "a8.",          "a9 :- ~a1.",
                                   "a2 :- a8, ~a9.", "a5."};
  std::vector<Delta> deltas = RandomDeltas(base, seed * 31 + 1, 3, pool);
  CheckMaintainedMatchesFresh(base, deltas);
}

TEST_P(IncrementalEquivalenceTest, RangeRestrictedNormalPrograms) {
  const unsigned seed = GetParam();
  std::string base = testing::RandomRangeRestrictedNormalProgram(seed);
  std::vector<std::string> pool = {"p(a).", "q(c).", "s(b).", "r(a).",
                                   "q(X) :- r(X), ~s(X)."};
  std::vector<Delta> deltas = RandomDeltas(base, seed * 31 + 7, 3, pool);
  CheckMaintainedMatchesFresh(base, deltas, "p(X)");
}

TEST_P(IncrementalEquivalenceTest, HiLogGameProgramsWithNegationCycles) {
  const unsigned seed = GetParam();
  // Half the seeds start cyclic (undefined atoms from the outset); the
  // addition pool injects back edges either way, so maintenance flips
  // positions between true, false, and undefined across steps.
  std::string base = testing::RandomGameProgram(seed, /*cyclic=*/seed % 2);
  std::vector<std::string> pool = {"mv0(n2,n0).", "mv0(n5,n1).",
                                   "mv0(n0,n3).", "game(mv7).",
                                   "mv7(n0,n1).", "mv7(n1,n0)."};
  std::vector<Delta> deltas = RandomDeltas(base, seed * 31 + 13, 3, pool);
  CheckMaintainedMatchesFresh(base, deltas, "winning(mv0)(X)");
}

// The universal call/u_i encoding collapses every predicate into one
// `call` relation (paper, Section 2), so a delta anywhere dirties the one
// big component — the worst case for the splitting frontier, and the
// case that exercises compound-key erase paths in the fact store.
TEST_P(IncrementalEquivalenceTest, UniversalEncodingPrograms) {
  const unsigned seed = GetParam();
  std::mt19937 rng(seed);
  std::string base =
      "call(u2(w,X)) :- call(u3(m,X,Y)), ~call(u2(w,Y)).\n";
  int positions = 4 + static_cast<int>(rng() % 3);
  for (int i = 0; i < positions; ++i) {
    base += "call(u3(m,n" + std::to_string(i) + ",n" +
            std::to_string(i + 1) + ")).\n";
  }
  std::vector<std::string> pool = {
      "call(u3(m,n2,n0)).", "call(u3(m,n5,n2)).", "call(u3(m,n0,n4)).",
      "call(u3(m,n1,n1)).", "call(u3(m,n3,n0))."};
  std::vector<Delta> deltas = RandomDeltas(base, seed * 31 + 17, 3, pool);
  CheckMaintainedMatchesFresh(base, deltas, "call(u2(w,X))");
}

// The serving workers' path: Load, then queries and deltas with no solve
// in between. The record and magic's EDB rows are kept across the fact
// deltas the record admits and dropped otherwise; either way every query
// must answer as a fresh engine does, answers in the same order. The pool's
// variable-named head X(n0,n1) adds a row to every game's move relation,
// which p reads through a ground name, so the answers of these definite
// relations are also checked against the well-founded model.
TEST_P(IncrementalEquivalenceTest, QueriesWithoutSolvesMatchFresh) {
  const unsigned seed = GetParam();
  const std::string base = testing::RandomGameProgram(seed, /*cyclic=*/false) +
                           "p(X) :- mv0(X,n1).\n";
  std::vector<std::string> pool = {"mv0(n2,n0).", "mv0(n0,n3).",
                                   "mv0(n4,n2).", "game(mv7).",
                                   "mv7(n0,n1).", "X(n0,n1) :- game(X)."};
  std::vector<Delta> deltas = RandomDeltas(base, seed * 31 + 19, 4, pool);
  Engine maintained;
  ASSERT_EQ(maintained.Load(base), "");
  std::string composed = base;
  auto answers = [](Engine& engine, const std::string& query) {
    Engine::QueryAnswer answer = engine.Query(query);
    EXPECT_TRUE(answer.ok) << answer.error;
    std::string out = std::to_string(static_cast<int>(answer.ground_status));
    for (TermId a : answer.answers) out += " " + engine.store().ToString(a);
    return out + " derived " + std::to_string(answer.facts_derived);
  };
  for (size_t step = 0; step <= deltas.size(); ++step) {
    if (step > 0) {
      const auto& [add, retract] = deltas[step - 1];
      std::vector<size_t> removed;
      ASSERT_EQ(maintained.ApplyDelta(add, retract, &removed), "");
      composed = ComposeDeltaText(composed, removed, add);
      ExpectRecordMatchesFresh(maintained, composed);
    }
    Engine fresh;
    ASSERT_EQ(fresh.Load(composed), "");
    for (const std::string query :
         {"winning(mv0)(X)", "winning(mv0)(n0)", "mv0(X,Y)", "p(X)",
          "game(G)"}) {
      EXPECT_EQ(answers(maintained, query), answers(fresh, query))
          << query << " at step " << step << "\nprogram:\n" << composed;
    }
    Engine oracle;
    ASSERT_EQ(oracle.Load(composed), "");
    Engine::WfsAnswer wfs = oracle.SolveWellFounded();
    ASSERT_TRUE(wfs.ok);
    for (const auto& [name, query] : {std::pair{"mv0", "mv0(X,Y)"},
                                      std::pair{"p", "p(X)"}}) {
      std::set<std::string> want, got;
      for (TermId atom : wfs.model.TrueAtoms()) {
        if (oracle.store().ToString(oracle.store().PredName(atom)) == name) {
          want.insert(oracle.store().ToString(atom));
        }
      }
      for (TermId atom : maintained.Query(query).answers) {
        got.insert(maintained.store().ToString(atom));
      }
      EXPECT_EQ(got, want) << query << " at step " << step << "\nprogram:\n"
                           << composed;
    }
    EXPECT_EQ(maintained.scheduler_cache().plan, nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalenceTest,
                         ::testing::Range(0u, 8u));

// Deterministic anchor on the paper's Example 6.1 shape: retracting the
// last move flips the winning parity of the whole chain, and re-adding
// it restores the original model byte-for-byte.
TEST(IncrementalTest, RetractThenReaddRestoresModelBytes) {
  std::string base;
  for (int i = 0; i < 8; ++i) {
    std::string x = std::to_string(i), y = std::to_string(i + 1);
    base += "w(n" + x + ") :- m(n" + x + ",n" + y + "), ~w(n" + y + ").\n";
    base += "m(n" + x + ",n" + y + ").\n";
  }
  Engine engine;
  ASSERT_EQ(engine.Load(base), "");
  Engine::WfsAnswer original = engine.SolveWellFounded();
  ASSERT_TRUE(original.ok);
  std::string original_text = ModelText(engine, original);

  ASSERT_EQ(engine.Retract("m(n7,n8)."), "");
  Engine::WfsAnswer flipped = engine.SolveWellFounded();
  ASSERT_TRUE(flipped.ok);
  EXPECT_NE(ModelText(engine, flipped), original_text);

  ASSERT_EQ(engine.ApplyDelta("m(n7,n8).", "", nullptr), "");
  Engine::WfsAnswer restored = engine.SolveWellFounded();
  ASSERT_TRUE(restored.ok);
  EXPECT_EQ(ModelText(engine, restored), original_text);
}

// Error contract: a retraction must name a present ground fact, and a
// failed delta leaves the program untouched.
TEST(IncrementalTest, InvalidDeltasAreRejectedAtomically) {
  Engine engine;
  ASSERT_EQ(engine.Load("p(a).\nq(X) :- p(X).\n"), "");
  const size_t rules = engine.program().size();
  EXPECT_NE(engine.Retract("p(b)."), "");          // Not a fact.
  EXPECT_NE(engine.Retract("q(X)."), "");          // Not ground.
  EXPECT_NE(engine.Retract("q(X) :- p(X)."), "");  // Not a fact statement.
  EXPECT_NE(engine.ApplyDelta("r(", "", nullptr), "");  // Parse error.
  // A delta with one bad retraction applies nothing, even when the other
  // retraction is valid.
  EXPECT_NE(engine.ApplyDelta("", "p(a).\np(z).", nullptr), "");
  EXPECT_EQ(engine.program().size(), rules);
  EXPECT_TRUE(engine.Query("p(a)").ground_status == QueryStatus::kTrue);
}

// The maintenance pass must actually skip clean components: on a program
// with independent islands, a delta in one island replays the others.
TEST(IncrementalTest, CleanComponentsReplayAcrossDelta) {
  Engine engine;
  ASSERT_EQ(engine.Load("p(a).\nq(X) :- p(X).\nr(b).\ns(X) :- r(X).\n"),
            "");
  ASSERT_TRUE(engine.SolveWellFounded().ok);
  ASSERT_EQ(engine.ApplyDelta("p(c).", "", nullptr), "");
  Engine::WfsAnswer maintained = engine.SolveWellFounded();
  ASSERT_TRUE(maintained.ok);
  // {p} and {q} re-solve; {r} and {s} replay from the component cache.
  EXPECT_EQ(maintained.sched.components, 2u);
  EXPECT_EQ(maintained.sched.components_reused, 2u);
  EXPECT_EQ(maintained.sched.overdeleted, 0u);
  // p(a) and q(a) survive into the re-solved components' new entries.
  EXPECT_EQ(maintained.sched.rederived, 2u);
}

// Which deltas keep the scheduler plan and which rebuild it. A delta that
// only adds or retracts facts of an existing fact-only, non-guard relation
// patches the plan; a guard fact, the fact that first names a relation, a
// relation's last fact, a new relation, or a rule rebuilds it. Either way
// the plan equals a fresh one and the model a cold Load's, byte for byte.
TEST(IncrementalTest, PlanIsPatchedOrRebuiltByDeltaShape) {
  const std::string base =
      "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).\n"
      "game(mv1).\ngame(mv2).\n"
      "mv1(a,b).\nmv1(b,c).\nmv1(a,c).\n"
      "mv2(x,y).\nmv2(y,z).\n"
      "p(a).\nq(X) :- p(X), ~r(X).\np(b).\nr(b).\n";
  struct Step {
    const char* add;
    const char* retract;
    uint64_t built;  // sched.plans_built of the maintenance solve.
  };
  const Step steps[] = {
      {"", "mv1(a,c).", 0},            // An instance rule names mv1 first.
      {"mv1(a,c).", "", 0},            // Appends to mv1.
      {"", "p(b).", 0},                // p(a) still names p.
      {"p(b).\np(c).", "", 0},         // Appends to p.
      {"", "game(mv1).", 1},           // Guard fact.
      {"", "p(a).", 1},                // The fact that first names p.
      {"", "r(b).", 1},                // r's last fact.
      {"s(c).", "", 1},                // A new relation.
      {"t(X) :- p(X).", "", 1},        // A rule.
      {"mv2(z,x).", "mv2(x,y).", 0},   // Both halves on one relation.
  };
  Engine engine;
  ASSERT_EQ(engine.Load(base), "");
  ASSERT_TRUE(engine.SolveWellFounded().ok);
  EXPECT_EQ(engine.metrics().value(obs::Counter::kSchedPlansBuilt), 1u);
  std::string composed = base;
  for (const Step& step : steps) {
    const std::string context = std::string("add '") + step.add +
                                "' retract '" + step.retract + "'";
    engine.metrics().Reset();
    std::vector<size_t> removed;
    ASSERT_EQ(engine.ApplyDelta(step.add, step.retract, &removed), "")
        << context;
    composed = ComposeDeltaText(composed, removed, step.add);
    Engine::WfsAnswer got = engine.SolveWellFounded();
    ASSERT_TRUE(got.ok) << context;
    const obs::MetricsRegistry& m = engine.metrics();
    EXPECT_EQ(m.value(obs::Counter::kSchedPlansBuilt), step.built)
        << context;
    EXPECT_EQ(m.value(obs::Counter::kSchedPlansReused), 1 - step.built)
        << context;
    ExpectPlanMatchesFresh(engine, context);

    Engine fresh;
    ASSERT_EQ(fresh.Load(composed), "");
    EXPECT_EQ(ModelText(engine, got),
              ModelText(fresh, fresh.SolveWellFounded()))
        << context << "\nprogram:\n" << composed;
  }
}

// A guard relation with no facts yet is still a guard: its first fact
// instantiates the rule, so it rebuilds.
TEST(IncrementalTest, FirstFactOfEmptyGuardRebuildsPlan) {
  const std::string base =
      "winning(M)(X) :- arena(M), M(X,Y), ~winning(M)(Y).\n"
      "mv1(a,b).\nmv1(b,c).\n";
  Engine engine;
  ASSERT_EQ(engine.Load(base), "");
  ASSERT_TRUE(engine.SolveWellFounded().ok);
  engine.metrics().Reset();
  std::vector<size_t> removed;
  ASSERT_EQ(engine.ApplyDelta("arena(mv1).", "", &removed), "");
  Engine::WfsAnswer got = engine.SolveWellFounded();
  ASSERT_TRUE(got.ok);
  EXPECT_EQ(engine.metrics().value(obs::Counter::kSchedPlansBuilt), 1u);
  ExpectPlanMatchesFresh(engine, "arena(mv1)");
  Engine fresh;
  ASSERT_EQ(fresh.Load(ComposeDeltaText(base, removed, "arena(mv1).")), "");
  EXPECT_EQ(ModelText(engine, got),
            ModelText(fresh, fresh.SolveWellFounded()));
}

// LoadMore appends like a delta's additions, so facts of an existing
// fact-only relation patch the plan and a rule rebuilds it.
TEST(IncrementalTest, LoadMorePatchesOrRebuildsThePlan) {
  std::string text = "p(a).\nq(X) :- p(X), ~r(X).\nr(b).\np(b).\n";
  Engine engine;
  ASSERT_EQ(engine.Load(text), "");
  ASSERT_TRUE(engine.SolveWellFounded().ok);
  const std::pair<const char*, uint64_t> appends[] = {
      {"p(c).\nr(c).\n", 0},
      {"s(X) :- q(X).\n", 1},
      {"p(d).\n", 0},
  };
  for (const auto& [more, built] : appends) {
    engine.metrics().Reset();
    ASSERT_EQ(engine.LoadMore(more), "");
    text += more;
    Engine::WfsAnswer got = engine.SolveWellFounded();
    ASSERT_TRUE(got.ok);
    EXPECT_EQ(engine.metrics().value(obs::Counter::kSchedPlansBuilt), built)
        << more;
    ExpectPlanMatchesFresh(engine, more);
    Engine fresh;
    ASSERT_EQ(fresh.Load(text), "");
    EXPECT_EQ(ModelText(engine, got),
              ModelText(fresh, fresh.SolveWellFounded()))
        << more;
  }
}

// A plan answers only for its own program: a cache handed another
// program, even one of the same size and serials, rebuilds its plan.
// (The settled components themselves are keyed by rule serials, so the
// cache as a whole stays meant for one program and its deltas.)
TEST(IncrementalTest, CachedPlanIsNotUsedForAnotherProgram) {
  TermStore store;
  ParseResult<Program> first = ParseProgram(store, "p(a).\nq(X) :- p(X).\n");
  ParseResult<Program> second = ParseProgram(store, "p(b).\nq(X) :- p(X).\n");
  ASSERT_TRUE(first.ok() && second.ok());
  SchedulerCache cache;
  obs::MetricsRegistry metrics;
  obs::ScopedObsContext obs_ctx(&metrics, nullptr);
  ComponentWfsResult a =
      SolveWfsByComponents(store, *first, BottomUpOptions(), &cache);
  ComponentWfsResult b =
      SolveWfsByComponents(store, *second, BottomUpOptions(), &cache);
  ComponentWfsResult c =
      SolveWfsByComponents(store, *second, BottomUpOptions(), &cache);
  ASSERT_TRUE(a.ok && b.ok && c.ok);
  EXPECT_EQ(metrics.value(obs::Counter::kSchedPlansBuilt), 2u);
  EXPECT_EQ(metrics.value(obs::Counter::kSchedPlansReused), 1u);
  ASSERT_NE(cache.plan, nullptr);
  std::shared_ptr<const SchedulerPlan> fresh =
      BuildSchedulerPlan(store, *second);
  ASSERT_EQ(cache.plan->components.size(), fresh->components.size());
  for (size_t c = 0; c < fresh->components.size(); ++c) {
    EXPECT_EQ(cache.plan->components[c]->rules, fresh->components[c]->rules);
  }
}

// The publish shape on Example 6.3 at 256 games x 64 positions: one-move
// deltas never re-plan after the first solve, while a guard retraction, a
// fact of a new relation and an added rule each build exactly one plan.
TEST(IncrementalTest, GameMoveDeltasReuseThePlan) {
  std::string base = "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).\n";
  for (int g = 0; g < 256; ++g) {
    const std::string mv = "mv" + std::to_string(g);
    base += "game(" + mv + ").\n";
    for (int i = 0; i < 64; ++i) {
      base += mv + "(n" + std::to_string(i) + ",n" + std::to_string(i + 1) +
              ").\n";
    }
  }
  Engine engine;
  ASSERT_EQ(engine.Load(base), "");
  ASSERT_TRUE(engine.SolveWellFounded().ok);
  std::string composed = base;
  auto step = [&](const std::string& add, const std::string& retract) {
    std::vector<size_t> removed;
    EXPECT_EQ(engine.ApplyDelta(add, retract, &removed), "");
    composed = ComposeDeltaText(composed, removed, add);
    return engine.SolveWellFounded();
  };
  engine.metrics().Reset();
  for (int k = 0; k < 100; ++k) {
    const int g = (k / 2 * 37) % 256, i = (k / 2 * 11) % 64;
    const std::string fact = "mv" + std::to_string(g) + "(n" +
                             std::to_string(i) + ",n" +
                             std::to_string(i + 1) + ").";
    ASSERT_TRUE((k % 2 == 0 ? step("", fact) : step(fact + "\n", "")).ok);
  }
  EXPECT_EQ(engine.metrics().value(obs::Counter::kSchedPlansBuilt), 0u);
  EXPECT_EQ(engine.metrics().value(obs::Counter::kSchedPlansReused), 100u);

  const std::pair<std::string, std::string> rebuilds[] = {
      {"", "game(mv7)."},
      {"extra(a).\n", ""},
      {"extra(X) :- game(X).\n", ""},
  };
  Engine::WfsAnswer last;
  for (const auto& [add, retract] : rebuilds) {
    engine.metrics().Reset();
    last = step(add, retract);
    ASSERT_TRUE(last.ok);
    EXPECT_EQ(engine.metrics().value(obs::Counter::kSchedPlansBuilt), 1u)
        << add << retract;
  }
  Engine fresh;
  ASSERT_EQ(fresh.Load(composed), "");
  EXPECT_EQ(ModelText(engine, last),
            ModelText(fresh, fresh.SolveWellFounded()));
}

// Reference copies of the statement splitter and the text composer as
// they were first written — one character at a time, every statement
// materialized — against which the table-driven scan is checked.
std::vector<std::string_view> ReferenceSplitStatements(std::string_view text) {
  std::vector<std::string_view> statements;
  size_t start = 0;
  bool in_quote = false;
  bool in_comment = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_comment) {
      if (c == '\n') in_comment = false;
      continue;
    }
    if (in_quote) {
      if (c == '\'') in_quote = false;
      continue;
    }
    if (c == '\'') {
      in_quote = true;
    } else if (c == '%') {
      in_comment = true;
    } else if (c == '.') {
      statements.emplace_back(text.substr(start, i + 1 - start));
      start = i + 1;
    }
  }
  return statements;
}

std::string ReferenceComposeDeltaText(
    std::string_view old_text, const std::vector<size_t>& removed_indices,
    std::string_view additions) {
  std::vector<std::string_view> statements = ReferenceSplitStatements(old_text);
  std::unordered_set<size_t> removed(removed_indices.begin(),
                                     removed_indices.end());
  std::string out;
  for (size_t i = 0; i < statements.size(); ++i) {
    if (removed.count(i) > 0) continue;
    out += statements[i];
  }
  if (!additions.empty()) {
    if (!out.empty() && out.back() != '\n') out.push_back('\n');
    out += additions;
  }
  return out;
}

// Random program-like text: atoms and rules, quoted atoms holding '.',
// '%' and newlines, '%' comments holding '.' and quotes, blank lines, and
// sometimes a trailing comment, trailing text without a '.', or an
// unclosed quote or comment at the end.
std::string RandomStatementText(std::mt19937& rng) {
  const char* const pieces[] = {
      "p(a)", "q(X) :- p(X), ~r(X)", "'a.b'", "'%'", "'x\ny.'", " ", "\n",
      "mv0(n1,n2)", "e", ",", "''", "'.'", "\t",
  };
  std::string text;
  const int statements = static_cast<int>(rng() % 12);
  for (int s = 0; s < statements; ++s) {
    const int parts = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < parts; ++k) text += pieces[rng() % std::size(pieces)];
    if (rng() % 4 == 0) text += "% note. with 'quote' and p(a).";
    if (rng() % 3 != 0) text += "\n";
    text += ".";
    if (rng() % 2 == 0) text += "\n";
  }
  switch (rng() % 5) {
    case 0: text += "% trailing comment. p(b).\n"; break;
    case 1: text += "p(c) :- q(c)"; break;
    case 2: text += "'unclosed. quote"; break;
    case 3: text += "% unclosed comment."; break;
    default: break;
  }
  return text;
}

TEST(ComposeDeltaTextTest, MatchesReferenceOnRandomTexts) {
  std::mt19937 rng(20261017);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string text = RandomStatementText(rng);
    std::vector<std::string_view> want = ReferenceSplitStatements(text);
    std::vector<std::string_view> got = SplitStatements(text);
    ASSERT_EQ(got.size(), want.size()) << text;
    for (size_t i = 0; i < got.size(); ++i) {
      // Same views, not only equal text: each statement is addressed by
      // its place in the source.
      EXPECT_EQ(got[i].data(), want[i].data()) << text;
      EXPECT_EQ(got[i].size(), want[i].size()) << text;
    }
    // Unsorted, duplicate and out-of-range removals all occur.
    std::vector<size_t> removed;
    const size_t picks = rng() % 4;
    for (size_t k = 0; k < picks; ++k) {
      removed.push_back(rng() % (want.size() + 2));
    }
    const char* const additions[] = {"", "p(z).", "p(z).\n", "r(X) :- p(X).\n"};
    const std::string add = additions[rng() % std::size(additions)];
    EXPECT_EQ(ComposeDeltaText(text, removed, add),
              ReferenceComposeDeltaText(text, removed, add))
        << "text:\n" << text << "\nadd: " << add;
  }
}

}  // namespace
}  // namespace hilog
