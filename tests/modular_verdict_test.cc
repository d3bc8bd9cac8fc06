// Engine::Analyze reads Figure 1's verdict off the engine's own
// well-founded solve when that solve decides it (Figure1FitsSolve) and
// runs the literal procedure otherwise. Either way its verdict and reason
// must equal CheckModularHiLog's, in both call orders and after a delta;
// and Analyze must not change the model the following SolveWellFounded
// prints.

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "random_programs.h"
#include "src/core/engine.h"

#ifndef HILOG_SOURCE_DIR
#define HILOG_SOURCE_DIR "."
#endif

namespace hilog {
namespace {

struct Verdict {
  bool accepted = false;
  std::string reason;
};

// The literal procedure on a fork, so the engine's own store and cache
// stay as the call sequence under test left them.
Verdict Literal(const Engine& engine) {
  std::unique_ptr<Engine> fork = engine.Fork();
  ModularResult result = CheckModularHiLog(fork->store(), fork->program(),
                                           fork->options().modular);
  return {result.modularly_stratified, result.reason};
}

Verdict Analyzed(Engine& engine) {
  AnalysisReport report = engine.Analyze();
  return {report.modularly_stratified, report.modular_reason};
}

// The answer SolveWellFounded gives, printed in model order.
std::string Solved(Engine& engine) {
  Engine::WfsAnswer answer = engine.SolveWellFounded();
  std::string out = answer.ok ? "ok" : "error: " + answer.notes;
  out += answer.exact ? " exact " : " fragment ";
  out += std::to_string(answer.ground_rules) + "\n";
  for (TermId atom : answer.model.TrueAtoms()) {
    out += engine.store().ToString(atom) + "\n";
  }
  for (TermId atom : answer.model.UndefinedAtoms()) {
    out += engine.store().ToString(atom) + " = undefined\n";
  }
  return out;
}

// How many of the Analyze calls read the verdict off the solve.
uint64_t FromSolve(const Engine& engine) {
  return engine.metrics().value(obs::Counter::kModularFromSolve);
}

// The last ground fact of the loaded program, as delta text ("" if none).
std::string LastFact(const Engine& engine) {
  const Program& program = engine.program();
  for (size_t r = program.size(); r-- > 0;) {
    const Rule& rule = program.rules[r];
    if (rule.IsFact() && engine.store().IsGround(rule.head)) {
      return engine.store().ToString(rule.head) + ".";
    }
  }
  return "";
}

// Runs every call order on `text` and checks each Analyze against the
// literal procedure and each following solve against an engine that took
// the same steps without Analyze. `additions` is applied as a delta
// together with retracting the program's last fact. Returns the number of
// Analyze calls that took the verdict from the solve.
uint64_t CheckProgram(const std::string& text, const EngineOptions& options,
                      const std::string& additions = "") {
  uint64_t from_solve = 0;
  SCOPED_TRACE(text);
  Engine plain(options);
  EXPECT_EQ(plain.Load(text), "");
  const std::string expected = Solved(plain);

  // Analyze, then solve.
  {
    Engine engine(options);
    EXPECT_EQ(engine.Load(text), "");
    Verdict literal = Literal(engine);
    Verdict analyzed = Analyzed(engine);
    EXPECT_EQ(analyzed.accepted, literal.accepted) << literal.reason;
    EXPECT_EQ(analyzed.reason, literal.reason);
    EXPECT_EQ(Solved(engine), expected);
    // A second Analyze over the warm cache agrees too.
    analyzed = Analyzed(engine);
    EXPECT_EQ(analyzed.accepted, literal.accepted);
    EXPECT_EQ(analyzed.reason, literal.reason);
    from_solve += FromSolve(engine);
    EXPECT_EQ(FromSolve(engine) +
                  engine.metrics().value(obs::Counter::kModularLiteralRuns),
              2u);
  }
  // Solve, then Analyze, then solve again.
  {
    Engine engine(options);
    EXPECT_EQ(engine.Load(text), "");
    EXPECT_EQ(Solved(engine), expected);
    Verdict literal = Literal(engine);
    Verdict analyzed = Analyzed(engine);
    EXPECT_EQ(analyzed.accepted, literal.accepted) << literal.reason;
    EXPECT_EQ(analyzed.reason, literal.reason);
    EXPECT_EQ(Solved(engine), expected);
    from_solve += FromSolve(engine);
  }
  // A fork of an analyzed engine, then a delta.
  const std::string retract = LastFact(plain);
  if (retract.empty() && additions.empty()) return from_solve;
  {
    Engine engine(options);
    Engine twin(options);
    EXPECT_EQ(engine.Load(text), "");
    EXPECT_EQ(twin.Load(text), "");
    Analyzed(engine);
    EXPECT_EQ(Solved(engine), Solved(twin));
    std::unique_ptr<Engine> fork = engine.Fork();
    EXPECT_EQ(fork->ApplyDelta(additions, retract), "");
    EXPECT_EQ(twin.ApplyDelta(additions, retract), "");
    Verdict literal = Literal(*fork);
    Verdict analyzed = Analyzed(*fork);
    EXPECT_EQ(analyzed.accepted, literal.accepted) << literal.reason;
    EXPECT_EQ(analyzed.reason, literal.reason);
    EXPECT_EQ(Solved(*fork), Solved(twin));
    from_solve += FromSolve(*fork);
  }
  return from_solve;
}

// Verdict equality on one Analyze; returns how many literal runs it took.
uint64_t LiteralRuns(const std::string& text, const EngineOptions& options) {
  Engine engine(options);
  EXPECT_EQ(engine.Load(text), "");
  Verdict literal = Literal(engine);
  Verdict analyzed = Analyzed(engine);
  EXPECT_EQ(analyzed.accepted, literal.accepted) << text;
  EXPECT_EQ(analyzed.reason, literal.reason) << text;
  return engine.metrics().value(obs::Counter::kModularLiteralRuns);
}

class ModularVerdictTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ModularVerdictTest, AcyclicGames) {
  const std::string text = testing::RandomGameProgram(GetParam());
  // Accepted games must take the solve's verdict, or this suite would not
  // test it: all four Analyze calls.
  EXPECT_EQ(CheckProgram(text, EngineOptions(), "mv0(n0,n3).\n"), 4u);
}

TEST_P(ModularVerdictTest, CyclicGames) {
  CheckProgram(testing::RandomGameProgram(GetParam(), true), EngineOptions(),
               "mv1(n1,n2).\n");
  // The other way round: a back edge arrives by delta.
  CheckProgram(testing::RandomGameProgram(GetParam()), EngineOptions(),
               "mv0(n5,n0).\n");
}

TEST_P(ModularVerdictTest, RangeRestrictedNormalPrograms) {
  CheckProgram(testing::RandomRangeRestrictedNormalProgram(GetParam()),
               EngineOptions(), "q(a).\n");
  CheckProgram(testing::RandomRangeRestrictedNormalProgram(GetParam() + 1000),
               EngineOptions(), "p(c).\n");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModularVerdictTest,
                         ::testing::Range(1u, 41u));

// The paper's Section 6 examples and the Figure 1 edge cases.
TEST(ModularVerdictExamplesTest, PaperExamples) {
  const char* programs[] = {
      // Example 6.1, acyclic and cyclic.
      "winning(X) :- move(X,Y), ~winning(Y). move(a,b). move(b,c). "
      "move(c,d).",
      "winning(X) :- move(X,Y), ~winning(Y). move(a,b). move(b,a).",
      // Example 6.3 and its cyclic parameter.
      "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y). game(move1). "
      "game(move2). move1(a,b). move1(b,c). move2(x,y).",
      "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y). game(move1). "
      "move1(a,b). move1(b,a).",
      // Example 6.4: two-valued but not modularly stratified.
      "P(X) :- t(X,Y,Z,P), ~P(Y), ~P(Z). t(a,b,a,p). t(e,a,b,p). "
      "P(b) :- t(X,Y,b,P).",
      // Example 6.5 and its contrast.
      "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y). game(move1). "
      "game(move2). q(move1(a,b)). q(move1(b,c)). move2(x,y). "
      "p(X) :- q(X). X :- p(X).",
      "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y). game(move1). "
      "game(move2). p(move1(a,b)). p(move1(b,c)). move2(x,y). X :- p(X).",
      // A variable head over an empty predicate, and variable heads that
      // chain through a relation of names.
      "Q(a) :- p(Q), ~Q(a).",
      "X(a,b) :- p(X,Y), ~Y(a,b). p(q1,q2). p(q2,q3). p(q3,q1).",
      "X(a,b) :- p(X,Y), ~Y(a,b). p(r,s). p(s,tt).",
      // First-order shapes: strata, recursion, negative cycles.
      "p(X) :- q(X), ~r(X). q(a). r(b).",
      "a(X) :- e(X), ~b(X). b(X) :- f(X), ~c(X). c(X) :- e(X). e(1). f(1).",
      "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y). e(1,2). e(2,1).",
      "a. b(c). d(e,f).",
      "p :- ~q. q :- ~p.",
      "p :- ~p.",
      // The envelope holds instances Figure 1's reduction deletes first.
      "p(X) :- q(X), ~s(X). p(X) :- r(X). r(X) :- p(X), ~r(X). q(a). s(a).",
      // A negative edge inside an SCC counts even when the instance
      // carrying it has a false subgoal (r(a)).
      "p(X) :- e(X). p(X) :- q(X). q(X) :- p(X), ~p(X), r(X). "
      "r(X) :- p(X), ~s(X). e(a). s(a).",
      // A guard-instantiated generic closure, and a derived guard.
      "tc(G)(X,Y) :- graph(G), G(X,Y). "
      "tc(G)(X,Y) :- graph(G), G(X,Z), tc(G)(Z,Y). graph(e). e(1,2). "
      "e(2,3).",
      "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y). "
      "game(M) :- listed(M), ~banned(M). listed(m1). listed(m2). "
      "banned(m2). m1(a,b). m2(a,b).",
  };
  for (const char* text : programs) CheckProgram(text, EngineOptions());
}

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::string Corpus(const char* name) {
  return ReadFile(std::string(HILOG_SOURCE_DIR) + "/examples/programs/" +
                  name);
}

TEST(ModularVerdictExamplesTest, CorpusPrograms) {
  for (const char* name : {"game.hl", "negation_zoo.hl", "parts.hl"}) {
    CheckProgram(Corpus(name), EngineOptions());
  }
  // Not strongly range restricted: no relevance solve to read (and each
  // bounded Herbrand solve takes seconds).
  EXPECT_EQ(LiteralRuns(Corpus("tc.hl"), EngineOptions()), 1u);
}

// Each shape the solve must decline, so the literal procedure decides.
constexpr const char* kGame =
    "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).\n"
    "game(mv0). game(mv1).\n"
    "mv0(n0,n1). mv0(n1,n2). mv0(n0,n2). mv1(n0,n1).\n";

TEST(ModularVerdictDeclineTest, InstanceNameUsedElsewhere) {
  // Figure 1 settles winning(mv0) in round 1, then meets its instance.
  const std::string text = std::string(kGame) + "r :- winning(mv0)(n0).\n";
  EXPECT_EQ(LiteralRuns(text, EngineOptions()), 1u);
  CheckProgram(text, EngineOptions());
  const std::string facts =
      "w(p)(c).\nw(M)(X) :- g(M), e(X).\ng(p). g(q). e(c). e(d).\n";
  EXPECT_EQ(LiteralRuns(facts, EngineOptions()), 1u);
  CheckProgram(facts, EngineOptions());
  // Without the clash the same rule takes the solve's verdict.
  EXPECT_EQ(LiteralRuns("w(M)(X) :- g(M), e(X).\ng(p). e(c).\n",
                        EngineOptions()),
            0u);
}

TEST(ModularVerdictDeclineTest, LeftmostOnlyEdges) {
  EngineOptions options;
  options.modular.leftmost_only_edges = true;
  EXPECT_EQ(LiteralRuns(kGame, options), 1u);
  CheckProgram(kGame, options);
}

TEST(ModularVerdictDeclineTest, RoundBudgetAroundThePlanDepth) {
  Engine probe;
  ASSERT_EQ(probe.Load(kGame), "");
  ASSERT_TRUE(probe.SolveWellFounded().ok);
  const size_t depth = probe.scheduler_cache().plan->shape->waves.size() - 1;
  ASSERT_EQ(depth, 1u);
  // A guarded rule with no instance still holds p back for a round
  // (p waits on g), though the plan puts p at depth 0; and Figure 1
  // can split one plan component over several rounds.
  const std::string no_instances = "p(a).\np(M) :- g(M), M(X).\n";
  const std::string split =
      "p(X) :- e(X), q(X).\nq(X) :- f(X), p(X).\nq(b) :- f(b).\n"
      "f(a). f(b).\n";
  for (const std::string& text : {std::string(kGame), no_instances, split}) {
    for (size_t max_rounds : {depth, depth + 1, depth + 2, depth + 3}) {
      EngineOptions options;
      options.modular.max_rounds = max_rounds;
      CheckProgram(text, options);
    }
  }
}

// The smallest modular.bottomup.max_facts under which Figure 1 accepts
// `text`, and its reason one below.
std::pair<size_t, std::string> AcceptingBudget(const std::string& text) {
  auto run = [&](size_t max_facts) {
    Engine engine;
    EXPECT_EQ(engine.Load(text), "");
    ModularOptions options;
    options.bottomup.max_facts = max_facts;
    return CheckModularHiLog(engine.store(), engine.program(), options);
  };
  size_t low = 1, high = 4096;
  EXPECT_TRUE(run(high).modularly_stratified);
  EXPECT_FALSE(run(low).modularly_stratified);
  while (high - low > 1) {
    const size_t mid = (low + high) / 2;
    (run(mid).modularly_stratified ? high : low) = mid;
  }
  return {high, run(low).reason};
}

TEST(ModularVerdictDeclineTest, FactBudgetAroundFigure1sNeeds) {
  // A sparse join makes the reduction's worklist far larger than any
  // grounding; a closure over a chain makes one grounding far larger
  // than the reduction. Each budget must decline on its own.
  std::string join = "r(X,Y) :- a(X), b(Y), d(X,Y).\nd(3,4).\n";
  std::string closure = "t(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), e(Y,Z).\n";
  for (int i = 1; i <= 20; ++i) {
    const std::string n = std::to_string(i);
    if (i <= 8) join += "a(" + n + "). b(" + n + ").\n";
    closure += "e(" + n + "," + std::to_string(i + 1) + ").\n";
  }
  const auto [join_budget, join_reason] = AcceptingBudget(join);
  EXPECT_EQ(join_reason, "reduction exceeded its budget");
  const auto [closure_budget, closure_reason] = AcceptingBudget(closure);
  EXPECT_EQ(closure_reason,
            "cannot ground component: component grounding exceeded its "
            "budget");
  const auto [game_budget, game_reason] = AcceptingBudget(kGame);
  for (const auto& [text, budget] :
       {std::pair<std::string, size_t>{join, join_budget},
        std::pair<std::string, size_t>{closure, closure_budget},
        std::pair<std::string, size_t>{kGame, game_budget}}) {
    for (size_t max_facts : {budget - 1, budget, budget + 64}) {
      EngineOptions options;
      options.modular.bottomup.max_facts = max_facts;
      CheckProgram(text, options);
    }
    // At the default budget the solve decides.
    EXPECT_EQ(LiteralRuns(text, EngineOptions()), 0u);
  }
}

}  // namespace
}  // namespace hilog
