// Tests for Section 6.1: the magic-sets rewriting (Example 6.6) and its
// bottom-up evaluation, including the negative-dependency (dn/dn'/box)
// machinery and the detection behaviour on non-modularly-stratified
// programs (the paper's discussion of Example 6.4).

#include "src/transform/magic.h"

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/eval/magic_eval.h"
#include "src/eval/scheduler.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"

namespace hilog {
namespace {

class MagicTest : public ::testing::Test {
 protected:
  Program P(std::string_view text) {
    ParseResult<Program> parsed = ParseProgram(store_, text);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    return *parsed;
  }
  TermId T(std::string_view text) { return *ParseTerm(store_, text); }

  // The EDB base Engine::Query hands the rewrite: the rows of the
  // program's fact-only relation record.
  FactBase Edb(const Program& p) {
    return FactRows(store_, p, *BuildFactRelations(store_, p));
  }

  MagicEvalResult Eval(std::string_view program_text,
                       std::string_view query_text) {
    Program p = P(program_text);
    FactBase edb = Edb(p);
    MagicRewriteOptions options;
    options.edb = &edb;
    MagicProgram magic = MagicRewrite(store_, p, T(query_text), options);
    return EvaluateMagic(store_, magic, MagicEvalOptions());
  }

  TermStore store_;
};

// Example 6.6: the abbreviated game program
//   w(M)(X) :- g(M), M(X,Y), ~w(M)(Y).     query ?- w(m)(a)
// with g, m declared EDB (a row each). The rewriting must produce the
// paper's rule set: the seed, sup_{1,0..3}, the answer rule, two magic
// rules, the dp/dn bookkeeping, and the dns rules (plus the native box
// rule).
TEST_F(MagicTest, Example66RewrittenRuleShapes) {
  Program p = P("w(M)(X) :- g(M), M(X,Y), ~w(M)(Y).");
  FactBase edb;
  edb.Insert(store_, T("g(m)"));
  edb.Insert(store_, T("m(a,b)"));
  MagicRewriteOptions options;
  options.edb = &edb;
  MagicProgram magic = MagicRewrite(store_, p, T("w(m)(a)"), options);

  std::vector<std::string> rendered;
  for (const Rule& rule : magic.rules.rules) {
    rendered.push_back(RuleToString(store_, rule));
  }
  auto has = [&](std::string_view needle) {
    for (const std::string& r : rendered) {
      if (r.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  // Seed magic(w(m)(a), '+').
  EXPECT_TRUE(has("magic(w(m)(a),+)")) << ProgramToString(store_,
                                                          magic.rules);
  // sup_{1,0}(M,X) <- magic(w(M)(X), S).
  EXPECT_TRUE(has("sup_0_0(M,X) :- magic(w(M)(X)"));
  // sup chain: g(M) consumed directly (EDB, no magic for it).
  EXPECT_TRUE(has("sup_0_1(M,X) :- sup_0_0(M,X), g(M)"));
  EXPECT_FALSE(has("magic(g(M)"));
  // magic(M(X,Y), '+') <- sup_{1,1}(M,X): variable-named subgoals are IDB.
  EXPECT_TRUE(has("magic(M(X,Y),+) :- sup_0_1(M,X)"));
  EXPECT_TRUE(has("sup_0_2(M,X,Y) :- sup_0_1(M,X), M(X,Y)"));
  // magic(w(M)(Y), '-') <- sup_{1,2}(M,X,Y).
  EXPECT_TRUE(has("magic(w(M)(Y),-) :- sup_0_2(M,X,Y)"));
  // The negative subgoal is consumed as box(w(M)(Y)).
  EXPECT_TRUE(has("sup_0_3(M,X) :- sup_0_2(M,X,Y), box(w(M)(Y))"));
  // Answer rule.
  EXPECT_TRUE(has("w(M)(X) :- sup_0_3(M,X)"));
  // dp/dn bookkeeping for the IDB subgoals.
  EXPECT_TRUE(has("dp(w(M)(X),M(X,Y)) :- magic(w(M)(X),-), sup_0_1(M,X)"));
  EXPECT_TRUE(has("dn(w(M)(X),w(M)(Y)) :- magic(w(M)(X),-), sup_0_2(M,X,Y)"));
  // Transitive variants via dp(P, w(M)(X)).
  EXPECT_TRUE(has("dn(#P0,w(M)(Y)) :- dp(#P0,w(M)(X)), sup_0_2(M,X,Y)"));
  // Settledness rules.
  EXPECT_TRUE(has("dns(#Q) :- magic(#Q,-), #Q"));
  EXPECT_TRUE(has("dns(#Q) :- magic(#Q,-), box(#Q)"));
  // The native box rule is documented.
  EXPECT_NE(magic.BoxRuleDescription(store_).find("forall Q"),
            std::string::npos);
}

TEST_F(MagicTest, Example66QueryEvaluation) {
  // Full game: m acyclic chain a->b->c. w(m)(c) false, w(m)(b) true,
  // w(m)(a) false.
  const char* game =
      "w(M)(X) :- g(M), M(X,Y), ~w(M)(Y)."
      "g(m). m(a,b). m(b,c).";
  EXPECT_EQ(Eval(game, "w(m)(b)").ground_status, QueryStatus::kTrue);
  EXPECT_EQ(Eval(game, "w(m)(a)").ground_status, QueryStatus::kSettledFalse);
  EXPECT_EQ(Eval(game, "w(m)(c)").ground_status, QueryStatus::kSettledFalse);
}

TEST_F(MagicTest, OpenQueryEnumeratesAnswers) {
  const char* game =
      "w(M)(X) :- g(M), M(X,Y), ~w(M)(Y)."
      "g(m). m(a,b). m(b,c). m(c,d).";
  MagicEvalResult result = Eval(game, "w(m)(X)");
  // Winning positions: c (move to lost d) and a (move to b... b moves to
  // c which wins, so b is lost; a moves to lost b: a wins).
  std::vector<std::string> answers;
  for (TermId a : result.answers) answers.push_back(store_.ToString(a));
  std::sort(answers.begin(), answers.end());
  EXPECT_EQ(answers,
            (std::vector<std::string>{"w(m)(a)", "w(m)(c)"}));
}

TEST_F(MagicTest, DefiniteProgramQuery) {
  const char* tc =
      "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y)."
      "e(1,2). e(2,3). e(3,4).";
  MagicEvalResult r1 = Eval(tc, "t(1,4)");
  EXPECT_EQ(r1.ground_status, QueryStatus::kTrue);
  MagicEvalResult r2 = Eval(tc, "t(1,X)");
  EXPECT_EQ(r2.answers.size(), 3u);
  MagicEvalResult r3 = Eval(tc, "t(4,1)");
  // No derivation; no negation involved, so the atom is never negatively
  // called — for a pure positive query, failure shows as no answers.
  EXPECT_TRUE(r3.answers.empty());
}

TEST_F(MagicTest, MagicIsQueryDirected) {
  // Two disconnected components; querying one must not derive answer
  // facts for the other.
  const char* tc =
      "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y)."
      "e(1,2). e(2,3). e(10,11). e(11,12).";
  Program p = P(tc);
  FactBase edb = Edb(p);
  MagicRewriteOptions options;
  options.edb = &edb;
  MagicProgram magic = MagicRewrite(store_, p, T("t(1,X)"), options);
  MagicEvalResult result = EvaluateMagic(store_, magic, MagicEvalOptions());
  EXPECT_EQ(result.answers.size(), 2u);
  for (TermId a : result.answers) {
    EXPECT_EQ(store_.ToString(a).find("t(1"), 0u) << store_.ToString(a);
  }
}

TEST_F(MagicTest, HiLogParameterizedQueryWithVariableName) {
  // Strongly range-restricted programs permit queries with variables in
  // predicate names (Section 6.1): enumerate both games.
  const char* games =
      "w(M)(X) :- g(M), M(X,Y), ~w(M)(Y)."
      "g(m1). g(m2). m1(a,b). m2(x,y). m2(y,z).";
  MagicEvalResult result = Eval(games, "w(G)(a)");
  std::vector<std::string> answers;
  for (TermId a : result.answers) answers.push_back(store_.ToString(a));
  std::sort(answers.begin(), answers.end());
  EXPECT_EQ(answers, (std::vector<std::string>{"w(m1)(a)"}));
}

// The paper (end of 6.1): the method does not work for Example 6.4-style
// programs — it "would notice the negative dependency of p(a) on itself
// ... and not get as far as checking p(b)". Our evaluator reports the
// query as unsettled rather than returning a wrong answer.
TEST_F(MagicTest, Example64QueryStaysUnsettled) {
  const char* program =
      "p(X) :- t(X,Y,Z), ~p(Y), ~p(Z)."
      "t(a,b,a)."
      "p(b) :- t(X,Y,b).";
  MagicEvalResult result = Eval(program, "p(a)");
  EXPECT_EQ(result.ground_status, QueryStatus::kUnsettled);
  EXPECT_FALSE(result.unsettled_negative_calls.empty());
}

TEST_F(MagicTest, FlounderingOpenQueryYieldsNoAnswers) {
  // With the body ordered negation-first and an *open* query, the
  // negative call magic(q(X),'-') stays non-ground (floundering): the
  // evaluator cannot settle it and produces no (wrong) answers.
  const char* bad = "p(X) :- ~q(X), r(X). r(a).";
  MagicEvalResult open = Eval(bad, "p(X)");
  EXPECT_TRUE(open.answers.empty());
  // A ground call binds X from the head, so the same rule works: q(a) has
  // no rules, is boxed, and p(a) succeeds.
  MagicEvalResult closed = Eval(bad, "p(a)");
  EXPECT_EQ(closed.ground_status, QueryStatus::kTrue);
}

TEST_F(MagicTest, QueriesOnEdbRelationsAnswerDirectly) {
  // The engine's EDB rows are probed in place rather than copied into
  // the rewritten program; querying the EDB relation itself must still
  // enumerate its tuples.
  Engine engine;
  ASSERT_EQ(engine.Load("e(1,2). e(1,3). e(2,3). t(X,Y) :- e(X,Y)."), "");
  Engine::QueryAnswer direct = engine.Query("e(1,X)");
  ASSERT_TRUE(direct.ok) << direct.error;
  EXPECT_EQ(direct.answers.size(), 2u);
  Engine::QueryAnswer ground = engine.Query("e(2,3)");
  EXPECT_EQ(ground.ground_status, QueryStatus::kTrue);
  Engine::QueryAnswer miss = engine.Query("e(3,2)");
  EXPECT_EQ(miss.ground_status, QueryStatus::kSettledFalse);
  // Repeated queries reuse the rows and keep answering.
  for (int i = 0; i < 3; ++i) {
    Engine::QueryAnswer again = engine.Query("t(1,X)");
    EXPECT_EQ(again.answers.size(), 2u);
  }
  // Appended facts reach the rows.
  ASSERT_EQ(engine.LoadMore("e(3,4)."), "");
  Engine::QueryAnswer fresh = engine.Query("t(3,X)");
  EXPECT_EQ(fresh.answers.size(), 1u);
}

TEST_F(MagicTest, FactRelationsDetection) {
  Program p = P(
      "e(1,2). e(2,3). g(m). t(X,Y) :- e(X,Y). w :- t(1,2)."
      "h(a). h(X). s(f(b)). f(Y)(c) :- s(f(Y)).");
  auto record = BuildFactRelations(store_, p);
  auto rows = [&](std::string_view name) -> int {
    auto it = record->relations.find(T(name));
    return it == record->relations.end() ? -1 : it->second.rows;
  };
  EXPECT_EQ(rows("e"), 2);
  EXPECT_EQ(rows("g"), 1);
  EXPECT_EQ(rows("t"), -1);
  EXPECT_EQ(rows("w"), -1);
  EXPECT_EQ(rows("h"), -1);  // h(X) is not a ground fact.
  // The variable-named head f(Y)(c) matches no plain name, and s guards it.
  EXPECT_EQ(rows("s"), 1);
  EXPECT_TRUE(record->relations.at(T("s")).guard);
  EXPECT_FALSE(record->relations.at(T("e")).guard);
  // The EDB the magic rewrite reads holds exactly those relations' rows.
  FactBase edb = FactRows(store_, p, *record);
  EXPECT_EQ(edb.size(), 4u);
  EXPECT_TRUE(edb.WithName(T("h")).empty());
}

TEST_F(MagicTest, StratifiedNegationThroughTwoLevels) {
  const char* program =
      "top(X) :- mid(X), ~bot(X)."
      "mid(X) :- base(X), ~excl(X)."
      "base(1). base(2). base(3). excl(2). bot(3).";
  EXPECT_EQ(Eval(program, "top(1)").ground_status, QueryStatus::kTrue);
  EXPECT_EQ(Eval(program, "top(2)").ground_status,
            QueryStatus::kSettledFalse);
  EXPECT_EQ(Eval(program, "top(3)").ground_status,
            QueryStatus::kSettledFalse);
}

TEST_F(MagicTest, DeepNegationChainSettlesInOrder) {
  // w-chain of length 8 requires alternating box firings.
  std::string program = "w(X) :- m(X,Y), ~w(Y).";
  for (int i = 0; i < 8; ++i) {
    program += "m(" + std::to_string(i) + "," + std::to_string(i + 1) + ").";
  }
  // Chain 0 -> 1 -> ... -> 8: w(8) false, w(7) true, alternating; so
  // w(1) is won and w(0) is lost.
  MagicEvalResult odd = Eval(program, "w(1)");
  EXPECT_EQ(odd.ground_status, QueryStatus::kTrue);
  MagicEvalResult even = Eval(program, "w(0)");
  EXPECT_EQ(even.ground_status, QueryStatus::kSettledFalse);
}

}  // namespace
}  // namespace hilog
