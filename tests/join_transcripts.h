// Whole-evaluation transcripts for the join-path golden suites
// (kernel_test, column_join_test): every evaluator's output rendered as
// text in enumeration order, so any difference in the atoms derived or
// in the order they come out shows up as a transcript diff against the
// records in tests/golden/.
#ifndef HILOG_TESTS_JOIN_TRANSCRIPTS_H_
#define HILOG_TESTS_JOIN_TRANSCRIPTS_H_

#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/eval/bottomup.h"
#include "src/eval/scheduler.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"
#include "src/transform/universal.h"

namespace hilog::testing {

inline std::string ChainTc(int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += "e(n" + std::to_string(i) + ",n" + std::to_string(i + 1) +
            ").\n";
  }
  text += "t(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), e(Y,Z).\n";
  return text;
}

// One full engine pass: the well-founded model in enumeration order, the
// stratified model when the program admits one, each magic query's
// answers in derivation order, and (for definite programs) the tabled
// answers.
inline std::string EngineTranscript(const std::string& text,
                                    const std::vector<std::string>& queries,
                                    const std::string& tabled_goal = "") {
  Engine engine;
  std::string out;
  std::string error = engine.Load(text);
  if (!error.empty()) return "parse error: " + error;

  Engine::WfsAnswer wfs = engine.SolveWellFounded();
  out += "wfs ok=" + std::to_string(wfs.ok) +
         " exact=" + std::to_string(wfs.exact) +
         " ground=" + std::to_string(wfs.ground_rules) + "\n";
  for (TermId atom : wfs.model.TrueAtoms()) {
    out += "  " + engine.store().ToString(atom) + "\n";
  }
  for (TermId atom : wfs.model.UndefinedAtoms()) {
    out += "  undef " + engine.store().ToString(atom) + "\n";
  }

  StratifiedEvalResult stratified = engine.SolveStratified();
  out += "stratified ok=" + std::to_string(stratified.ok) + "\n";
  if (stratified.ok) {
    for (TermId atom : stratified.facts.facts()) {
      out += "  " + engine.store().ToString(atom) + "\n";
    }
  }

  for (const std::string& q : queries) {
    Engine::QueryAnswer answer = engine.Query(q);
    out += "query " + q + " ok=" + std::to_string(answer.ok) +
           " status=" +
           std::to_string(static_cast<int>(answer.ground_status)) + "\n";
    for (TermId atom : answer.answers) {
      out += "  " + engine.store().ToString(atom) + "\n";
    }
  }

  if (!tabled_goal.empty()) {
    TabledResult tabled = engine.ProveTabled(tabled_goal);
    out += "tabled " + tabled_goal +
           " complete=" + std::to_string(tabled.complete) + "\n";
    for (TermId atom : tabled.answers) {
      out += "  " + engine.store().ToString(atom) + "\n";
    }
  }
  return out;
}

// A maintenance solve after a delta with retraction, then a magic query.
inline std::string DeltaPublishTranscript() {
  Engine engine;
  std::string out;
  std::string error =
      engine.Load(ChainTc(12) + "iso(a).\niso2(X) :- iso(X).\n");
  if (!error.empty()) return "load error: " + error;
  auto render = [&](const Engine::WfsAnswer& answer) {
    out += "solve ok=" + std::to_string(answer.ok) + "\n";
    for (TermId atom : answer.model.TrueAtoms()) {
      out += "  " + engine.store().ToString(atom) + "\n";
    }
  };
  render(engine.SolveWellFounded());
  error = engine.ApplyDelta("e(n12,n13).", "e(n3,n4).", nullptr);
  if (!error.empty()) return out + "delta error: " + error;
  render(engine.SolveWellFounded());
  Engine::QueryAnswer q = engine.Query("t(n0,X)");
  if (!q.ok) return out + "query error: " + q.error;
  for (TermId atom : q.answers) {
    out += "  q " + engine.store().ToString(atom) + "\n";
  }
  return out;
}

// The least model of the positive projection, one fact per line in
// derivation order.
inline std::string LeastModelTranscript(const std::string& text) {
  TermStore store;
  ParseResult<Program> parsed = ParseProgram(store, text);
  if (!parsed.ok()) return "parse error: " + parsed.error;
  BottomUpResult result =
      LeastModelOfPositiveProjection(store, *parsed, BottomUpOptions());
  std::string out = result.truncated ? "truncated\n" : "";
  for (TermId fact : result.facts.facts()) {
    out += store.ToString(fact) + "\n";
  }
  return out;
}

// `text` rewritten through the universal call/u_i encoding (Section 2),
// which buries every joining term one level down.
inline std::string UniversalEncodingText(const std::string& text) {
  TermStore store;
  ParseResult<Program> parsed = ParseProgram(store, text);
  if (!parsed.ok()) return "parse error: " + parsed.error;
  UniversalTransform u(store);
  Program encoded = u.EncodeProgram(*parsed);
  std::string out;
  for (const Rule& rule : encoded.rules) {
    out += RuleToString(store, rule) + "\n";
  }
  return out;
}

// The scheduler's well-founded true atoms in enumeration order.
inline std::string ComponentWfsTranscript(const std::string& text) {
  TermStore store;
  ParseResult<Program> parsed = ParseProgram(store, text);
  if (!parsed.ok()) return "parse error: " + parsed.error;
  ComponentWfsResult result =
      SolveWfsByComponents(store, *parsed, BottomUpOptions());
  if (!result.ok) return "error: " + result.error;
  std::string out;
  for (TermId atom : result.model.TrueAtoms()) {
    out += store.ToString(atom) + "\n";
  }
  return out;
}

// A magic-sets query's answers in derivation order.
inline std::string MagicQueryTranscript(const std::string& text,
                                        const std::string& query) {
  Engine engine;
  std::string error = engine.Load(text);
  if (!error.empty()) return "load error: " + error;
  Engine::QueryAnswer answer = engine.Query(query);
  if (!answer.ok) return "query error: " + answer.error;
  std::string out;
  for (TermId atom : answer.answers) {
    out += engine.store().ToString(atom) + "\n";
  }
  return out;
}

}  // namespace hilog::testing

#endif  // HILOG_TESTS_JOIN_TRANSCRIPTS_H_
