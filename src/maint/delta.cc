#include "src/maint/delta.h"

#include <unordered_set>

#include "src/lang/parser.h"
#include "src/lang/printer.h"

namespace hilog {

std::string ParseFactDelta(TermStore& store, std::string_view additions,
                           std::string_view retractions, FactDelta* delta) {
  *delta = FactDelta();
  if (!additions.empty()) {
    ParseResult<Program> parsed = ParseProgram(store, additions);
    if (!parsed.ok()) return "delta additions: " + parsed.error;
    delta->additions = std::move(*parsed);
  }
  if (!retractions.empty()) {
    ParseResult<Program> parsed = ParseProgram(store, retractions);
    if (!parsed.ok()) return "delta retractions: " + parsed.error;
    for (const Rule& rule : (*parsed).rules) {
      if (!rule.IsFact()) {
        return "delta retraction must be a fact, not a rule: " +
               RuleToString(store, rule);
      }
      if (!store.IsGround(rule.head)) {
        return "delta retraction must be ground: " + RuleToString(store, rule);
      }
      delta->retractions.push_back(rule.head);
    }
  }
  return "";
}

std::string ApplyRetractions(const TermStore& store, Program* program,
                             const std::vector<TermId>& retractions,
                             std::vector<size_t>* removed_indices) {
  if (retractions.empty()) return "";
  std::unordered_set<TermId> targets(retractions.begin(), retractions.end());
  std::vector<size_t> hits;
  std::unordered_set<TermId> matched;
  for (size_t r = 0; r < program->rules.size(); ++r) {
    const Rule& rule = program->rules[r];
    if (!rule.IsFact() || targets.count(rule.head) == 0) continue;
    hits.push_back(r);
    matched.insert(rule.head);
  }
  // Validate every retraction before mutating anything, so a bad delta
  // leaves the program exactly as it was.
  for (TermId atom : retractions) {
    if (matched.count(atom) > 0) continue;
    Rule fact;
    fact.head = atom;
    return "cannot retract " + RuleToString(store, fact) +
           " — not a fact of the program";
  }
  program->RemoveAt(hits);
  if (removed_indices != nullptr) {
    removed_indices->insert(removed_indices->end(), hits.begin(), hits.end());
  }
  return "";
}

std::vector<std::string_view> SplitStatements(std::string_view text) {
  // Mirrors the lexer's surface rules: '...' quotes have no escapes, '%'
  // comments run to end of line, and '.' is always the statement
  // terminator outside quotes and comments.
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

}  // namespace hilog
