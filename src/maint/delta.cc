#include "src/maint/delta.h"

#include <algorithm>
#include <array>
#include <cstring>
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
                             std::vector<size_t>* removed_indices,
                             std::vector<TermId>* removed_heads) {
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
  for (size_t r : hits) removed_heads->push_back(program->rules[r].head);
  program->RemoveAt(hits);
  if (removed_indices != nullptr) {
    removed_indices->insert(removed_indices->end(), hits.begin(), hits.end());
  }
  return "";
}

size_t NextStatementEnd(std::string_view text, size_t pos) {
  // Mirrors the lexer's surface rules: '...' quotes have no escapes, '%'
  // comments run to end of line, and '.' is always the statement
  // terminator outside quotes and comments. A table finds the next of
  // those three characters; memchr skips a quote or comment whole.
  static constexpr std::array<bool, 256> kSpecial = [] {
    std::array<bool, 256> special{};
    special[static_cast<unsigned char>('.')] = true;
    special[static_cast<unsigned char>('\'')] = true;
    special[static_cast<unsigned char>('%')] = true;
    return special;
  }();
  const char* const begin = text.data();
  const char* const end = begin + text.size();
  for (const char* p = begin + std::min(pos, text.size()); p != end;) {
    const char c = *p;
    if (!kSpecial[static_cast<unsigned char>(c)]) {
      ++p;
      continue;
    }
    if (c == '.') return static_cast<size_t>(p + 1 - begin);
    // An unclosed quote or comment runs to the end: no statement follows.
    const void* close = std::memchr(p + 1, c == '%' ? '\n' : '\'',
                                    static_cast<size_t>(end - p - 1));
    if (close == nullptr) break;
    p = static_cast<const char*>(close) + 1;
  }
  return std::string_view::npos;
}

std::vector<std::string_view> SplitStatements(std::string_view text) {
  std::vector<std::string_view> statements;
  for (size_t start = 0;;) {
    const size_t end = NextStatementEnd(text, start);
    if (end == std::string_view::npos) break;
    statements.push_back(text.substr(start, end - start));
    start = end;
  }
  return statements;
}

}  // namespace hilog
