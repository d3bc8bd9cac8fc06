#include "src/eval/stratified.h"

#include <set>
#include <unordered_map>

#include "src/analysis/range_restriction.h"
#include "src/analysis/stratification.h"
#include "src/eval/cancel.h"
#include "src/lang/printer.h"

namespace hilog {

namespace {

/// Why `program` is not admitted to stratified evaluation, or "" when it
/// is; `*strata` receives the number of distinct head levels.
std::string Rejection(const TermStore& store, const Program& program,
                      size_t* strata) {
  std::unordered_map<TermId, int> levels;
  if (!IsStratified(store, program, &levels)) {
    return "program is not stratified (Definition 6.1)";
  }
  if (!IsStronglyRangeRestricted(store, program)) {
    return "stratified evaluation requires a strongly range-restricted "
           "program (heads and negative literals bound by positive bodies)";
  }
  bool has_negation = false;
  for (const Rule& rule : program.rules) {
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kAggregate ||
          lit.kind == Literal::Kind::kBuiltin) {
        return "aggregates/builtins belong to the aggregate evaluator, not "
               "stratified evaluation";
      }
      if (!lit.negative()) continue;
      has_negation = true;
      if (!store.IsGround(store.PredName(lit.atom))) {
        return "negative literal with a non-ground predicate name cannot be "
               "stratified syntactically: " +
               LiteralToString(store, lit);
      }
    }
  }
  if (has_negation) {
    // A variable-named head could create facts for *any* predicate,
    // invalidating the syntactic level assignment under negation.
    for (const Rule& rule : program.rules) {
      std::vector<TermId> head_name_vars;
      CollectNameVariables(store, rule.head, &head_name_vars);
      if (!head_name_vars.empty()) {
        return "variable in a head predicate name is incompatible with "
               "syntactic stratification (use the well-founded engine): " +
               RuleToString(store, rule);
      }
    }
  }
  std::set<int> head_levels;
  for (const Rule& rule : program.rules) {
    head_levels.insert(levels[store.PredName(rule.head)]);
  }
  *strata = head_levels.size();
  return "";
}

}  // namespace

StratifiedEvalResult EvaluateStratifiedBy(
    const TermStore& store, const Program& program, size_t max_facts,
    const std::function<ComponentWfsResult()>& solve) {
  StratifiedEvalResult result;
  result.error = Rejection(store, program, &result.strata);
  if (!result.error.empty()) return result;
  ComponentWfsResult solved = solve();
  if (!solved.ok) {
    result.error = solved.error;
  } else if (solved.cancelled) {
    result.error = CancelReasonMessage(
        CurrentCancelToken() != nullptr ? CurrentCancelToken()->reason()
                                        : CancelReason::kCancelled);
  } else if (solved.truncated || solved.model.CountTrue() > max_facts) {
    result.error = "fact or round budget exhausted";
  } else {
    for (TermId atom : solved.model.TrueAtoms()) {
      result.facts.Insert(store, atom);
    }
    result.ok = true;
  }
  return result;
}

StratifiedEvalResult EvaluateStratified(TermStore& store,
                                        const Program& program,
                                        const BottomUpOptions& options) {
  return EvaluateStratifiedBy(store, program, options.max_facts, [&] {
    return SolveWfsByComponents(store, program, options, /*cache=*/nullptr,
                                /*need_ground=*/false);
  });
}

}  // namespace hilog
