#include "src/eval/aggregate.h"

#include <algorithm>
#include <functional>
#include <map>
#include <string>

#include "src/analysis/range_restriction.h"
#include "src/lang/printer.h"
#include "src/term/unify.h"

namespace hilog {
namespace {

// Evaluates one aggregate literal under `subst` against `snapshot`:
// enumerates group keys (bindings of the atom's free variables that also
// occur elsewhere in the rule), aggregating the value variable over the
// distinct matching facts of each group. Calls `fn` once per group with
// the extended substitution (group vars + result bound).
bool EvaluateAggregate(TermStore& store, const Literal& lit,
                       const std::vector<TermId>& group_vars,
                       const FactBase& snapshot, const Substitution& subst,
                       const std::function<bool(const Substitution&)>& fn) {
  TermId pattern = subst.Apply(store, lit.atom);
  struct Accumulator {
    int64_t sum = 0;
    int64_t count = 0;
    int64_t min = 0;
    int64_t max = 0;
    Substitution binding;
  };
  // Group key: the instantiated group variables, in order.
  std::map<std::vector<TermId>, Accumulator> groups;
  // The snapshot is immutable for the whole round: frozen batch probe,
  // zero-copy span where no argument discriminates.
  std::vector<TermId> scratch;
  for (TermId fact :
       snapshot.CandidatesBatch(store, pattern, &scratch, /*frozen=*/true)) {
    Substitution match = subst;
    if (!MatchInto(store, pattern, fact, &match)) continue;
    TermId value_term = match.Apply(store, lit.value);
    std::optional<int64_t> value = store.NumberValue(value_term);
    if (!value.has_value()) continue;  // Non-numeric contribution ignored.
    std::vector<TermId> key;
    key.reserve(group_vars.size());
    for (TermId v : group_vars) key.push_back(match.Apply(store, v));
    auto [it, inserted] = groups.try_emplace(key);
    Accumulator& acc = it->second;
    if (inserted) {
      acc.min = acc.max = *value;
      acc.binding = subst;
      for (size_t i = 0; i < group_vars.size(); ++i) {
        if (store.IsVariable(group_vars[i]) &&
            acc.binding.Lookup(group_vars[i]) == kNoTerm) {
          acc.binding.Bind(group_vars[i], key[i]);
        }
      }
    }
    acc.sum += *value;
    acc.count += 1;
    acc.min = std::min(acc.min, *value);
    acc.max = std::max(acc.max, *value);
  }
  for (auto& [key, acc] : groups) {
    int64_t result_value = 0;
    switch (lit.agg_func) {
      case AggregateFunc::kSum:
        result_value = acc.sum;
        break;
      case AggregateFunc::kCount:
        result_value = acc.count;
        break;
      case AggregateFunc::kMin:
        result_value = acc.min;
        break;
      case AggregateFunc::kMax:
        result_value = acc.max;
        break;
    }
    TermId result_term = store.MakeSymbol(std::to_string(result_value));
    Substitution extended = acc.binding;
    TermId bound = extended.Apply(store, lit.result);
    if (store.IsVariable(bound)) {
      extended.Bind(bound, result_term);
    } else if (bound != result_term) {
      continue;  // Result position pre-bound to a different value.
    }
    if (!fn(extended)) return false;
  }
  return true;
}

bool EvaluateBuiltin(TermStore& store, const Literal& lit,
                     const Substitution& subst,
                     const std::function<bool(const Substitution&)>& fn) {
  TermId lhs = subst.Apply(store, lit.lhs);
  TermId rhs = subst.Apply(store, lit.rhs);
  std::optional<int64_t> a = store.NumberValue(lhs);
  std::optional<int64_t> b = store.NumberValue(rhs);
  if (!a.has_value() || !b.has_value()) return true;  // Not yet evaluable.
  int64_t value = 0;
  switch (lit.builtin_op) {
    case BuiltinOp::kMul:
      value = *a * *b;
      break;
    case BuiltinOp::kAdd:
      value = *a + *b;
      break;
    case BuiltinOp::kSub:
      value = *a - *b;
      break;
  }
  TermId result_term = store.MakeSymbol(std::to_string(value));
  Substitution extended = subst;
  TermId bound = extended.Apply(store, lit.result);
  if (store.IsVariable(bound)) {
    extended.Bind(bound, result_term);
  } else if (bound != result_term) {
    return true;  // Constraint failed; no extension.
  }
  return fn(extended);
}

// Variables of the aggregate atom that occur elsewhere in the rule (these
// define the aggregation grouping; the rest are "don't care").
std::vector<TermId> GroupVars(const TermStore& store, const Rule& rule,
                              size_t agg_index) {
  const Literal& agg = rule.body[agg_index];
  std::vector<TermId> atom_vars;
  store.CollectVariables(agg.atom, &atom_vars);
  std::vector<TermId> other_vars;
  store.CollectVariables(rule.head, &other_vars);
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (i != agg_index) CollectLiteralVariables(store, rule.body[i], &other_vars);
  }
  std::vector<TermId> group;
  for (TermId v : atom_vars) {
    if (v == agg.value) continue;
    for (TermId w : other_vars) {
      if (v == w) {
        group.push_back(v);
        break;
      }
    }
  }
  return group;
}

struct RoundState {
  TermStore& store;
  const FactBase& snapshot;  // Previous round (aggregates read this).
  FactBase* current;         // This round (positives read/write this).
  bool* changed;
  bool* truncated;
  size_t max_facts;
};

// Left-to-right evaluation of a rule body; aggregates read the snapshot,
// positive literals the current facts.
void EvalBody(const Rule& rule, size_t index, const Substitution& subst,
              RoundState& state) {
  if (*state.truncated) return;
  if (index == rule.body.size()) {
    TermId head = subst.Apply(state.store, rule.head);
    if (!state.store.IsGround(head)) return;
    if (state.current->Insert(state.store, head)) {
      *state.changed = true;
      if (state.current->size() > state.max_facts) *state.truncated = true;
    }
    return;
  }
  const Literal& lit = rule.body[index];
  auto continue_with = [&](const Substitution& extended) {
    EvalBody(rule, index + 1, extended, state);
    return !*state.truncated;
  };
  switch (lit.kind) {
    case Literal::Kind::kPositive: {
      TermId pattern = subst.Apply(state.store, lit.atom);
      // Snapshot (non-frozen probe): the bucket may grow while we derive
      // heads below.
      std::vector<TermId> candidates;
      state.current->CandidatesBatch(state.store, pattern, &candidates,
                                     /*frozen=*/false);
      for (TermId fact : candidates) {
        Substitution extended = subst;
        if (MatchInto(state.store, pattern, fact, &extended)) {
          if (!continue_with(extended)) return;
        }
      }
      return;
    }
    case Literal::Kind::kAggregate: {
      std::vector<TermId> group = GroupVars(state.store, rule, index);
      EvaluateAggregate(state.store, lit, group, state.snapshot, subst,
                        continue_with);
      return;
    }
    case Literal::Kind::kBuiltin:
      EvaluateBuiltin(state.store, lit, subst, continue_with);
      return;
    case Literal::Kind::kNegative:
      return;  // Rejected upfront.
  }
}

}  // namespace

AggregateEvalResult EvaluateWithAggregates(
    TermStore& store, const Program& program,
    const AggregateEvalOptions& options) {
  AggregateEvalResult result;
  for (const Rule& rule : program.rules) {
    for (const Literal& lit : rule.body) {
      if (lit.negative()) {
        result.error =
            "negation is not supported by the aggregate evaluator: " +
            RuleToString(store, rule);
        return result;
      }
    }
  }
  // A rule whose name variables no positive literal binds (Example 2.1's
  // tc(G)(X,Y) :- G(X,Y)) rebinds them to every derived name, tc(tc(G))
  // and on, so the naive inner rounds grow without end long before
  // max_facts trips.
  for (const Rule& rule : program.rules) {
    if (!IsStronglyRangeRestrictedRule(store, rule)) {
      result.error =
          "the aggregate evaluator needs a strongly range-restricted "
          "program (Definition 5.6): " +
          RuleToString(store, rule);
      return result;
    }
  }

  FactBase snapshot;  // Round k-1.
  for (size_t round = 0; round < options.max_outer_rounds; ++round) {
    ++result.outer_rounds;
    FactBase current;
    bool truncated = false;
    // Inner least-fixpoint (naive iteration; aggregate programs are small
    // relative to the WFS workloads, and aggregates need the stable
    // snapshot semantics anyway).
    bool inner_changed = true;
    size_t inner_rounds = 0;
    while (inner_changed && !truncated) {
      if (++inner_rounds > options.max_inner_rounds) {
        truncated = true;
        break;
      }
      inner_changed = false;
      for (const Rule& rule : program.rules) {
        RoundState state{store,           snapshot, &current,
                         &inner_changed,  &truncated, options.max_facts};
        EvalBody(rule, 0, Substitution(), state);
        if (truncated) break;
      }
    }
    if (truncated) {
      result.truncated = true;
      result.facts = std::move(current);
      return result;
    }
    // Outer fixpoint: same fact set as the previous round.
    if (current.size() == snapshot.size()) {
      bool same = true;
      for (TermId f : current.facts()) {
        if (!snapshot.Contains(f)) {
          same = false;
          break;
        }
      }
      if (same) {
        result.converged = true;
        result.facts = std::move(current);
        return result;
      }
    }
    snapshot = std::move(current);
  }
  result.facts = std::move(snapshot);
  return result;  // Not converged within budget.
}

}  // namespace hilog
