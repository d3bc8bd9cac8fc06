#include "src/analysis/range_restriction.h"

#include <unordered_set>

namespace hilog {
namespace {

using VarSet = std::unordered_set<TermId>;

void InsertAll(VarSet* set, const std::vector<TermId>& vars) {
  set->insert(vars.begin(), vars.end());
}

bool Covered(const VarSet& set, const std::vector<TermId>& vars) {
  for (TermId v : vars) {
    if (set.count(v) == 0) return false;
  }
  return true;
}

// Argument variables a positive-ish literal *provides* when evaluated:
// positive atoms and aggregate atoms provide their argument variables;
// aggregates additionally provide their result.
std::vector<TermId> ProvidedVars(const TermStore& store, const Literal& lit) {
  std::vector<TermId> provided;
  switch (lit.kind) {
    case Literal::Kind::kPositive:
      CollectArgumentVariables(store, lit.atom, &provided);
      break;
    case Literal::Kind::kAggregate:
      CollectArgumentVariables(store, lit.atom, &provided);
      provided.push_back(lit.result);
      break;
    case Literal::Kind::kBuiltin:
      provided.push_back(lit.result);
      break;
    case Literal::Kind::kNegative:
      break;
  }
  return provided;
}

// The literals participating in condition 3's ordering: those that provide
// bindings (positive, aggregate, builtin).
bool IsOrderable(const Literal& lit) {
  return lit.kind != Literal::Kind::kNegative;
}

// Name variables that must be covered before the literal can be evaluated.
// Builtins additionally require their operands.
std::vector<TermId> RequiredBeforeVars(const TermStore& store,
                                       const Literal& lit) {
  std::vector<TermId> required;
  switch (lit.kind) {
    case Literal::Kind::kPositive:
    case Literal::Kind::kNegative:
    case Literal::Kind::kAggregate:
      CollectNameVariables(store, lit.atom, &required);
      break;
    case Literal::Kind::kBuiltin:
      store.CollectVariables(lit.lhs, &required);
      store.CollectVariables(lit.rhs, &required);
      break;
  }
  return required;
}

// Checks condition 3 of Definitions 5.5/5.6: an ordering of the orderable
// body literals such that each literal's required variables are covered by
// arguments of earlier literals (plus `initially_covered`). Greedy
// selection is complete because coverage only grows.
bool OrderingExists(const TermStore& store, const Rule& rule,
                    const VarSet& initially_covered) {
  std::vector<const Literal*> pending;
  for (const Literal& lit : rule.body) {
    if (IsOrderable(lit)) pending.push_back(&lit);
  }
  VarSet covered = initially_covered;
  while (!pending.empty()) {
    bool progress = false;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (Covered(covered, RequiredBeforeVars(store, *pending[i]))) {
        InsertAll(&covered, ProvidedVars(store, *pending[i]));
        pending.erase(pending.begin() + i);
        progress = true;
        break;
      }
    }
    if (!progress) return false;
  }
  return true;
}

// Union of argument variables provided by all positive-ish body literals.
VarSet AllProvidedVars(const TermStore& store, const Rule& rule) {
  VarSet provided;
  for (const Literal& lit : rule.body) {
    InsertAll(&provided, ProvidedVars(store, lit));
  }
  return provided;
}

}  // namespace

bool IsNormalRangeRestrictedRule(const TermStore& store, const Rule& rule) {
  VarSet positive_vars;
  for (const Literal& lit : rule.body) {
    if (lit.positive() || lit.kind == Literal::Kind::kAggregate) {
      std::vector<TermId> vars;
      store.CollectVariables(lit.atom, &vars);
      InsertAll(&positive_vars, vars);
    }
    if (lit.kind == Literal::Kind::kAggregate) positive_vars.insert(lit.result);
    if (lit.kind == Literal::Kind::kBuiltin) positive_vars.insert(lit.result);
  }
  std::vector<TermId> head_vars;
  store.CollectVariables(rule.head, &head_vars);
  if (!Covered(positive_vars, head_vars)) return false;
  for (const Literal& lit : rule.body) {
    if (lit.negative()) {
      std::vector<TermId> vars;
      store.CollectVariables(lit.atom, &vars);
      if (!Covered(positive_vars, vars)) return false;
    }
  }
  return true;
}

bool IsNormalRangeRestricted(const TermStore& store, const Program& program) {
  for (const Rule& rule : program.rules) {
    if (!IsNormalRangeRestrictedRule(store, rule)) return false;
  }
  return true;
}

bool IsRangeRestrictedRule(const TermStore& store, const Rule& rule) {
  VarSet provided = AllProvidedVars(store, rule);
  std::vector<TermId> head_name_vars;
  CollectNameVariables(store, rule.head, &head_name_vars);
  VarSet head_name_set(head_name_vars.begin(), head_name_vars.end());

  // Condition 1: head argument variables bound by positive body arguments.
  std::vector<TermId> head_arg_vars;
  CollectArgumentVariables(store, rule.head, &head_arg_vars);
  if (!Covered(provided, head_arg_vars)) return false;

  // Condition 2: negative-literal variables bound by positive body
  // arguments or the head's name.
  for (const Literal& lit : rule.body) {
    if (!lit.negative()) continue;
    std::vector<TermId> vars;
    store.CollectVariables(lit.atom, &vars);
    for (TermId v : vars) {
      if (provided.count(v) == 0 && head_name_set.count(v) == 0) return false;
    }
  }

  // Condition 3: ordering with head name variables available initially.
  return OrderingExists(store, rule, head_name_set);
}

bool IsRangeRestricted(const TermStore& store, const Program& program) {
  for (const Rule& rule : program.rules) {
    if (!IsRangeRestrictedRule(store, rule)) return false;
  }
  return true;
}

bool IsStronglyRangeRestrictedRule(const TermStore& store, const Rule& rule) {
  // A ground fact has no variables to bind; skipping the set building
  // below matters because fact rules dominate large EDB programs.
  if (rule.IsFact() && store.IsGround(rule.head)) return true;
  VarSet provided = AllProvidedVars(store, rule);

  // Condition 1: *all* head variables (argument and name position) bound
  // by positive body arguments.
  std::vector<TermId> head_vars;
  store.CollectVariables(rule.head, &head_vars);
  if (!Covered(provided, head_vars)) return false;

  // Condition 2: negative-literal variables bound by positive body
  // arguments (the head name no longer helps).
  for (const Literal& lit : rule.body) {
    if (!lit.negative()) continue;
    std::vector<TermId> vars;
    store.CollectVariables(lit.atom, &vars);
    if (!Covered(provided, vars)) return false;
  }

  // Condition 3: ordering with nothing available initially.
  return OrderingExists(store, rule, VarSet());
}

bool IsStronglyRangeRestricted(const TermStore& store,
                               const Program& program) {
  for (const Rule& rule : program.rules) {
    if (!IsStronglyRangeRestrictedRule(store, rule)) return false;
  }
  return true;
}

bool IsRangeRestrictedQuery(TermStore& store,
                            const std::vector<Literal>& query) {
  // Build answer(X_1,...,X_n) <- Q with X_i the query's variables, then
  // apply Definition 5.5 to the constructed rule.
  Rule rule;
  rule.body = query;
  std::vector<TermId> vars;
  for (const Literal& lit : query) CollectLiteralVariables(store, lit, &vars);
  TermId answer = store.MakeSymbol("answer");
  rule.head = store.MakeApply(answer, vars);
  return IsRangeRestrictedRule(store, rule);
}

namespace {

bool IsFlatAtom(const TermStore& store, TermId atom) {
  if (!store.IsApply(atom)) return true;  // A symbol or variable atom.
  TermId name = store.apply_name(atom);
  if (store.IsApply(name)) return false;
  for (TermId a : store.apply_args(atom)) {
    if (store.IsApply(a)) return false;
  }
  return true;
}

}  // namespace

bool IsDatahilog(const TermStore& store, const Program& program) {
  for (const Rule& rule : program.rules) {
    if (!IsFlatAtom(store, rule.head)) return false;
    for (const Literal& lit : rule.body) {
      if (lit.atom != kNoTerm && !IsFlatAtom(store, lit.atom)) return false;
    }
  }
  return true;
}

bool RuleFlounders(const TermStore& store, const Rule& rule) {
  VarSet bound;
  std::vector<TermId> head_vars;
  store.CollectVariables(rule.head, &head_vars);
  InsertAll(&bound, head_vars);
  for (const Literal& lit : rule.body) {
    std::vector<TermId> name_vars = RequiredBeforeVars(store, lit);
    if (!Covered(bound, name_vars)) return true;
    if (lit.negative()) {
      std::vector<TermId> vars;
      store.CollectVariables(lit.atom, &vars);
      if (!Covered(bound, vars)) return true;
    }
    InsertAll(&bound, ProvidedVars(store, lit));
  }
  return false;
}

bool ProgramFlounders(const TermStore& store, const Program& program) {
  for (const Rule& rule : program.rules) {
    if (RuleFlounders(store, rule)) return true;
  }
  return false;
}

size_t DatahilogAtomBound(const TermStore& store, const Program& program) {
  std::vector<TermId> symbols;
  CollectProgramSymbols(store, program, &symbols);
  std::vector<size_t> arities;
  CollectProgramArities(store, program, &arities);
  size_t c = symbols.size();
  size_t total = 0;
  for (size_t n : arities) {
    size_t product = 1;
    for (size_t i = 0; i < n + 1; ++i) product *= c;  // c^(n+1) flat terms.
    total += product;
  }
  return total;
}

}  // namespace hilog
