#include "src/analysis/modular.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "src/analysis/dependency.h"
#include "src/analysis/range_restriction.h"
#include "src/analysis/stratification.h"
#include "src/eval/scheduler.h"
#include "src/ground/grounder.h"
#include "src/lang/printer.h"
#include "src/term/unify.h"

namespace hilog {
namespace {

bool HeadNameHasVariables(const TermStore& store, const Rule& rule) {
  std::vector<TermId> vars;
  CollectNameVariables(store, rule.head, &vars);
  return !vars.empty();
}

bool AnyLiteralNameHasVariables(const TermStore& store, const Rule& rule) {
  std::vector<TermId> vars;
  CollectNameVariables(store, rule.head, &vars);
  for (const Literal& lit : rule.body) {
    if (lit.atom != kNoTerm) CollectNameVariables(store, lit.atom, &vars);
  }
  return !vars.empty();
}

bool UsesAggregatesOrBuiltins(const Program& program) {
  for (const Rule& rule : program.rules) {
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kAggregate ||
          lit.kind == Literal::Kind::kBuiltin) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

ReductionResult HiLogReduce(TermStore& store, const std::vector<Rule>& rules,
                            const SettledModel& settled, size_t max_rules) {
  ReductionResult result;
  std::deque<Rule> worklist(rules.begin(), rules.end());
  while (!worklist.empty()) {
    if (worklist.size() + result.rules.size() > max_rules) {
      result.truncated = true;
      break;
    }
    Rule rule = std::move(worklist.front());
    worklist.pop_front();

    // Prefer resolving a *positive* settled literal (its join instantiates
    // variables, possibly grounding other literals' names); then a ground
    // negative settled literal. A settled negative literal whose atom is
    // still non-ground waits for a later round.
    size_t positive_index = SIZE_MAX;
    size_t negative_ground_index = SIZE_MAX;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      if (lit.kind != Literal::Kind::kPositive &&
          lit.kind != Literal::Kind::kNegative) {
        continue;
      }
      TermId name = store.PredName(lit.atom);
      if (!store.IsGround(name) || !settled.IsSettledName(name)) continue;
      if (lit.positive()) {
        positive_index = i;
        break;
      }
      if (negative_ground_index == SIZE_MAX && store.IsGround(lit.atom)) {
        negative_ground_index = i;
      }
    }

    if (positive_index != SIZE_MAX) {
      const Literal lit = rule.body[positive_index];
      TermId name = store.PredName(lit.atom);
      Rule remainder = rule;
      remainder.body.erase(remainder.body.begin() + positive_index);
      if (store.IsGround(lit.atom)) {
        // A ground atom matches at most itself, binding nothing: one
        // lookup decides it, instead of a scan of the whole relation.
        if (settled.IsTrue(lit.atom)) worklist.push_back(std::move(remainder));
        continue;
      }
      for (TermId fact : settled.true_atoms().WithName(name)) {
        Substitution subst;
        if (MatchInto(store, lit.atom, fact, &subst)) {
          worklist.push_back(SubstituteRule(store, remainder, subst));
        }
      }
      continue;  // Instances with no matching fact are simply deleted.
    }
    if (negative_ground_index != SIZE_MAX) {
      const Literal& lit = rule.body[negative_ground_index];
      if (settled.IsTrue(lit.atom)) continue;  // Subgoal false: delete rule.
      rule.body.erase(rule.body.begin() + negative_ground_index);
      worklist.push_back(std::move(rule));
      continue;
    }
    result.rules.push_back(std::move(rule));
  }
  return result;
}

namespace {

// Grounds the component rules `component` (which may reference only
// predicate names within the component plus still-unresolved settled
// negatives), resolves those settled negatives, and returns the ground
// program, or sets `error`.
bool GroundComponent(TermStore& store, const std::vector<Rule>& component,
                     const SettledModel& settled,
                     const BottomUpOptions& options, GroundProgram* out,
                     std::string* error) {
  Program as_program;
  as_program.rules = component;
  RelevanceGroundingResult grounded =
      GroundWithRelevance(store, as_program, options);
  if (!grounded.ok) {
    *error = grounded.error;
    return false;
  }
  if (grounded.truncated) {
    *error = "component grounding exceeded its budget";
    return false;
  }
  for (GroundRule& rule : grounded.program.rules) {
    bool deleted = false;
    std::vector<TermId> kept_neg;
    for (TermId a : rule.neg) {
      TermId name = store.PredName(a);
      if (settled.IsSettledName(name)) {
        if (settled.IsTrue(a)) {
          deleted = true;  // Negative subgoal false under M.
          break;
        }
        continue;  // Subgoal true; drop it.
      }
      kept_neg.push_back(a);
    }
    if (deleted) continue;
    rule.neg = std::move(kept_neg);
    out->Add(std::move(rule));
  }
  return true;
}

}  // namespace

ModularResult CheckModularHiLog(TermStore& store, const Program& program,
                                const ModularOptions& options) {
  ModularResult result;
  if (UsesAggregatesOrBuiltins(program)) {
    result.reason =
        "program uses aggregate/builtin literals; use the aggregate "
        "evaluator instead of Figure 1";
    return result;
  }
  if (!IsStronglyRangeRestricted(store, program)) {
    result.reason =
        "Definition 6.6 requires a strongly range-restricted program";
    return result;
  }

  std::vector<Rule> remaining = program.rules;
  while (!remaining.empty()) {
    if (++result.rounds > options.max_rounds) {
      result.reason = "round budget exceeded (recursively generated names?)";
      return result;
    }
    // Partition into R_v (variables in head predicate name) and R_g.
    std::vector<size_t> rg;
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (!HeadNameHasVariables(store, remaining[i])) rg.push_back(i);
    }
    // A ground-named head whose predicate is already settled violates the
    // procedure (Example 6.5).
    for (size_t i : rg) {
      TermId head_name = store.PredName(remaining[i].head);
      if (result.model.IsSettledName(head_name)) {
        result.reason = "rule head instantiated to an already-settled "
                        "predicate: " +
                        RuleToString(store, remaining[i]);
        return result;
      }
    }

    // Build the graph G over ground predicate names appearing in R
    // (excluding settled ones), with edges from R_g rule heads to ground
    // body predicate names.
    DependencyGraph graph;
    auto add_name_node = [&](TermId atom) {
      TermId name = store.PredName(atom);
      if (store.IsGround(name) && !result.model.IsSettledName(name)) {
        graph.AddNode(name);
      }
    };
    for (const Rule& rule : remaining) {
      add_name_node(rule.head);
      for (const Literal& lit : rule.body) {
        if (lit.atom != kNoTerm) add_name_node(lit.atom);
      }
    }
    for (size_t i : rg) {
      const Rule& rule = remaining[i];
      TermId head_name = store.PredName(rule.head);
      for (const Literal& lit : rule.body) {
        if (lit.atom == kNoTerm) continue;
        TermId body_name = store.PredName(lit.atom);
        if (!store.IsGround(body_name) ||
            result.model.IsSettledName(body_name)) {
          if (options.leftmost_only_edges) break;
          continue;
        }
        graph.AddEdge(head_name, body_name, lit.negative());
        if (options.leftmost_only_edges) break;
      }
    }

    if (graph.num_nodes() == 0) {
      result.reason =
          "no ground predicate names to settle (R_g empty and no ground "
          "body names)";
      return result;
    }
    uint32_t num_components = 0;
    std::vector<uint32_t> component_of =
        graph.StronglyConnectedComponents(&num_components);
    std::vector<uint32_t> sinks =
        graph.SinkComponents(component_of, num_components);
    std::unordered_set<uint32_t> sink_set(sinks.begin(), sinks.end());
    std::unordered_set<TermId> lowest_names;
    for (uint32_t v = 0; v < graph.num_nodes(); ++v) {
      if (sink_set.count(component_of[v]) > 0) {
        lowest_names.insert(graph.node(v));
      }
    }
    if (lowest_names.empty()) {
      result.reason = "no lowest component found";
      return result;
    }

    // R_T: the R_g rules with head predicate name in T.
    std::vector<Rule> component_rules;
    std::vector<char> in_component(remaining.size(), 0);
    for (size_t i : rg) {
      TermId head_name = store.PredName(remaining[i].head);
      if (lowest_names.count(head_name) > 0) {
        component_rules.push_back(remaining[i]);
        in_component[i] = 1;
      }
    }
    for (const Rule& rule : component_rules) {
      if (AnyLiteralNameHasVariables(store, rule)) {
        result.reason =
            "component rule has a variable in a predicate name: " +
            RuleToString(store, rule);
        return result;
      }
    }

    GroundProgram ground;
    std::string error;
    if (!GroundComponent(store, component_rules, result.model,
                         options.bottomup, &ground, &error)) {
      result.reason = "cannot ground component: " + error;
      return result;
    }
    if (!IsLocallyStratified(ground)) {
      result.reason = "reduced component is not locally stratified";
      return result;
    }
    WfsResult wfs = ComputeWfsScc(ground);
    if (!wfs.model.IsTotal()) {
      result.reason =
          "internal error: locally stratified component had a partial "
          "well-founded model";
      return result;
    }

    // Settle T and extend M.
    std::vector<TermId> settled_now(lowest_names.begin(), lowest_names.end());
    std::sort(settled_now.begin(), settled_now.end());
    result.settled_per_round.push_back(settled_now);
    for (TermId name : settled_now) result.model.SettleName(name);
    for (TermId atom : wfs.model.TrueAtoms()) {
      result.model.AddTrue(store, atom);
    }

    // R := HiLogReduction of R - R_T modulo M.
    std::vector<Rule> rest;
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (!in_component[i]) rest.push_back(remaining[i]);
    }
    ReductionResult reduced = HiLogReduce(
        store, rest, result.model, options.bottomup.max_facts);
    if (reduced.truncated) {
      result.reason = "reduction exceeded its budget";
      return result;
    }
    remaining = std::move(reduced.rules);
  }

  result.modularly_stratified = true;
  return result;
}

namespace {

size_t SaturatingMul(size_t a, size_t b) {
  return b != 0 && a > SIZE_MAX / b ? SIZE_MAX : a * b;
}

size_t SaturatingAdd(size_t a, size_t b) {
  return a > SIZE_MAX - b ? SIZE_MAX : a + b;
}

}  // namespace

bool Figure1FitsSolve(TermStore& store, const Program& program,
                      const ModularOptions& options,
                      const SchedulerCache& cache, size_t ground_count) {
  if (options.leftmost_only_edges || cache.plan == nullptr) return false;
  const SchedulerPlan& plan = *cache.plan;
  const SchedulerPlan::Shape& shape = *plan.shape;
  if (!shape.exact) return false;

  // Rounds: a component settles at most |members| rounds after its lower
  // names, and guard instances surface only after round 1.
  std::vector<size_t> widest;
  for (const auto& comp : plan.components) {
    if (widest.size() <= comp->depth) widest.resize(comp->depth + 1, 0);
    widest[comp->depth] =
        std::max(widest[comp->depth], comp->member_names.size());
  }
  size_t rounds = shape.instantiated ? 1 : 0;
  for (size_t width : widest) rounds += width;
  if (rounds > options.max_rounds) return false;

  // Grounding: semi-naive rounds each derive a new fact, so both budgets
  // bound the envelope.
  if (ground_count >= options.bottomup.max_facts ||
      ground_count > options.bottomup.max_rounds) {
    return false;
  }

  // True atoms per name, which the reduction joins against.
  std::unordered_map<TermId, size_t> relation;
  size_t largest = 0;
  for (const auto& comp : plan.components) {
    if (comp->cache_key == kNoTerm) continue;
    auto it = cache.components.find(comp->cache_key);
    if (it == cache.components.end()) return false;
    for (const ComponentCacheEntry::NamePublish& np : it->second->names) {
      relation[np.name] = np.true_atoms.size();
      largest = std::max(largest, np.true_atoms.size());
    }
  }
  std::unordered_set<TermId> instance_names(shape.instance_head_names.begin(),
                                            shape.instance_head_names.end());
  TermId last_name = kNoTerm;  // Runs of facts share a name.
  auto clashes = [&](TermId atom) {
    TermId name = store.PredName(atom);
    if (name == last_name) return false;
    last_name = name;
    return instance_names.count(name) > 0;
  };
  size_t items = 0;
  for (const Rule& rule : program.rules) {
    if (!instance_names.empty() && clashes(rule.head)) return false;
    TermId head_name = store.PredName(rule.head);
    size_t product = 1;
    for (const Literal& lit : rule.body) {
      if (lit.atom == kNoTerm) continue;
      if (!instance_names.empty() && clashes(lit.atom)) return false;
      if (!lit.positive() || store.IsGround(lit.atom)) continue;
      TermId name = store.PredName(lit.atom);
      // A literal on the head's own name is never resolved: the name
      // settles only with the rule's component.
      if (name == head_name) continue;
      size_t matches = 0;
      if (store.IsGround(name)) {
        auto it = relation.find(name);
        if (it != relation.end()) matches = it->second;
      } else if (store.IsVariable(name)) {
        matches = largest;
      } else {
        for (const auto& [other, count] : relation) {
          Substitution unused;
          if (count > matches && MatchInto(store, name, other, &unused)) {
            matches = count;
          }
        }
      }
      product = SaturatingMul(product, std::max<size_t>(matches, 1));
    }
    items = SaturatingAdd(
        items, SaturatingAdd(1, SaturatingMul(rule.body.size(), product)));
    if (items > options.bottomup.max_facts) return false;
  }
  return true;
}

ModularResult CheckModularNormal(TermStore& store, const Program& program,
                                 const ModularOptions& options) {
  ModularResult result;
  if (UsesAggregatesOrBuiltins(program)) {
    result.reason = "program uses aggregate/builtin literals";
    return result;
  }
  // The scheduler's condensation: components in reverse topological
  // order, rules grouped by head-name component, so processing ids in
  // increasing order visits dependencies first.
  ProgramCondensation cond = CondenseProgram(store, program);
  for (uint32_t c = 0; c < cond.num_components; ++c) {
    ++result.rounds;
    std::vector<TermId> component_preds;
    for (uint32_t v : cond.members[c]) {
      component_preds.push_back(cond.graph.node(v));
    }
    std::vector<Rule> component_rules;
    for (size_t r : cond.rules_of[c]) {
      component_rules.push_back(program.rules[r]);
    }
    // Reduction of the component modulo the accumulated model
    // (Definition 6.3 is the normal-program specialization of 6.5).
    ReductionResult reduced = HiLogReduce(store, component_rules, result.model,
                                          options.bottomup.max_facts);
    if (reduced.truncated) {
      result.reason = "reduction exceeded its budget";
      return result;
    }
    GroundProgram ground;
    std::string error;
    if (!GroundComponent(store, reduced.rules, result.model, options.bottomup,
                         &ground, &error)) {
      result.reason = "cannot ground component: " + error;
      return result;
    }
    if (!IsLocallyStratified(ground)) {
      result.reason = "reduced component is not locally stratified";
      return result;
    }
    WfsResult wfs = ComputeWfsScc(ground);
    if (!wfs.model.IsTotal()) {
      result.reason =
          "component union lacks a total well-founded model (Definition "
          "6.4 condition 1)";
      return result;
    }
    std::vector<TermId> settled_now = component_preds;
    std::sort(settled_now.begin(), settled_now.end());
    result.settled_per_round.push_back(settled_now);
    for (TermId name : component_preds) result.model.SettleName(name);
    for (TermId atom : wfs.model.TrueAtoms()) {
      result.model.AddTrue(store, atom);
    }
  }
  result.modularly_stratified = true;
  return result;
}

}  // namespace hilog
