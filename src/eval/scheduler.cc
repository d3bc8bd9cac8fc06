#include "src/eval/scheduler.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "src/eval/cancel.h"
#include "src/eval/kernel.h"
#include "src/lang/printer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/term/unify.h"
#include "src/wfs/alternating.h"

namespace hilog {
namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

constexpr uint64_t kSigSeed = 1469598103934665603ull;

// One (serial, rule) pair's share of a program fingerprint
// (SchedulerPlan::program_fingerprint). Aggregate and builtin operands are
// left out: the scheduler refuses such rules before it looks at a plan.
uint64_t RuleFingerprint(uint64_t serial, const Rule& rule) {
  uint64_t h = Mix(Mix(kSigSeed, serial), rule.head);
  for (const Literal& lit : rule.body) {
    h = Mix(h, static_cast<uint64_t>(lit.kind));
    h = Mix(h, lit.atom);
  }
  // Final avalanche (murmur3's fmix64): summed hashes need every input bit
  // spread over the word.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

uint64_t ProgramFingerprint(const Program& program) {
  uint64_t h = 0;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    h += RuleFingerprint(program.serial(r), program.rules[r]);
  }
  return h;
}

// A component's own signature: sorted member names, then rule identities
// in rule order.
uint64_t ComponentSignature(const SchedulerPlan::Component& comp) {
  std::vector<TermId> sorted_names = comp.member_names;
  std::sort(sorted_names.begin(), sorted_names.end());
  uint64_t h = kSigSeed;
  for (TermId name : sorted_names) h = Mix(h, name);
  h = Mix(h, 0xFFFFFFFFull);
  for (uint64_t id : comp.identities) h = Mix(h, id);
  return h;
}

// A variable in the rule's head name or in some body literal's name.
bool HasVariableName(const TermStore& store, const Rule& rule) {
  if (!store.IsGround(store.PredName(rule.head))) return true;
  for (const Literal& lit : rule.body) {
    if (lit.atom != kNoTerm && !store.IsGround(store.PredName(lit.atom))) {
      return true;
    }
  }
  return false;
}

}  // namespace

ProgramCondensation CondenseProgram(const TermStore& store,
                                    const Program& program) {
  ProgramCondensation cond;
  cond.graph = PredicateDependencyGraph(store, program, &cond.introduced_by);
  cond.component_of =
      cond.graph.StronglyConnectedComponents(&cond.num_components);
  cond.members.resize(cond.num_components);
  for (uint32_t v = 0; v < cond.graph.num_nodes(); ++v) {
    cond.members[cond.component_of[v]].push_back(v);
  }
  cond.rules_of.resize(cond.num_components);
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    if (HasVariableName(store, rule)) cond.exact = false;
    TermId head_name = store.PredName(rule.head);
    cond.rules_of[cond.component_of[cond.graph.Find(head_name)]].push_back(r);
  }
  return cond;
}

std::shared_ptr<const FactRelations> BuildFactRelations(
    TermStore& store, const Program& program) {
  auto record = std::make_shared<FactRelations>();
  auto& relations = record->relations;
  std::unordered_set<TermId> ruled, variable_heads;
  for (const Rule& rule : program.rules) {
    TermId name = store.PredName(rule.head);
    if (rule.IsFact() && store.IsGround(rule.head)) {
      ++relations[name].rows;
    } else {
      (store.IsGround(name) ? ruled : variable_heads).insert(name);
    }
    if (!HasVariableName(store, rule)) continue;
    for (const Literal& lit : rule.body) {
      if (lit.positive() && store.IsGround(store.PredName(lit.atom))) {
        relations[store.PredName(lit.atom)].guard = true;
      }
    }
  }
  std::erase_if(relations, [&](const auto& entry) {
    if (ruled.count(entry.first) > 0) return true;
    for (TermId head_name : variable_heads) {
      Substitution unused;
      if (MatchInto(store, head_name, entry.first, &unused)) return true;
    }
    return false;
  });
  return record;
}

std::shared_ptr<const FactRelations> KeepFactRelations(
    const TermStore& store, const FactRelations& record,
    const std::vector<TermId>& removed, const Program& program,
    size_t added_from) {
  auto kept = std::make_shared<FactRelations>(record);
  // Moves a fact's relation `step` rows; false when it may not change.
  auto count = [&](TermId atom, size_t step) {
    auto it = kept->relations.find(store.PredName(atom));
    if (it == kept->relations.end() || it->second.guard) return false;
    it->second.rows += step;  // Wraps for a removal.
    return true;
  };
  for (TermId atom : removed) {
    if (!count(atom, SIZE_MAX)) return nullptr;
  }
  for (size_t r = added_from; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    if (!rule.IsFact() || !store.IsGround(rule.head) || !count(rule.head, 1)) {
      return nullptr;
    }
  }
  for (TermId atom : removed) {
    if (kept->relations.at(store.PredName(atom)).rows == 0) return nullptr;
  }
  return kept;
}

FactBase FactRows(const TermStore& store, const Program& program,
                  const FactRelations& record) {
  FactBase rows;
  for (const Rule& rule : program.rules) {
    if (record.relations.count(store.PredName(rule.head)) > 0) {
      rows.Insert(store, rule.head);
    }
  }
  return rows;
}

GuardedProgram InstantiateGuardedNames(TermStore& store,
                                       const Program& program,
                                       const FactRelations& record,
                                       KernelCache* kernel_cache) {
  GuardedProgram out;
  std::vector<size_t> variable_named;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    if (HasVariableName(store, program.rules[r])) variable_named.push_back(r);
  }
  if (variable_named.empty()) return out;

  // A relation of the record that such a rule's positive literal names is
  // a guard; its rows are the guard facts.
  FactBase guard_facts;  // Deduplicated; other names' facts never match.
  for (const Rule& rule : program.rules) {
    auto it = record.relations.find(store.PredName(rule.head));
    if (it != record.relations.end() && it->second.guard) {
      guard_facts.Insert(store, rule.head);
    }
  }

  // Each variable-named rule's guards, as the body of a rule the grounder's
  // match path can join; the guards must bind every name variable.
  std::vector<Rule> joins;
  for (size_t r : variable_named) {
    const Rule& rule = program.rules[r];
    Rule join;
    join.head = rule.head;
    std::vector<TermId> bound, name_vars;
    CollectNameVariables(store, rule.head, &name_vars);
    for (const Literal& lit : rule.body) {
      if (lit.atom == kNoTerm) continue;
      CollectNameVariables(store, lit.atom, &name_vars);
      if (!lit.positive()) continue;
      if (record.relations.count(store.PredName(lit.atom)) == 0) continue;
      join.body.push_back(lit);
      store.CollectVariables(lit.atom, &bound);
    }
    for (TermId v : name_vars) {
      if (std::find(bound.begin(), bound.end(), v) == bound.end()) return out;
    }
    joins.push_back(std::move(join));
  }

  out.instantiated = true;
  std::unordered_set<TermId> instance_heads;
  size_t next = 0;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    if (next == variable_named.size() || variable_named[next] != r) {
      out.program.rules.push_back(rule);
      out.identity.push_back(program.serial(r));
      continue;
    }
    const Rule& join = joins[next++];
    const bool variable_head = !store.IsGround(store.PredName(rule.head));
    ForEachPositiveMatch(
        store, join, guard_facts,
        [&](const Substitution& theta) {
          uint64_t id = Mix(kSigSeed, program.serial(r));
          for (const Literal& guard : join.body) {
            id = Mix(id, theta.Apply(store, guard.atom));
          }
          out.program.rules.push_back(SubstituteRule(store, rule, theta));
          out.identity.push_back(id);
          TermId name = store.PredName(out.program.rules.back().head);
          if (variable_head && instance_heads.insert(name).second) {
            out.instance_head_names.push_back(name);
          }
          return true;
        },
        /*frozen_facts=*/true, kernel_cache);
  }
  return out;
}

std::vector<uint32_t> CondensationDepths(const ProgramCondensation& cond) {
  std::vector<uint32_t> depth(cond.num_components, 0);
  // Component ids are reverse-topological (every edge points into the
  // same or a lower-numbered component), so walking ids upward sees each
  // referenced component's final depth before it is needed.
  for (uint32_t c = 0; c < cond.num_components; ++c) {
    for (uint32_t v : cond.members[c]) {
      for (const DependencyGraph::Edge& e : cond.graph.OutEdges(v)) {
        uint32_t lower = cond.component_of[e.to];
        if (lower == c) continue;
        depth[c] = std::max(depth[c], depth[lower] + 1);
      }
    }
  }
  return depth;
}

namespace {

std::shared_ptr<const SchedulerPlan> BuildPlan(TermStore& store,
                                               const Program& program,
                                               const FactRelations& record,
                                               KernelCache* kernel_cache,
                                               uint64_t fingerprint) {
  auto plan = std::make_shared<SchedulerPlan>();
  auto shape = std::make_shared<SchedulerPlan::Shape>();
  plan->program_size = program.size();
  plan->program_fingerprint = fingerprint;

  // HiLog name variables bound by fact-only guards are instantiated first,
  // so Example 6.3-style programs condense per name; everything below
  // plans over `planned`. Rule identities are serials, mixed with the
  // matched guard atoms for instances.
  GuardedProgram guarded =
      InstantiateGuardedNames(store, program, record, kernel_cache);
  shape->instantiated = guarded.instantiated;
  shape->instance_head_names = std::move(guarded.instance_head_names);
  const Program& planned = guarded.instantiated ? guarded.program : program;
  auto add_rule = [&](SchedulerPlan::Component* comp, size_t r) {
    if (guarded.instantiated) {
      comp->rules.push_back(std::move(guarded.program.rules[r]));
      comp->identities.push_back(guarded.identity[r]);
    } else {
      comp->rules.push_back(program.rules[r]);
      comp->identities.push_back(program.serial(r));
    }
  };
  ProgramCondensation cond = CondenseProgram(store, planned);
  shape->exact = cond.exact;

  // Components in dependency order, with cache signatures. A component's
  // own signature covers its member names and its rule identities
  // (Program::serial — stable across both append and in-place retraction,
  // where plain indices would shift). What the component reads from below
  // is covered separately by a lower signature, computed at wave time
  // from the per-name model signatures accumulated as lower components
  // publish. A non-exact condensation (some predicate name non-ground)
  // cannot split evaluation soundly, so the whole program becomes one
  // monolithic component; atom-level scheduling in ComputeWfsScc still
  // applies.
  if (cond.exact) {
    std::vector<uint32_t> depth = CondensationDepths(cond);
    // One allocation for all components; each plan entry aliases it, and
    // a patch swaps in separately allocated copies.
    auto block = std::make_shared<std::vector<SchedulerPlan::Component>>(
        cond.num_components);
    plan->components.reserve(cond.num_components);
    for (uint32_t c = 0; c < cond.num_components; ++c) {
      SchedulerPlan::Component* comp = &(*block)[c];
      plan->components.emplace_back(block, comp);
      comp->id = c;
      comp->depth = depth[c];
      for (uint32_t v : cond.members[c]) {
        comp->member_names.push_back(cond.graph.node(v));
      }
      comp->rules.reserve(cond.rules_of[c].size());
      comp->identities.reserve(cond.rules_of[c].size());
      for (size_t r : cond.rules_of[c]) add_rule(comp, r);
      std::unordered_set<TermId> member_names(comp->member_names.begin(),
                                              comp->member_names.end());
      // Lower names this component's bodies reference, in first-reference
      // order (deterministic seeding and lower-signature mixing).
      std::unordered_set<TermId> name_seen;
      comp->fact_only = !comp->rules.empty();
      for (const Rule& rule : comp->rules) {
        if (!rule.IsFact() || !store.IsGround(rule.head)) {
          comp->fact_only = false;
        }
        for (const Literal& lit : rule.body) {
          if (lit.atom == kNoTerm) continue;
          TermId name = store.PredName(lit.atom);
          if (member_names.count(name) > 0) continue;
          if (name_seen.insert(name).second) comp->lower_names.push_back(name);
        }
      }
      comp->signature = ComponentSignature(*comp);
      if (!comp->rules.empty()) {
        comp->cache_key = *std::min_element(comp->member_names.begin(),
                                            comp->member_names.end());
        ++shape->cached_components;
      }
      // A fact-only component has no out-edges, so it is one name.
      if (comp->fact_only) {
        const uint32_t v = cond.members[c][0];
        comp->named_by_first_rule =
            cond.introduced_by[v] == cond.rules_of[c][0];
        auto it = record.relations.find(comp->member_names[0]);
        if (it != record.relations.end() && !it->second.guard) {
          shape->fact_relations.emplace(comp->member_names[0], c);
        }
      }
    }
  } else {
    auto comp = std::make_shared<SchedulerPlan::Component>();
    for (size_t r = 0; r < planned.rules.size(); ++r) add_rule(comp.get(), r);
    plan->components.push_back(std::move(comp));
  }

  // Waves: all components with rules at one topological depth. A name
  // with no rules has only false atoms; nothing to schedule for it.
  for (const auto& comp : plan->components) {
    if (comp->rules.empty()) continue;
    if (shape->waves.size() <= comp->depth) {
      shape->waves.resize(comp->depth + 1);
    }
    shape->waves[comp->depth].push_back(comp->id);
  }
  plan->shape = std::move(shape);
  return plan;
}

}  // namespace

std::shared_ptr<const SchedulerPlan> BuildSchedulerPlan(
    TermStore& store, const Program& program, KernelCache* kernel_cache) {
  return BuildPlan(store, program, *BuildFactRelations(store, program),
                   kernel_cache, ProgramFingerprint(program));
}

std::shared_ptr<const SchedulerPlan> PatchSchedulerPlan(
    const TermStore& store, const SchedulerPlan& plan,
    const std::vector<TermId>& removed, const Program& program,
    size_t added_from) {
  const SchedulerPlan::Shape& shape = *plan.shape;
  // Copies of the components the delta touches, made on first touch. The
  // record kept the delta, so it touches only non-guard fact relations
  // (none in an inexact plan): their facts add no edge, so the graph, its
  // numbering and every other component stay as they are.
  std::unordered_map<uint32_t, std::shared_ptr<SchedulerPlan::Component>>
      touched;
  auto touch = [&](TermId atom) -> SchedulerPlan::Component* {
    auto it = shape.fact_relations.find(store.PredName(atom));
    if (it == shape.fact_relations.end()) return nullptr;
    auto [slot, inserted] = touched.try_emplace(it->second);
    if (inserted) {
      slot->second = std::make_shared<SchedulerPlan::Component>(
          *plan.components[it->second]);
    }
    return slot->second.get();
  };
  uint64_t fingerprint = plan.program_fingerprint;

  for (TermId atom : removed) {
    if (touch(atom) == nullptr) return nullptr;
  }
  std::unordered_set<TermId> gone(removed.begin(), removed.end());
  for (auto& [id, comp] : touched) {
    // The first rule named the relation: without it, the name is first
    // mentioned later and the condensation may renumber.
    if (comp->named_by_first_rule && gone.count(comp->rules[0].head) > 0) {
      return nullptr;
    }
    size_t kept = 0;
    for (size_t k = 0; k < comp->rules.size(); ++k) {
      if (gone.count(comp->rules[k].head) > 0) {
        fingerprint -= RuleFingerprint(comp->identities[k], comp->rules[k]);
        continue;
      }
      if (kept != k) {
        comp->rules[kept] = std::move(comp->rules[k]);
        comp->identities[kept] = comp->identities[k];
      }
      ++kept;
    }
    comp->rules.resize(kept);
    comp->identities.resize(kept);
  }
  // Additions append, so they append to their relation's rules too.
  for (size_t r = added_from; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    SchedulerPlan::Component* comp = touch(rule.head);
    if (comp == nullptr) return nullptr;
    comp->rules.push_back(rule);
    comp->identities.push_back(program.serial(r));
    fingerprint += RuleFingerprint(program.serial(r), rule);
  }

  auto patched = std::make_shared<SchedulerPlan>();
  patched->shape = plan.shape;
  patched->components = plan.components;
  for (auto& [id, comp] : touched) {
    comp->signature = ComponentSignature(*comp);
    patched->components[id] = std::move(comp);
  }
  patched->program_size = program.size();
  patched->program_fingerprint = fingerprint;
  return patched;
}

WfsResult ComputeWfsScc(const GroundProgram& ground, SchedulerStats* stats,
                        bool count_model_atoms,
                        std::vector<TermId>* negative_cycles) {
  WfsResult result;
  AtomTable table;
  ground.CollectAtoms(&table);
  obs::Count(obs::Counter::kSchedGroundAtoms, table.size());
  if (count_model_atoms) {
    obs::SetGauge(obs::Gauge::kAtomTableSize, table.size());
  }
  if (table.size() == 0) {
    result.model = Interpretation(std::move(table));
    return result;
  }

  DependencyGraph graph = AtomDependencyGraph(ground);
  uint32_t num_components = 0;
  std::vector<uint32_t> component_of =
      graph.StronglyConnectedComponents(&num_components);
  const uint32_t n = static_cast<uint32_t>(graph.num_nodes());

  std::vector<std::vector<uint32_t>> members(num_components);
  for (uint32_t v = 0; v < n; ++v) members[component_of[v]].push_back(v);
  std::vector<std::vector<uint32_t>> rules_of(num_components);
  for (uint32_t r = 0; r < ground.rules.size(); ++r) {
    rules_of[component_of[graph.Find(ground.rules[r].head)]].push_back(r);
  }

  // Atom truth values, settled component by component. Every edge of the
  // atom graph points into the same or a lower-numbered component, so by
  // the time component c runs, all atoms its rules import are final.
  std::vector<TruthValue> value(n, TruthValue::kFalse);
  size_t largest = 0, trivial_count = 0, cyclic_count = 0;

  for (uint32_t c = 0; c < num_components; ++c) {
    if (CancelRequested()) {
      result.cancelled = true;
      break;
    }
    largest = std::max(largest, members[c].size());

    bool trivial = members[c].size() == 1;
    if (trivial) {
      const uint32_t v = members[c][0];
      for (const DependencyGraph::Edge& e : graph.OutEdges(v)) {
        if (e.to == v) {
          trivial = false;
          break;
        }
      }
    }

    if (trivial) {
      // Acyclic singleton: every body atom is settled, so the rules decide
      // the atom directly — true if some instance has an all-true body,
      // undefined if an instance survives with an undefined subgoal,
      // false otherwise (including "no rules": unfounded).
      ++trivial_count;
      const uint32_t v = members[c][0];
      TruthValue val = TruthValue::kFalse;
      for (uint32_t r : rules_of[c]) {
        const GroundRule& rule = ground.rules[r];
        bool deleted = false, undef = false;
        for (TermId a : rule.pos) {
          TruthValue tv = value[graph.Find(a)];
          if (tv == TruthValue::kFalse) {
            deleted = true;
            break;
          }
          if (tv == TruthValue::kUndefined) undef = true;
        }
        if (!deleted) {
          for (TermId a : rule.neg) {
            TruthValue tv = value[graph.Find(a)];
            if (tv == TruthValue::kTrue) {
              deleted = true;
              break;
            }
            if (tv == TruthValue::kUndefined) undef = true;
          }
        }
        if (deleted) continue;
        if (!undef) {
          val = TruthValue::kTrue;
          break;
        }
        val = TruthValue::kUndefined;
      }
      value[v] = val;
      continue;
    }

    // Cyclic component: resolve settled imports, keep undefined ones
    // pinned undefined by a loop rule, and run the alternating fixpoint
    // on the mini program.
    ++cyclic_count;
    GroundProgram mini;
    std::unordered_set<TermId> loop_atoms;
    std::vector<TermId> loop_order;
    for (uint32_t r : rules_of[c]) {
      const GroundRule& rule = ground.rules[r];
      GroundRule out;
      out.head = rule.head;
      bool deleted = false;
      for (TermId a : rule.pos) {
        uint32_t w = graph.Find(a);
        if (component_of[w] == c) {
          out.pos.push_back(a);
          continue;
        }
        TruthValue tv = value[w];
        if (tv == TruthValue::kTrue) continue;
        if (tv == TruthValue::kFalse) {
          deleted = true;
          break;
        }
        out.pos.push_back(a);
        if (loop_atoms.insert(a).second) loop_order.push_back(a);
      }
      if (!deleted) {
        for (TermId a : rule.neg) {
          uint32_t w = graph.Find(a);
          if (component_of[w] == c) {
            out.neg.push_back(a);
            continue;
          }
          TruthValue tv = value[w];
          if (tv == TruthValue::kTrue) {
            deleted = true;
            break;
          }
          if (tv == TruthValue::kFalse) continue;
          out.neg.push_back(a);
          if (loop_atoms.insert(a).second) loop_order.push_back(a);
        }
      }
      if (!deleted) mini.Add(std::move(out));
    }
    for (TermId a : loop_order) {
      GroundRule loop;
      loop.head = a;
      loop.neg.push_back(a);
      mini.Add(std::move(loop));
    }
    if (negative_cycles != nullptr) {
      // Local stratification is a property of `ground`'s graph, so the
      // instances resolution just deleted count too.
      bool negative_inside = false;
      for (uint32_t r : rules_of[c]) {
        for (TermId a : ground.rules[r].neg) {
          negative_inside |= component_of[graph.Find(a)] == c;
        }
      }
      if (negative_inside) {
        negative_cycles->push_back(graph.node(members[c][0]));
      }
    }

    WfsResult sub = ComputeWfsAlternating(mini, /*count_model_atoms=*/false);
    result.iterations += sub.iterations;
    if (sub.cancelled) {
      result.cancelled = true;
      break;
    }
    // Interpretation::Value defaults to false for atoms the mini program
    // never mentions — exactly right for rule-less members.
    for (uint32_t v : members[c]) value[v] = sub.model.Value(graph.node(v));
  }

  obs::Count(obs::Counter::kSchedAtomSccs, trivial_count + cyclic_count);
  obs::Count(obs::Counter::kSchedTrivialSccs, trivial_count);
  obs::Count(obs::Counter::kSchedCyclicSccs, cyclic_count);
  obs::SetGauge(obs::Gauge::kSchedLargestScc, largest);
  obs::TraceInstant("sched.atom_sccs", trivial_count + cyclic_count);
  if (stats != nullptr) {
    stats->atom_sccs += trivial_count + cyclic_count;
    stats->trivial_sccs += trivial_count;
    stats->cyclic_sccs += cyclic_count;
    stats->largest_scc = std::max(stats->largest_scc, largest);
  }

  result.model = Interpretation(std::move(table));
  const AtomTable& atoms = result.model.atoms();
  size_t true_atoms = 0, undefined_atoms = 0;
  for (uint32_t i = 0; i < atoms.size(); ++i) {
    TruthValue tv = value[graph.Find(atoms.atom(i))];
    result.model.SetAt(i, tv);
    true_atoms += tv == TruthValue::kTrue;
    undefined_atoms += tv == TruthValue::kUndefined;
  }
  if (count_model_atoms) {
    obs::Count(obs::Counter::kWfsTrueAtoms, true_atoms);
    obs::Count(obs::Counter::kWfsUndefinedAtoms, undefined_atoms);
  }
  return result;
}

namespace {

using PlanComponent = SchedulerPlan::Component;

/// Output of solving one wave's unsettled components as one batch.
struct BatchResult {
  bool ok = true;
  std::string error;
  bool truncated = false;
  bool cancelled = false;
  struct PerComponent {
    std::vector<GroundRule> ground;
    std::vector<TermId> true_atoms;
    std::vector<TermId> undefined_atoms;
    size_t envelope_size = 0;
    bool locally_stratified = true;
  };
  std::vector<PerComponent> comps;  // Parallel to the batch's plan list.
};

/// Grounds, resolves, and settles one batch of same-depth components
/// against `store`, adding its work to `stats`. Components at equal depth
/// share no dependency edges, so one grounding call over the concatenated
/// rules and one atom-SCC pass over the union resolution produce, for
/// each component, exactly the ground instances and truth values a solo
/// run would have — the batch only amortizes the per-component passes.
void SolveBatch(TermStore& store, const BottomUpOptions& options, bool exact,
                const std::vector<const PlanComponent*>& comps,
                const FactBase& support_true, const FactBase& support_all,
                BatchResult* out, SchedulerStats* stats) {
  out->comps.resize(comps.size());
  obs::Count(obs::Counter::kSchedComponents, comps.size());
  stats->components += comps.size();
  // Spans ground + resolve + atom-SCC solve for the whole batch (one
  // span per wave keeps the win-chain trace shape, where every wave is a
  // single component).
  obs::ScopedTraceSpan batch_span("sched.component");

  // Fact-only components settle without grounding or an atom-SCC pass:
  // every rule contributes its head as one ground instance, each distinct
  // head is a trivially true singleton SCC, and the envelope is exactly
  // the distinct heads. Output order matches the general path (ground
  // rules in rule order; atoms in first-occurrence order, which is how
  // CollectAtoms would have numbered them), so models stay byte-identical
  // — the fast path only skips the semi-naive machinery, which is what
  // keeps re-solving a dirtied 100k-fact relation cheap under delta
  // maintenance.
  std::vector<const PlanComponent*> slow;   // Components that need solving.
  std::vector<size_t> slot_of;              // Their out->comps index.
  size_t fact_atoms = 0;
  for (size_t j = 0; j < comps.size(); ++j) {
    obs::TraceInstant("sched.component", comps[j]->id);
    if (!comps[j]->fact_only) {
      slow.push_back(comps[j]);
      slot_of.push_back(j);
      continue;
    }
    BatchResult::PerComponent& pc = out->comps[j];
    std::unordered_set<TermId> seen;
    for (const Rule& rule : comps[j]->rules) {
      TermId head = rule.head;
      obs::Count(obs::Counter::kGroundInstances);
      GroundRule instance;
      instance.head = head;
      pc.ground.push_back(std::move(instance));
      if (seen.insert(head).second) pc.true_atoms.push_back(head);
    }
    pc.envelope_size = pc.true_atoms.size();
    fact_atoms += pc.true_atoms.size();
    stats->atom_sccs += pc.true_atoms.size();
    stats->trivial_sccs += pc.true_atoms.size();
    if (!pc.true_atoms.empty()) {
      stats->largest_scc = std::max<size_t>(stats->largest_scc, 1);
    }
  }
  if (fact_atoms > 0) {
    obs::Count(obs::Counter::kSchedGroundAtoms, fact_atoms);
    obs::Count(obs::Counter::kSchedAtomSccs, fact_atoms);
    obs::Count(obs::Counter::kSchedTrivialSccs, fact_atoms);
  }
  if (slow.empty()) return;

  std::unordered_map<TermId, size_t> member_of;
  for (size_t k = 0; k < slow.size(); ++k) {
    for (TermId name : slow[k]->member_names) member_of.emplace(name, slot_of[k]);
  }
  // out->comps index of the batch component owning `name`, or SIZE_MAX
  // for a lower (already settled) name. Fact-only batchmates never show
  // up here: a same-depth component cannot reference them (the edge would
  // force it deeper). The non-exact path has a single monolithic
  // component that owns every name.
  auto member_index = [&](TermId name) -> size_t {
    if (!exact) return 0;
    auto it = member_of.find(name);
    return it == member_of.end() ? SIZE_MAX : it->second;
  };

  Program batch_program;
  std::vector<size_t> comp_of_rule;
  for (size_t k = 0; k < slow.size(); ++k) {
    for (const Rule& rule : slow[k]->rules) {
      batch_program.rules.push_back(rule);
      comp_of_rule.push_back(slot_of[k]);
    }
  }

  // Restricted active domain: the union of the batch's settled lower
  // references (names deduped across components — an atom's name is
  // unique, so the seed set stays duplicate-free).
  std::vector<TermId> seeds;
  {
    std::unordered_set<TermId> seen;
    for (const PlanComponent* comp : slow) {
      for (TermId name : comp->lower_names) {
        if (!seen.insert(name).second) continue;
        const std::vector<TermId>& with = support_all.WithName(name);
        seeds.insert(seeds.end(), with.begin(), with.end());
      }
    }
  }

  {
    obs::ScopedPhaseTimer ground_timer(obs::Phase::kGround);
    BottomUpResult envelope = LeastModelOfPositiveProjectionSeeded(
        store, batch_program, options, seeds);
    out->truncated |= envelope.truncated;
    if (!envelope.unsafe_rules.empty()) {
      out->ok = false;
      out->error =
          "rule is not safe for relevance grounding (head not bound by "
          "positive body): " +
          RuleToString(store, batch_program.rules[envelope.unsafe_rules[0]]);
      return;
    }
    if (envelope.cancelled) {
      out->cancelled = true;
      return;
    }

    // Per-component envelope accounting, matching what a solo run would
    // report: the component's own seeds plus the envelope facts bearing
    // its member names (derived facts are always member-named).
    if (exact) {
      for (size_t k = 0; k < slow.size(); ++k) {
        size_t env = 0;
        for (TermId name : slow[k]->lower_names) {
          env += support_all.WithName(name).size();
        }
        for (TermId name : slow[k]->member_names) {
          env += envelope.facts.WithName(name).size();
        }
        out->comps[slot_of[k]].envelope_size = env;
      }
    } else {
      out->comps[0].envelope_size = envelope.facts.size();
    }

    for (size_t r = 0; r < batch_program.rules.size(); ++r) {
      const Rule& rule = batch_program.rules[r];
      std::vector<GroundRule>& sink = out->comps[comp_of_rule[r]].ground;
      bool instantiate_ok = true;
      ForEachPositiveMatch(
          store, rule, envelope.facts, [&](const Substitution& theta) {
            GroundRule instance;
            instance.head = theta.Apply(store, rule.head);
            bool safe = store.IsGround(instance.head);
            for (const Literal& lit : rule.body) {
              TermId atom = theta.Apply(store, lit.atom);
              if (!store.IsGround(atom)) safe = false;
              (lit.positive() ? instance.pos : instance.neg).push_back(atom);
            }
            if (!safe) {
              out->ok = false;
              out->error =
                  "rule instance stayed non-ground (program is not strongly "
                  "range restricted): " +
                  RuleToString(store, rule);
              instantiate_ok = false;
              return false;
            }
            obs::Count(obs::Counter::kGroundInstances);
            sink.push_back(std::move(instance));
            return true;
          },
          /*frozen_facts=*/true,  // Collects rules only; never inserts.
          options.kernel_cache);
      if (!instantiate_ok) return;
    }
  }

  // Resolve literals on lower-component atoms against the settled model;
  // still-undefined imports stay and get pinned by a loop rule. Atoms of
  // batchmates never appear in a component's rules (no same-depth
  // edges), so the union resolution decomposes into the solo ones.
  GroundProgram resolved;
  std::unordered_set<TermId> loop_atoms;
  std::vector<TermId> loop_order;
  for (size_t k = 0; k < slow.size(); ++k) {
    for (const GroundRule& rule : out->comps[slot_of[k]].ground) {
      GroundRule res;
      res.head = rule.head;
      bool deleted = false;
      for (TermId a : rule.pos) {
        if (member_index(store.PredName(a)) != SIZE_MAX) {
          res.pos.push_back(a);
          continue;
        }
        if (support_true.Contains(a)) continue;
        if (!support_all.Contains(a)) {
          deleted = true;
          break;
        }
        res.pos.push_back(a);
        if (loop_atoms.insert(a).second) loop_order.push_back(a);
      }
      if (!deleted) {
        for (TermId a : rule.neg) {
          if (member_index(store.PredName(a)) != SIZE_MAX) {
            res.neg.push_back(a);
            continue;
          }
          if (support_true.Contains(a)) {
            deleted = true;
            break;
          }
          if (!support_all.Contains(a)) continue;
          res.neg.push_back(a);
          if (loop_atoms.insert(a).second) loop_order.push_back(a);
        }
      }
      if (!deleted) resolved.Add(std::move(res));
    }
  }
  for (TermId a : loop_order) {
    GroundRule loop;
    loop.head = a;
    loop.neg.push_back(a);
    resolved.Add(std::move(loop));
  }

  std::vector<TermId> negative_cycles;
  WfsResult sub = ComputeWfsScc(resolved, stats, /*count_model_atoms=*/false,
                                &negative_cycles);
  if (sub.cancelled) {
    out->cancelled = true;
    return;
  }
  // An atom SCC never spans two components (no same-depth edges), and a
  // loop-pinned import's own SCC belongs to the lower component.
  for (TermId atom : negative_cycles) {
    size_t j = member_index(store.PredName(atom));
    if (j != SIZE_MAX) out->comps[j].locally_stratified = false;
  }

  // Split the settled atoms back out per component; loop-encoded imports
  // belong to lower components and were published when those settled.
  const AtomTable& sub_atoms = sub.model.atoms();
  for (uint32_t i = 0; i < sub_atoms.size(); ++i) {
    TermId atom = sub_atoms.atom(i);
    size_t j = member_index(store.PredName(atom));
    if (j == SIZE_MAX) continue;
    TruthValue tv = sub.model.ValueAt(i);
    if (tv == TruthValue::kTrue) {
      out->comps[j].true_atoms.push_back(atom);
    } else if (tv == TruthValue::kUndefined) {
      out->comps[j].undefined_atoms.push_back(atom);
    }
  }
}

}  // namespace

ComponentWfsResult SolveWfsByComponents(TermStore& store,
                                        const Program& program,
                                        const BottomUpOptions& orig_options,
                                        SchedulerCache* cache,
                                        bool need_ground) {
  // One compilation cache for the whole solve when the caller supplied
  // none: component groundings re-visit the same rules across waves and
  // alternating passes, and a per-call transient cache would re-lower
  // them every time.
  KernelCache local_kernel_cache;
  BottomUpOptions options = orig_options;
  if (options.kernel_cache == nullptr) {
    options.kernel_cache = &local_kernel_cache;
  }
  ComponentWfsResult result;

  // Same refusal (and wording) as the relevance grounder: aggregates and
  // builtins belong to the aggregate evaluator. The same pass
  // fingerprints the program, which decides whether the cached plan is
  // this program's.
  uint64_t fingerprint = 0;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kAggregate ||
          lit.kind == Literal::Kind::kBuiltin) {
        result.ok = false;
        result.error =
            "aggregate/builtin literals require the aggregate evaluator, not "
            "the grounder: " +
            RuleToString(store, rule);
        return result;
      }
    }
    fingerprint += RuleFingerprint(program.serial(r), rule);
  }

  // The plan: reused when the cache holds the one built (or patched, by
  // Engine::ApplyDelta) for exactly this program, else built here.
  std::shared_ptr<const SchedulerPlan> plan_ptr;
  if (cache != nullptr && cache->plan != nullptr &&
      cache->plan->program_size == program.size() &&
      cache->plan->program_fingerprint == fingerprint) {
    plan_ptr = cache->plan;
    obs::Count(obs::Counter::kSchedPlansReused);
  } else {
    auto relations = BuildFactRelations(store, program);
    plan_ptr = BuildPlan(store, program, *relations, options.kernel_cache,
                         fingerprint);
    obs::Count(obs::Counter::kSchedPlansBuilt);
    if (cache != nullptr) {
      cache->plan = plan_ptr;
      cache->relations = std::move(relations);
    }
  }
  const SchedulerPlan& plan = *plan_ptr;
  const SchedulerPlan::Shape& shape = *plan.shape;
  const bool exact = shape.exact;
  // Instances are one rule per guard match. Compiling them into the
  // caller's (the engine's) kernel cache would make every Engine::Fork
  // clone one program per game; a per-solve cache compiles only the
  // components that actually re-solve.
  if (shape.instantiated) options.kernel_cache = &local_kernel_cache;
  auto cached = [&](const PlanComponent& comp) {
    return exact && cache != nullptr && comp.cache_key != kNoTerm;
  };

  // Published atoms, recorded per predicate name in publish order. The
  // support FactBases a batch solve reads are hydrated *lazily* from
  // these: every support read is name-keyed (grounding seeds come from
  // support_all.WithName on the component's lower names; resolution
  // probes membership of lower-name atoms only — exactness guarantees
  // every literal's predicate name is ground), so only the names some
  // to-be-solved component actually references ever pay a FactBase
  // insert. On a maintenance solve where almost every component replays,
  // this is the difference between O(delta cone) and O(model) publish
  // work. A name's atoms are complete before any dependent can ask for
  // them (its component published at a strictly smaller depth), so
  // hydration never sees a partially published name.
  //
  // `published` points either into a replayed cache entry (stable: entries
  // are immutable and a replayed entry is never replaced within this
  // solve) or into `fresh_publishes`, the per-solve arena for components
  // solved now (deque: pointers survive growth).
  FactBase support_true;  // True atoms of settled components (hydrated).
  FactBase support_all;   // True-or-undefined atoms (hydrated).
  using NamePublish = ComponentCacheEntry::NamePublish;
  std::unordered_map<TermId, const NamePublish*> published;
  published.reserve(plan.components.size());
  std::deque<NamePublish> fresh_publishes;
  std::unordered_set<TermId> hydrated;
  auto hydrate = [&](TermId name) {
    if (!hydrated.insert(name).second) return;
    auto it = published.find(name);
    if (it == published.end()) return;
    for (TermId a : it->second->true_atoms) {
      support_true.Insert(store, a);
      support_all.Insert(store, a);
    }
    for (TermId a : it->second->undefined_atoms) support_all.Insert(store, a);
  };
  // Canonical signature of each name's published model: the atom sequence
  // with truth tags, in exact publish order. A component's output is a
  // deterministic function of its rules plus, per referenced lower name,
  // this sequence (grounding seeds come from support_all.WithName;
  // resolution reads support membership) — so matching per-name
  // signatures prove the component's inputs are unchanged even when the
  // delta renumbered every component id below it. Each name is published
  // by exactly one component, so its signature is installed whole when
  // that component publishes.
  std::unordered_map<TermId, uint64_t> name_sig;
  name_sig.reserve(plan.components.size());
  auto install_publish = [&](const NamePublish& np) {
    name_sig[np.name] = np.sig;
    published[np.name] = &np;
  };
  auto lower_signature_of = [&](const PlanComponent& comp) {
    uint64_t h = kSigSeed;
    for (TermId name : comp.lower_names) {
      h = Mix(h, name);
      auto it = name_sig.find(name);
      h = Mix(h, it == name_sig.end() ? kSigSeed : it->second);
    }
    return h;
  };

  // Each component's cache entry from earlier solves, looked up once.
  // Their atom counts size the model's atom table up front, so replaying
  // a mostly clean program interns without rehashing.
  std::vector<const ComponentCacheEntry*> prior(plan.components.size(),
                                                nullptr);
  AtomTable table;
  if (cache != nullptr && exact && !cache->components.empty()) {
    size_t expected_atoms = 0;
    for (const auto& comp : plan.components) {
      if (!cached(*comp)) continue;
      auto it = cache->components.find(comp->cache_key);
      if (it == cache->components.end()) continue;
      prior[comp->id] = it->second.get();
      expected_atoms += it->second->atoms.size();
    }
    table.Reserve(expected_atoms);
  }
  // Atom table of the final model and its truth values, built together in
  // publish order: interning each component's atom sequence as it
  // publishes yields exactly the table CollectAtoms would build over the
  // concatenated ground program, without materializing the replayed rules.
  // An atom takes its value when first interned; the component that owns
  // it publishes before any component that reads it.
  std::vector<TruthValue> values;
  values.reserve(table.atoms().capacity());
  auto intern = [&](TermId atom, TruthValue tv) {
    const uint32_t idx = table.Intern(atom);
    if (idx == values.size()) values.push_back(tv);
    return idx;
  };
  size_t true_count = 0, undefined_count = 0;

  size_t max_wave_width = 0;

  for (const std::vector<uint32_t>& wave : shape.waves) {
    if (wave.empty()) continue;
    if (CancelRequested()) {
      result.cancelled = true;
      result.truncated = true;
      break;
    }

    // Cache lookups first; replayed components skip solving but are
    // published in the id-ordered pass below, so the ground-rule and
    // model order is independent of which components were warm. The
    // lower signature is final here: every referenced lower name's
    // component published in an earlier wave (reverse-topological ids
    // put dependencies at strictly smaller depths).
    std::vector<const ComponentCacheEntry*> replay(wave.size(), nullptr);
    std::vector<uint64_t> lower_signature(wave.size(), 0);
    std::vector<const PlanComponent*> batch_comps;  // The rest, in order.
    for (size_t i = 0; i < wave.size(); ++i) {
      const PlanComponent& comp = *plan.components[wave[i]];
      if (cached(comp)) {
        lower_signature[i] = lower_signature_of(comp);
        const ComponentCacheEntry* entry = prior[comp.id];
        if (entry != nullptr && entry->signature == comp.signature &&
            entry->lower_signature == lower_signature[i]) {
          replay[i] = entry;
          continue;
        }
      }
      batch_comps.push_back(&comp);
    }

    // Hydrate the support bases with exactly the lower names this wave's
    // solves will read, in batch order, then each component's
    // first-reference lower-name order.
    for (const PlanComponent* comp : batch_comps) {
      for (TermId name : comp->lower_names) hydrate(name);
    }

    // The wave's unsettled components solve as one batch, in place on the
    // caller's store.
    BatchResult batch;
    if (!batch_comps.empty()) {
      SolveBatch(store, options, exact, batch_comps, support_true, support_all,
                 &batch, &result.stats);
      obs::Count(obs::Counter::kSchedParallelWaves);
      ++result.stats.waves;
      max_wave_width = std::max(max_wave_width, batch_comps.size());
      if (batch_comps.size() > 1) {
        obs::Count(obs::Counter::kSchedParallelBatchedComponents,
                   batch_comps.size());
        result.stats.batched_components += batch_comps.size();
      }
    }

    // Publish in component-id order, replayed and solved alike; solved
    // components come in batch order.
    size_t solved = 0;
    for (size_t i = 0; i < wave.size(); ++i) {
      const PlanComponent& comp = *plan.components[wave[i]];
      if (replay[i] != nullptr) {
        const ComponentCacheEntry& entry = *replay[i];
        result.ground_count += entry.ground_rules.size();
        if (need_ground) {
          for (const GroundRule& g : entry.ground_rules) result.ground.Add(g);
        }
        for (size_t k = 0; k < entry.atoms.size(); ++k) {
          intern(entry.atoms[k], entry.atom_values[k]);
        }
        true_count += entry.true_atoms.size();
        undefined_count += entry.undefined_atoms.size();
        for (const NamePublish& np : entry.names) install_publish(np);
        result.envelope_size += entry.envelope_size;
        result.truncated |= entry.truncated;
        result.locally_stratified &= entry.locally_stratified;
        obs::Count(obs::Counter::kSchedComponentsReused);
        ++result.stats.components_reused;
        continue;
      }
      result.truncated |= batch.truncated;
      if (!batch.ok) {
        result.ok = false;
        result.error = batch.error;
        return result;
      }
      if (batch.cancelled) {
        result.cancelled = true;
        result.truncated = true;
        break;
      }
      BatchResult::PerComponent& pc = batch.comps[solved++];
      ComponentCacheEntry entry;
      entry.signature = comp.signature;
      entry.lower_signature = lower_signature[i];
      entry.envelope_size = pc.envelope_size;
      entry.truncated = batch.truncated;
      result.envelope_size += pc.envelope_size;
      entry.locally_stratified = pc.locally_stratified;
      result.locally_stratified &= pc.locally_stratified;
      // Per-name publishes of this component, in first-publish order:
      // every true atom mixes before any undefined one, which is the
      // name_sig mixing order a cold solve produces.
      std::vector<NamePublish> pubs;
      std::unordered_map<TermId, size_t> pub_of;
      auto pub_for = [&](TermId atom) -> NamePublish& {
        TermId name = store.PredName(atom);
        auto [slot, inserted] = pub_of.try_emplace(name, pubs.size());
        if (inserted) {
          pubs.emplace_back();
          pubs.back().name = name;
          pubs.back().sig = kSigSeed;
        }
        return pubs[slot->second];
      };
      for (TermId atom : pc.true_atoms) {
        entry.true_atoms.push_back(atom);
        NamePublish& np = pub_for(atom);
        np.sig = Mix(np.sig, atom);
        np.sig = Mix(np.sig, 1);
        np.true_atoms.push_back(atom);
      }
      for (TermId atom : pc.undefined_atoms) {
        entry.undefined_atoms.push_back(atom);
        NamePublish& np = pub_for(atom);
        np.sig = Mix(np.sig, atom);
        np.sig = Mix(np.sig, 2);
        np.undefined_atoms.push_back(atom);
      }
      true_count += entry.true_atoms.size();
      undefined_count += entry.undefined_atoms.size();
      // The component's atom-table contribution, deduplicated within the
      // component: interning it reproduces what a CollectAtoms scan of
      // these rules would have added, and replays intern it directly.
      // Every new atom starts false; the component's true and undefined
      // atoms (heads of its rules, so already interned) are then set.
      // An atom already true or undefined here is a lower component's,
      // which any replay of this entry sees published first (the lower
      // signature pins it), so the entry leaves it out.
      {
        std::unordered_set<TermId> seen;
        std::vector<uint32_t> index;
        auto collect = [&](TermId a) {
          if (!seen.insert(a).second) return;
          const uint32_t idx = intern(a, TruthValue::kFalse);
          if (values[idx] != TruthValue::kFalse) return;
          entry.atoms.push_back(a);
          index.push_back(idx);
        };
        for (const GroundRule& g : pc.ground) {
          collect(g.head);
          for (TermId a : g.pos) collect(a);
          for (TermId a : g.neg) collect(a);
        }
        auto set = [&](TermId a, TruthValue tv) {
          const uint32_t idx = table.Find(a);
          if (idx != UINT32_MAX) values[idx] = tv;
        };
        for (TermId a : entry.true_atoms) set(a, TruthValue::kTrue);
        for (TermId a : entry.undefined_atoms) set(a, TruthValue::kUndefined);
        entry.atom_values.reserve(index.size());
        for (uint32_t idx : index) entry.atom_values.push_back(values[idx]);
      }
      result.ground_count += pc.ground.size();
      if (need_ground) {
        for (const GroundRule& g : pc.ground) result.ground.Add(g);
      }
      // Install this component's publishes: the cache entry keeps its own
      // copy (future replays), the per-solve arena owns what `published`
      // points at for later waves of this solve.
      if (cached(comp)) entry.names = pubs;
      for (NamePublish& np : pubs) {
        fresh_publishes.push_back(std::move(np));
        install_publish(fresh_publishes.back());
      }
      if (cached(comp)) {
        entry.ground_rules = std::move(pc.ground);
        std::shared_ptr<const ComponentCacheEntry>& slot =
            cache->components[comp.cache_key];
        if (slot != nullptr) {
          // DRed accounting: re-solving a dirty cached component
          // conceptually overdeletes everything it had published;
          // whatever the re-solve produces again was rederived.
          std::unordered_set<TermId> fresh(entry.true_atoms.begin(),
                                           entry.true_atoms.end());
          fresh.insert(entry.undefined_atoms.begin(),
                       entry.undefined_atoms.end());
          size_t over = 0, reder = 0;
          for (const std::vector<TermId>* old :
               {&slot->true_atoms, &slot->undefined_atoms}) {
            for (TermId a : *old) {
              if (fresh.count(a) > 0) {
                ++reder;
              } else {
                ++over;
              }
            }
          }
          if (over > 0) obs::Count(obs::Counter::kIncOverdeleted, over);
          if (reder > 0) obs::Count(obs::Counter::kIncRederived, reder);
          result.stats.overdeleted += over;
          result.stats.rederived += reder;
        }
        slot = std::make_shared<const ComponentCacheEntry>(std::move(entry));
      }
    }
    if (batch.cancelled) break;
  }

  // A completed exact solve proves which components exist; cache entries
  // keyed by a name no component owns any more (e.g. every fact of a
  // relation was retracted) are orphans — their atoms were overdeleted
  // with nothing rederiving them. Every live component now has an entry,
  // so a cache of exactly that size has none.
  if (exact && cache != nullptr && !result.cancelled && !result.truncated &&
      cache->components.size() != shape.cached_components) {
    std::unordered_set<TermId> live;
    for (const auto& comp : plan.components) {
      if (comp->cache_key != kNoTerm) live.insert(comp->cache_key);
    }
    for (auto it = cache->components.begin();
         it != cache->components.end();) {
      if (live.count(it->first) > 0) {
        ++it;
        continue;
      }
      size_t gone =
          it->second->true_atoms.size() + it->second->undefined_atoms.size();
      if (gone > 0) {
        obs::Count(obs::Counter::kIncOverdeleted, gone);
        result.stats.overdeleted += gone;
      }
      it = cache->components.erase(it);
    }
  }

  result.stats.max_wave_width = max_wave_width;
  obs::SetGauge(obs::Gauge::kSchedParallelMaxWaveWidth, max_wave_width);

  obs::SetGauge(obs::Gauge::kAtomTableSize, table.size());
  obs::SetGauge(obs::Gauge::kGroundRules, result.ground_count);
  obs::SetGauge(obs::Gauge::kEnvelopeSize, result.envelope_size);
  result.model = Interpretation(std::move(table), std::move(values));
  obs::Count(obs::Counter::kWfsTrueAtoms, true_count);
  obs::Count(obs::Counter::kWfsUndefinedAtoms, undefined_count);
  return result;
}

}  // namespace hilog
