#ifndef HILOG_EVAL_SCHEDULER_H_
#define HILOG_EVAL_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/dependency.h"
#include "src/eval/bottomup.h"
#include "src/ground/ground_program.h"
#include "src/lang/ast.h"
#include "src/wfs/wfs.h"

namespace hilog {

/// Predicate-level SCC condensation of a program: the dependency graph of
/// src/analysis/dependency.h, its strongly connected components, and the
/// program's rules grouped by head-name component. Components are numbered
/// in reverse topological order (DependencyGraph's Tarjan numbering), so
/// walking ids upward visits every dependency before its dependents.
struct ProgramCondensation {
  DependencyGraph graph;
  /// Node index -> component id.
  std::vector<uint32_t> component_of;
  uint32_t num_components = 0;
  /// Rule indices grouped by the component of the rule's head name.
  std::vector<std::vector<size_t>> rules_of;
  /// Graph node indices grouped by component.
  std::vector<std::vector<uint32_t>> members;
  /// Node index -> index of the rule that first mentions the name. Node
  /// (and so component) numbering follows first mention, which is why
  /// removing such a rule can renumber the condensation.
  std::vector<size_t> introduced_by;
  /// True when every predicate name (head and body) is ground. HiLog
  /// variable names (winning(M)) make the name-level graph an
  /// under-approximation of the real call structure, so a non-exact
  /// condensation must not be used to split evaluation; the scheduler
  /// condenses its guard-instantiated plan instead (GuardedProgram) and
  /// falls back to a single monolithic component when that is impossible.
  bool exact = true;
};

ProgramCondensation CondenseProgram(const TermStore& store,
                                    const Program& program);

/// One program version's fact-only relations (DESIGN.md decision 12): the
/// ground names N such that every rule with head name N is a ground fact
/// and no variable-named head matches N. Settled before anything runs, they
/// are the plan's guards and patchable relations and magic's EDB.
/// Immutable: SchedulerCache holds it beside the plan and Fork shares it.
struct FactRelations {
  struct Relation {
    size_t rows = 0;  // Fact rules with this head name (duplicates count).
    /// A positive literal of a rule with a variable in some predicate name
    /// names it: a guard, recorded even with no rules.
    bool guard = false;
    bool operator==(const Relation&) const = default;
  };
  std::unordered_map<TermId, Relation> relations;
  bool operator==(const FactRelations&) const = default;
};

std::shared_ptr<const FactRelations> BuildFactRelations(
    TermStore& store, const Program& program);

/// The one keep decision for a fact delta: the program `record` describes
/// lost the fact rules with heads `removed` (one per rule) and became
/// `program`, whose rules from `added_from` on are new. Returns the record
/// of `program` when every removed and added rule is a ground fact of an
/// existing non-guard relation and no relation empties, else nullptr.
std::shared_ptr<const FactRelations> KeepFactRelations(
    const TermStore& store, const FactRelations& record,
    const std::vector<TermId>& removed, const Program& program,
    size_t added_from);

/// The rows of `record`'s relations, in program-scan order: the EDB that
/// magic evaluation probes in place (MagicRewriteOptions::edb).
FactBase FactRows(const TermStore& store, const Program& program,
                  const FactRelations& record);

/// The rules the scheduler plans over when predicate-name variables can be
/// instantiated from the guards of `record` — the part of the HiLog
/// reduction (Definition 6.5) that needs no evaluation.
///
/// A rule with a variable in some predicate name (head or body) is
/// replaced by one instance per match of its guards against the
/// deduplicated guard facts, provided its guards bind every name variable.
/// Guard literals stay in each instance, so the relevance grounding of the
/// instances equals that of the rule. Example 6.3's
/// `winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y)` becomes one
/// ground-named rule per game, and the condensation turns exact.
struct GuardedProgram {
  /// True when some rule was instantiated. False when every predicate name
  /// was already ground, or when some rule keeps a name variable no guard
  /// binds (the program then stays one monolithic component).
  bool instantiated = false;
  /// When instantiated: ground-named rules in program order, each
  /// instantiated rule's instances at its position in match order.
  Program program;
  /// Parallel to `program.rules`: the cache identity of each rule — its
  /// source serial, mixed with the matched guard atoms for an instance.
  std::vector<uint64_t> identity;
  /// When instantiated: the distinct predicate names given to instances of
  /// rules whose head name has a variable (winning(move1) for Example
  /// 6.3), in first-instance order.
  std::vector<TermId> instance_head_names;
};

GuardedProgram InstantiateGuardedNames(TermStore& store,
                                       const Program& program,
                                       const FactRelations& record,
                                       KernelCache* kernel_cache = nullptr);

/// Topological depth of every component of a condensation: a component
/// with no references to other components has depth 0; otherwise its
/// depth is 1 + the maximum depth of the components it references. Two
/// components at the same depth share no dependency edges (an edge would
/// force the dependent strictly deeper), so by the splitting property of
/// the well-founded semantics they are independently solvable — the
/// scheduler solves each depth as one *wave*.
std::vector<uint32_t> CondensationDepths(const ProgramCondensation& cond);

/// Work accounting for one scheduled evaluation (mirrors the sched.*
/// counters, which accumulate the same quantities into the registry).
struct SchedulerStats {
  size_t components = 0;
  size_t components_reused = 0;
  size_t atom_sccs = 0;
  size_t trivial_sccs = 0;
  size_t cyclic_sccs = 0;
  size_t largest_scc = 0;
  // Wave execution (the sched.parallel.* metrics; docs/performance.md).
  // Deterministic for a fixed program.
  size_t waves = 0;               // Waves that solved >= 1 component.
  size_t max_wave_width = 0;      // Most components solved in one wave.
  size_t batched_components = 0;  // Components sharing a multi-comp batch.
  // Incremental maintenance (the inc.* metrics; docs/incremental.md).
  // When a dirty component re-solves over a warm cache, its previously
  // published atoms are conceptually overdeleted; the ones the re-solve
  // produces again are rederived. Atoms of cache entries orphaned by the
  // program (their component vanished) count as overdeleted too.
  size_t overdeleted = 0;
  size_t rederived = 0;
};

/// Computes the well-founded model of `ground` component-at-a-time: builds
/// the atom dependency graph, condenses it, and settles atom SCCs in
/// dependency order. A trivial SCC (a singleton with no self-edge) is
/// decided by inspecting its rules against already-settled atoms — no
/// Gamma application at all, which is what turns the alternating
/// fixpoint's O(n^2) on win-chains into O(n). A cyclic SCC becomes a mini
/// ground program: literals on settled atoms are resolved away (true
/// positive / false negative subgoals drop out; false positive / true
/// negative subgoals delete the rule instance), still-undefined imported
/// atoms are kept and pinned by a loop rule `u :- ~u`, and the mini
/// program runs through ComputeWfsAlternating. By the splitting property
/// of the well-founded semantics the reassembled model equals the
/// monolithic one; scheduler_test checks that on random programs.
///
/// The result's atom table is built with GroundProgram::CollectAtoms, so
/// it is index-identical to the table PreparedGround builds for the same
/// program. With `count_model_atoms` false the wfs.true_atoms /
/// wfs.undefined_atoms counters and the atom-table gauge are left to the
/// caller (the program-level scheduler reports totals once).
///
/// When `negative_cycles` is non-null it receives one atom of every cyclic
/// SCC with a negative edge inside it, in settling order: `ground` is
/// locally stratified exactly when it stays empty.
WfsResult ComputeWfsScc(const GroundProgram& ground,
                        SchedulerStats* stats = nullptr,
                        bool count_model_atoms = true,
                        std::vector<TermId>* negative_cycles = nullptr);

/// One settled predicate-level component, memoized for reuse across
/// queries, incremental LoadMore, and delta maintenance: its restricted
/// (unresolved) ground rules and its member-name atoms by truth value.
///
/// Two signatures gate a replay. `signature` covers the component itself:
/// sorted member names plus the *serials* of its rules (Program::serial —
/// stable across in-place retraction, unlike rule indices).
/// `lower_signature` covers everything the component reads from below:
/// for each referenced lower name, the exact published sequence of that
/// name's atoms with their truth values. A component whose own rules and
/// whose visible lower models are unchanged reproduces both signatures
/// and replays — this is the splitting theorem as a dirtiness frontier:
/// a delta dirties exactly the components whose rule set changed plus the
/// upward cone whose lower models actually changed.
struct ComponentCacheEntry {
  uint64_t signature = 0;
  uint64_t lower_signature = 0;
  std::vector<TermId> true_atoms;
  std::vector<TermId> undefined_atoms;
  std::vector<GroundRule> ground_rules;
  /// The atom-table contribution of `ground_rules`: every atom occurrence
  /// (head, positive body, negative body, in rule order) deduplicated
  /// within the component, less the lower components' true and undefined
  /// atoms (interned before this component publishes). Replaying a
  /// component interns this sequence instead of re-scanning its ground
  /// rules, so a maintenance solve's replay cost is O(atoms), not
  /// O(ground-rule copies).
  std::vector<TermId> atoms;
  /// Parallel to `atoms`: each atom's value in the model. Replay sets an
  /// atom's value as it interns it, so assembling the model needs no
  /// lookup pass. (An atom a lower component owns is interned, with its
  /// value, before this component publishes.)
  std::vector<TruthValue> atom_values;
  /// Per member name that published at least one atom: the name's final
  /// model signature and its atoms split by truth value, in publish
  /// order. A name is owned by exactly one component (exactness), so
  /// these are complete — replay installs each name wholesale (one map
  /// write per name) instead of re-mixing and re-bucketing per atom, and
  /// support hydration copies from here only if a dirty dependent
  /// actually reads the name.
  struct NamePublish {
    TermId name{};
    uint64_t sig = 0;
    std::vector<TermId> true_atoms;
    std::vector<TermId> undefined_atoms;
  };
  std::vector<NamePublish> names;
  size_t envelope_size = 0;
  /// A budget truncated the envelope of the solve that made this entry, so
  /// its rules and atoms may be partial; a replay reports it truncated too.
  bool truncated = false;
  /// No atom SCC of the component's resolved ground program has a negative
  /// edge inside it: the reduced component of Figure 1 is locally
  /// stratified (see ComponentWfsResult::locally_stratified).
  bool locally_stratified = true;
};

/// Everything SolveWfsByComponents derives from the program's rules before
/// it reads any truth value: the guard-instantiated rules (the plan's
/// rules, not Engine::program()), the condensation's components in
/// dependency order with their rules, rule identities, signatures and
/// depths, and the waves. A plan is immutable once built, and a fact delta
/// that leaves the condensation's shape alone patches it
/// (PatchSchedulerPlan) instead of re-planning the whole program.
struct SchedulerPlan {
  /// One predicate-level component of the condensation.
  struct Component {
    uint32_t id = 0;
    /// The component's rules in program order. Own copies: a retraction
    /// elsewhere shifts rule indices but never touches these.
    std::vector<Rule> rules;
    /// Parallel to `rules`: Program::serial, mixed with the matched guard
    /// atoms for a guard instance (GuardedProgram::identity).
    std::vector<uint64_t> identities;
    std::vector<TermId> member_names;  // Empty only on the non-exact path.
    std::vector<TermId> lower_names;   // First-reference order.
    uint64_t signature = 0;            // Member names + rule identities.
    uint32_t depth = 0;                // CondensationDepths.
    /// Every rule is a ground fact: the component settles without
    /// grounding or an atom-SCC pass — each distinct head is a trivially
    /// true singleton SCC. This is the hot shape for delta maintenance,
    /// where a retraction dirties a large fact relation whose re-solve
    /// must not pay a semi-naive fixpoint.
    bool fact_only = false;
    /// For a fact-only component: its first rule is where the plan first
    /// mentions its name. Retracting that rule renumbers the condensation.
    bool named_by_first_rule = false;
    TermId cache_key = kNoTerm;  // Smallest member name; kNoTerm: uncached.
  };
  /// The part no patch changes, shared by a plan and its patches.
  struct Shape {
    bool exact = true;
    bool instantiated = false;  // GuardedProgram::instantiated.
    /// GuardedProgram::instance_head_names.
    std::vector<TermId> instance_head_names;
    /// Component ids with rules, grouped by depth (one wave per depth).
    std::vector<std::vector<uint32_t>> waves;
    /// The record's non-guard relations, whose facts a delta may add or
    /// retract without a rebuild: name -> component id.
    std::unordered_map<TermId, uint32_t> fact_relations;
    /// Components with a cache key; after a complete solve the settled-
    /// component cache holds exactly these.
    size_t cached_components = 0;
  };
  std::shared_ptr<const Shape> shape;
  std::vector<std::shared_ptr<const Component>> components;
  /// The program the plan is for: its rule count, and the wrapping sum
  /// over its rules of a hash of (serial, rule). The sum lets a patch
  /// update it rule by rule; serials rise in program order, so it still
  /// tells a reordering apart.
  size_t program_size = 0;
  uint64_t program_fingerprint = 0;
};

/// Plans `program` from scratch: its fact-only relation record, guard
/// instantiation, condensation, component rules and signatures, depths and
/// waves.
std::shared_ptr<const SchedulerPlan> BuildSchedulerPlan(
    TermStore& store, const Program& program,
    KernelCache* kernel_cache = nullptr);

/// The plan of `program`, derived from `plan` (the plan before a fact
/// delta that KeepFactRelations kept, with the same `removed` and
/// `added_from`). On top of that the plan checks its own shape: nullptr —
/// rebuild — when the condensation is not exact or a retraction removes
/// the rule that first mentions a name. It equals BuildSchedulerPlan's.
std::shared_ptr<const SchedulerPlan> PatchSchedulerPlan(
    const TermStore& store, const SchedulerPlan& plan,
    const std::vector<TermId>& removed, const Program& program,
    size_t added_from);

/// Engine-owned cache of settled components, keyed by the smallest member
/// name. Valid across LoadMore (append-only: TermIds and rule serials of
/// loaded text never change) and across Engine::ApplyDelta (retraction
/// removes rules but never renumbers surviving serials or reuses TermIds).
/// Engine::Load clears it; a successful exact solve prunes entries whose
/// component no longer exists, counting their atoms as overdeleted.
///
/// Entries are immutable once published: a re-solve installs a fresh entry
/// instead of editing the old one. That is what lets Engine::Fork copy the
/// map of pointers and share the entries with the engine it forked from.
/// The plan and the record are shared the same way; a solve uses the plan
/// only for the program it was built or patched for, else replaces both.
struct SchedulerCache {
  std::unordered_map<TermId, std::shared_ptr<const ComponentCacheEntry>>
      components;
  std::shared_ptr<const SchedulerPlan> plan;
  std::shared_ptr<const FactRelations> relations;
  void Clear() {
    components.clear();
    plan.reset();
    relations.reset();
  }
  size_t size() const { return components.size(); }
};

/// Result of a component-at-a-time well-founded evaluation of a non-ground
/// program (the scheduler's replacement for GroundWithRelevance followed
/// by a monolithic WFS run).
struct ComponentWfsResult {
  bool ok = true;
  std::string error;
  bool truncated = false;
  bool cancelled = false;
  /// Union of the per-component restricted groundings, *unresolved* (lower
  /// literals kept, no loop rules), in component order. Sound input for
  /// stable-model enumeration: instances the resolver would delete have a
  /// well-founded-false positive subgoal or well-founded-true negative
  /// subgoal and can never fire in any candidate's Gamma check. Populated
  /// only when the call asked for it (`need_ground`); `ground_count`
  /// always reports its size.
  GroundProgram ground;
  /// Number of restricted ground instances across all components — equal
  /// to `ground.size()` when the ground program was materialized. Callers
  /// that only need the count (the well-founded path) skip materializing
  /// `ground`, which keeps replayed components from paying a per-solve
  /// copy of their cached ground rules.
  size_t ground_count = 0;
  /// Well-founded model over the grounding's atom table (identical
  /// whether or not `ground` was materialized).
  Interpretation model;
  /// Sum of per-component envelope sizes.
  size_t envelope_size = 0;
  /// Every component, solved or replayed, is locally stratified after its
  /// lower literals are resolved (ComponentCacheEntry::locally_stratified).
  /// On an exact solve whose lower models are all two-valued, that is the
  /// local-stratification test Figure 1 runs on each reduced component,
  /// over a superset of its ground instances; Engine::Analyze reads the
  /// modular-stratification verdict off it (src/analysis/modular.h,
  /// Figure1FitsSolve). Meaningful only when `ok` and not cancelled.
  bool locally_stratified = true;
  SchedulerStats stats;
};

/// Evaluates `program` component-at-a-time: condenses the predicate
/// dependency graph, then for each component (in dependency order) grounds
/// its rules against an envelope seeded only with the true-or-undefined
/// atoms of referenced lower components — the restricted active domain —
/// and settles it with ComputeWfsScc after resolving lower literals. HiLog
/// variable predicate names are first instantiated from fact-only guards
/// (InstantiateGuardedNames), which makes programs like Example 6.3
/// condense exactly, one component per name. When some name variable has
/// no guard the condensation is not exact: the whole program is one
/// uncached component and this degenerates to relevance grounding plus
/// atom-level scheduling. With a cache, components whose signature is
/// unchanged since a previous call are replayed from the cache without
/// grounding or fixpoint work.
///
/// Components at the same topological depth (CondensationDepths) are
/// solved as one *wave*: the wave's unsettled components are batched
/// together on `store` — one grounding call and one atom-SCC pass per wave
/// instead of per component. Results are published in component-id order,
/// replayed and solved alike.
///
/// `need_ground` controls whether the result's `ground` program is
/// materialized. Stable-model enumeration needs it; the well-founded path
/// only reads the model and `ground_count`, and passing false lets a
/// maintenance solve replay settled components without copying their
/// cached ground rules (the model is identical either way).
ComponentWfsResult SolveWfsByComponents(TermStore& store,
                                        const Program& program,
                                        const BottomUpOptions& options,
                                        SchedulerCache* cache = nullptr,
                                        bool need_ground = true);

}  // namespace hilog

#endif  // HILOG_EVAL_SCHEDULER_H_
