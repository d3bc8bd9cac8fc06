#ifndef HILOG_ANALYSIS_MODULAR_H_
#define HILOG_ANALYSIS_MODULAR_H_

#include <string>
#include <unordered_set>

#include "src/eval/bottomup.h"
#include "src/eval/fact_base.h"
#include "src/eval/scheduler.h"
#include "src/lang/ast.h"
#include "src/wfs/interpretation.h"

namespace hilog {

/// The partially computed two-valued well-founded model for the settled
/// predicates (the pair (S, M) threaded through Figure 1). A predicate
/// name in `settled_names` is fully determined: its true atoms are exactly
/// those in `true_atoms`; every other atom with that name is false.
class SettledModel {
 public:
  bool IsSettledName(TermId name) const {
    return settled_names_.count(name) > 0;
  }
  bool IsTrue(TermId atom) const { return true_atoms_.Contains(atom); }

  void SettleName(TermId name) { settled_names_.insert(name); }
  void AddTrue(const TermStore& store, TermId atom) {
    true_atoms_.Insert(store, atom);
  }

  const FactBase& true_atoms() const { return true_atoms_; }
  const std::unordered_set<TermId>& settled_names() const {
    return settled_names_;
  }

 private:
  FactBase true_atoms_;
  std::unordered_set<TermId> settled_names_;
};

/// Result of the HiLog reduction (Definition 6.5) of a set of rules modulo
/// a settled model: literals whose (ground) predicate name is settled are
/// resolved — positive ones by joining against the settled true atoms
/// (instantiating variables that also occur elsewhere in the rule, which is
/// how winning(M) becomes winning(move1)), negative ground ones by truth
/// lookup. Rules with a false settled positive subgoal or a true settled
/// negative subgoal are deleted. Settled-name literals whose arguments are
/// still non-ground and cannot yet be resolved are kept for later rounds.
struct ReductionResult {
  std::vector<Rule> rules;
  bool truncated = false;
};

ReductionResult HiLogReduce(TermStore& store, const std::vector<Rule>& rules,
                            const SettledModel& settled, size_t max_rules);

/// Options for the Figure 1 procedure.
struct ModularOptions {
  /// Build graph edges only to the leftmost body predicate, per the
  /// left-to-right refinement used by the magic-sets method (Section 6.1).
  bool leftmost_only_edges = false;
  /// Safety cap on procedure rounds (each round settles >= 1 name, but
  /// recursively applied symbols can generate fresh names forever).
  size_t max_rounds = 10000;
  /// Budget for grounding components.
  BottomUpOptions bottomup;
};

/// Outcome of the modular-stratification check.
struct ModularResult {
  bool modularly_stratified = false;
  /// Human-readable reason when rejected.
  std::string reason;
  /// When accepted: the (total) well-founded model accumulated during the
  /// procedure — Theorem 6.1: it is the unique stable model. Atoms not
  /// listed true are false.
  SettledModel model;
  /// Diagnostics: the T sets settled per round.
  std::vector<std::vector<TermId>> settled_per_round;
  size_t rounds = 0;
};

/// Definition 6.6 / Figure 1: decides whether the strongly
/// range-restricted HiLog program P is modularly stratified for HiLog,
/// computing the well-founded model along the way.
ModularResult CheckModularHiLog(TermStore& store, const Program& program,
                                const ModularOptions& options);

/// Whether Figure 1's verdict on `program` can be read off the scheduler
/// solve that just filled `cache` (SolveWfsByComponents over `program`:
/// ok, neither truncated nor cancelled, `ground_count` ground instances).
/// When this holds and the solve is locally stratified, CheckModularHiLog
/// accepts: every reduced component Figure 1 grounds is a sub-graph of
/// one the solve tested (the settled model Figure 1 reduces against is
/// the well-founded one, and its relevance envelope lies inside the
/// solve's), and no other rejection can fire. The conditions, each ruling
/// out one rejection:
///   - the plan is exact and `leftmost_only_edges` is off, so Figure 1's
///     name graph is a sub-graph of the plan's condensation;
///   - no name the plan gives an instance of a variable-headed rule occurs
///     as a ground predicate name in `program`, so Figure 1 cannot settle
///     it in round 1 and then meet its rules (Example 6.5);
///   - `max_rounds` covers the sum over plan depths of the widest
///     component, plus the round guards take to instantiate;
///   - every round's envelope, a subset of the solve's ground-instance
///     heads, fits `bottomup.max_facts` and `bottomup.max_rounds`;
///   - the reduction's worklist fits `bottomup.max_facts`: a rule with L
///     body literals spawns at most 1 + L * prod(max(1, |relation|)) items
///     over its positive literals on other names and non-ground atoms.
/// The caller checks strong range restriction (the solve itself refuses
/// aggregate and builtin literals). A solve that is not locally
/// stratified decides nothing: the solve's instances are a superset of
/// Figure 1's, so the literal procedure has the last word.
bool Figure1FitsSolve(TermStore& store, const Program& program,
                      const ModularOptions& options,
                      const SchedulerCache& cache, size_t ground_count);

/// Definition 6.4, specialized to normal programs: splits the predicate
/// dependency graph into strongly connected components, processes them
/// bottom-up, reducing each modulo the accumulated total model and testing
/// local stratifiability. (Lemma 6.2: agrees with CheckModularHiLog on
/// normal programs.)
ModularResult CheckModularNormal(TermStore& store, const Program& program,
                                 const ModularOptions& options);

}  // namespace hilog

#endif  // HILOG_ANALYSIS_MODULAR_H_
