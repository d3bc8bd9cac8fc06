#ifndef HILOG_EVAL_BOTTOMUP_H_
#define HILOG_EVAL_BOTTOMUP_H_

#include <functional>

#include "src/eval/fact_base.h"
#include "src/lang/ast.h"
#include "src/term/subst.h"

namespace hilog {

class KernelCache;

/// Budget for bottom-up fixpoint computations. HiLog programs with
/// recursively applied function/predicate symbols may have infinite least
/// models (the paper notes the analogous non-termination for magic sets,
/// Section 6.1); the budget makes every run terminate and reports
/// truncation honestly.
struct BottomUpOptions {
  size_t max_facts = 1000000;
  size_t max_rounds = 100000;
  /// Compilation cache for the rule-to-kernel path (src/eval/kernel.h),
  /// normally the owning Engine's. Null means each evaluation run uses a
  /// transient cache (programs still amortize across the run's rounds,
  /// just not across runs).
  KernelCache* kernel_cache = nullptr;
};

struct BottomUpResult {
  FactBase facts;
  bool truncated = false;
  /// Stopped early by the installed CancelToken (src/eval/cancel.h);
  /// `truncated` is also set so budget-aware callers stay conservative.
  bool cancelled = false;
  /// Rules whose head stayed non-ground after matching all positive body
  /// literals (unsafe for bottom-up evaluation); their indices in
  /// `Program::rules`.
  std::vector<size_t> unsafe_rules;
  size_t rounds = 0;
};

/// Computes the least model of the *positive projection* of `program`
/// (negative literals are dropped; aggregate/builtin literals are dropped
/// too). For a definite program this is its least Herbrand model, i.e. the
/// paper's Section 2 semantics of negation-free HiLog programs. For a
/// program with negation, the result is the "envelope": a superset of the
/// atoms that can possibly be true or undefined in the well-founded model,
/// which is what the relevance grounder needs.
///
/// Evaluation is semi-naive: each round only considers rule firings that
/// use at least one fact derived in the previous round. The delta is
/// itself a keyed FactBase, and positive bodies are joined by compiled
/// kernels in an order chosen per rule by a greedy selectivity heuristic
/// (docs/performance.md).
BottomUpResult LeastModelOfPositiveProjection(TermStore& store,
                                              const Program& program,
                                              const BottomUpOptions& options);

/// Like LeastModelOfPositiveProjection but seeded with external facts —
/// the SCC scheduler's per-component envelope, where `seed_facts` are the
/// true-or-undefined atoms already derived by lower components. Seeds
/// join and trigger rules like round-0 facts but are not counted as
/// bottom-up derivations (their components already reported them).
BottomUpResult LeastModelOfPositiveProjectionSeeded(
    TermStore& store, const Program& program, const BottomUpOptions& options,
    const std::vector<TermId>& seed_facts);

/// Enumerates every substitution theta (over the rule's variables) such
/// that each *positive* body literal, instantiated by theta, matches a
/// fact in `facts`. Negative, aggregate, and builtin literals are skipped.
/// Returns false if `fn` ever returns false (early exit). Literals are
/// joined in planner order, not textual order; the set of enumerated
/// substitutions is unaffected, only the enumeration sequence.
///
/// `frozen_facts` declares that `fn` never inserts into `facts` while the
/// enumeration runs (the grounders and the scheduler only collect ground
/// rules); the join then takes zero-copy candidate spans over the base's
/// internal buckets. Callers whose callback feeds derived facts straight
/// back into `facts` (the stratified fixpoint) must leave it false.
///
/// The join runs as a compiled kernel program (a fully ground body as
/// plain membership probes); `kernel_cache` (usually the Engine's) keeps
/// the compiled form across calls, a null cache compiles transiently.
bool ForEachPositiveMatch(TermStore& store, const Rule& rule,
                          const FactBase& facts,
                          const std::function<bool(const Substitution&)>& fn,
                          bool frozen_facts = false,
                          KernelCache* kernel_cache = nullptr);

}  // namespace hilog

#endif  // HILOG_EVAL_BOTTOMUP_H_
