#ifndef HILOG_EVAL_TABLED_H_
#define HILOG_EVAL_TABLED_H_

#include <string>
#include <vector>

#include "src/lang/ast.h"
#include "src/term/subst.h"

namespace hilog {

/// Options for tabled evaluation.
struct TabledOptions {
  size_t max_answers = 500000;
  size_t max_steps = 5000000;
};

struct TabledResult {
  /// Instances of the query with a proof, in discovery order.
  std::vector<TermId> answers;
  /// True if evaluation reached a fixpoint within the budgets (the answer
  /// set is then complete — tabling needs no depth bound on terminating
  /// programs).
  bool complete = true;
  /// Stopped early by the installed CancelToken (src/eval/cancel.h);
  /// `complete` is false and `error` carries CancelReasonMessage().
  bool cancelled = false;
  size_t steps = 0;
  /// Number of distinct (variant-canonicalized) subgoals tabled.
  size_t tables = 0;
  std::string error;
};

/// Tabled (OLDT-style) evaluation of definite HiLog programs: subgoals
/// are memoized up to variable renaming, recursive calls consume tabled
/// answers, and the whole system is iterated to fixpoint. Compared to
/// plain SLD resolution (eval/resolution.h) this terminates on
/// left-recursive rules and collapses exponentially many proofs of the
/// same fact into one answer — the evaluation model of XSB, the system
/// that later implemented HiLog under the well-founded semantics.
///
/// Definite programs only (no negation/aggregates); Datalog-like inputs
/// (Definition 6.7's Datahilog, or any program with a finite relevant
/// answer set) reach the fixpoint exactly.
TabledResult SolveTabled(TermStore& store, const Program& program,
                         TermId query, const TabledOptions& options);

/// Canonicalizes a goal by renaming its variables to V0, V1, ... in
/// first-occurrence order (so variant goals share one table). Exposed for
/// tests.
TermId CanonicalizeGoal(TermStore& store, TermId goal);

}  // namespace hilog

#endif  // HILOG_EVAL_TABLED_H_
