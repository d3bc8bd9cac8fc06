#ifndef HILOG_EVAL_PLAN_H_
#define HILOG_EVAL_PLAN_H_

#include <functional>
#include <vector>

#include "src/eval/fact_base.h"
#include "src/term/term_store.h"

namespace hilog {

/// Relation-size estimate for one body atom pattern, supplied by the
/// evaluator that owns the fact store (FactBase name buckets for the
/// semi-naive engine, the variant store for the magic evaluator).
using JoinSizeEstimator = std::function<size_t(TermId pattern)>;

/// Per-atom variable analysis the greedy planner and the kernel compiler
/// share: the variables of each top-level argument (used to decide when an
/// argument is fully bound by earlier join steps) and the atom's full
/// variable set (what a successful match binds). Collected once per atom
/// and cached by the kernel cache across rounds, so replanning a rule per
/// semi-naive round costs no term traversals.
struct JoinAtomInfo {
  std::vector<std::vector<TermId>> arg_vars;
  std::vector<TermId> all_vars;
};

/// Fills `info` for `atom` (arg_vars stays empty for non-apply atoms).
void CollectJoinAtomInfo(const TermStore& store, TermId atom,
                         JoinAtomInfo* info);

/// Greedy join order over pre-collected atom info: repeatedly picks the
/// atom with the most arguments already bound (by constants or by
/// variables of previously placed atoms), breaking ties toward the
/// smaller estimated relation, then the original position (so plans are
/// deterministic). The pinned atom, if any, is placed first: the
/// semi-naive delta literal or the magic trigger position, the smallest
/// relation by construction, which every firing must use. `est_sizes` is
/// parallel to `info`.
///
/// Returns a permutation of [0, info.size()): the order in which to
/// join. The enumerated match set is unaffected by the order, only the
/// enumeration sequence and the work done to produce it.
std::vector<size_t> PlanJoinOrder(const std::vector<JoinAtomInfo>& info,
                                  const std::vector<size_t>& est_sizes,
                                  size_t pinned_first);

/// Derives the statically provable columnar probe keys of `atom` given a
/// boundness oracle: `ground_at_probe(t)` must return true exactly when
/// every variable of `t` is bound before the atom's probe runs (bottom-up
/// joins bind pattern variables only to ground fact sub-terms, so this is
/// a proof of groundness, not a heuristic). An argument path whose term
/// is ground at probe time probes its exact-fingerprint column; a
/// compound argument that is not fully bound but whose own name is probes
/// its (name, arity) shape column, with its fully-bound sub-arguments
/// probing exact sub-path columns. Paths beyond the FactBase indexing
/// bounds are never emitted.
void DeriveProbeKeys(const TermStore& store, TermId atom,
                     const std::function<bool(TermId)>& ground_at_probe,
                     std::vector<ColumnProbeKey>* keys);

}  // namespace hilog

#endif  // HILOG_EVAL_PLAN_H_
