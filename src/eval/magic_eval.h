#ifndef HILOG_EVAL_MAGIC_EVAL_H_
#define HILOG_EVAL_MAGIC_EVAL_H_

#include <string>
#include <vector>

#include "src/lang/ast.h"
#include "src/transform/magic.h"

namespace hilog {

class KernelCache;

/// Truth status of a ground atom after magic evaluation.
enum class QueryStatus : uint8_t {
  kTrue,
  kSettledFalse,  // box(A) was derived: A is false in the WFS fragment.
  kUnsettled,     // Evaluation quiesced without settling A. For modularly
                  // stratified (left-to-right) programs this does not
                  // happen; for programs like Example 6.4 it is exactly
                  // how the method "notices the negative dependency".
};

struct MagicEvalOptions {
  size_t max_facts = 500000;
  size_t max_box_firings = 100000;
  /// Kernel compilation cache (src/eval/kernel.h), normally the owning
  /// Engine's. The magic evaluator joins against possibly non-ground
  /// variant facts, so it uses compiled programs for their cached join
  /// orders and analysis, keeping its own unification machinery. Null
  /// falls back to a per-evaluation cache.
  KernelCache* kernel_cache = nullptr;
};

struct MagicEvalResult {
  /// Ground instances of the query derived true, in derivation order.
  std::vector<TermId> answers;
  /// Ground instances A of the query with box(A) derived (settled false).
  std::vector<TermId> settled_false;
  /// For a ground query: its status.
  QueryStatus ground_status = QueryStatus::kUnsettled;
  /// Negatively-called atoms that were never settled (diagnoses
  /// non-modularly-stratified inputs).
  std::vector<TermId> unsettled_negative_calls;
  bool truncated = false;
  /// Stopped early by the installed CancelToken (src/eval/cancel.h);
  /// `error` then carries CancelReasonMessage() and answers are not
  /// collected.
  bool cancelled = false;
  std::string error;
  size_t facts_derived = 0;
  size_t box_firings = 0;
};

/// Evaluates a magic-rewritten program bottom-up: saturate the (definite)
/// rewritten rules; when saturation quiesces, fire the native rule
///   box(P) <- magic(P,'-'), forall Q (dn(P,Q) -> dns(Q)), ~P
/// for every eligible P; repeat to fixpoint. Supports non-ground facts
/// (open queries seed a non-ground magic atom) via unification joins with
/// variant-based deduplication.
///
/// The EDB (MagicProgram::edb) is a frozen base layer under the derived
/// facts: its rows join as candidates in place, never copied and never
/// triggering rules, so a query's cost depends on the explored fragment,
/// not on |EDB|. Its rows count toward max_facts.
MagicEvalResult EvaluateMagic(TermStore& store, const MagicProgram& magic,
                              const MagicEvalOptions& options);

}  // namespace hilog

#endif  // HILOG_EVAL_MAGIC_EVAL_H_
