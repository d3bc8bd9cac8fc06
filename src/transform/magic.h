#ifndef HILOG_TRANSFORM_MAGIC_H_
#define HILOG_TRANSFORM_MAGIC_H_

#include <string>

#include "src/eval/fact_base.h"
#include "src/lang/ast.h"
#include "src/term/term_store.h"

namespace hilog {

/// Options for the magic-sets rewriting of Section 6.1.
struct MagicRewriteOptions {
  /// The EDB: rows of relations that only ground facts produce, with no
  /// variable-named head matching them (FactRows of the engine's record).
  /// Their rules are not copied, so no derived fact carries their names;
  /// the evaluator probes `edb` in place, and subgoals on their ground
  /// names get no magic seed and no dependency bookkeeping. Subgoals whose
  /// name is a variable are always treated as IDB — the paper: "we have to
  /// assume (unless further information is given) that all predicates are
  /// IDB predicates".
  const FactBase* edb = nullptr;
};

/// The rewritten program. All rewritten rules are *definite* (negation is
/// compiled away into the box/settledness machinery): a negative subgoal
/// ~A of the source program becomes the positive subgoal box(A), where
/// box(A) asserts that A has been settled false. The one non-Horn step —
///
///   box(P) <- magic(P,'-'), forall Q (dn(P,Q) -> dn'(Q)), ~P
///
/// — is evaluated natively by MagicEvaluator (eval/magic_eval.h).
struct MagicProgram {
  Program rules;
  /// The (possibly non-ground) query atom; answers are its true instances.
  TermId query = kNoTerm;
  /// MagicRewriteOptions::edb, which the rules leave out.
  const FactBase* edb = nullptr;

  // Special vocabulary.
  TermId magic_sym = kNoTerm;   // magic(Atom, Sign)
  TermId plus_sym = kNoTerm;    // '+': called positively
  TermId minus_sym = kNoTerm;   // '-': called negatively
  TermId box_sym = kNoTerm;     // box(Atom): settled false
  TermId dp_sym = kNoTerm;      // dp(P,Q): Q depends positively on P's call
  TermId dn_sym = kNoTerm;      // dn(P,Q): negative dependency
  TermId dns_sym = kNoTerm;     // dns(Q) = dn'(Q): Q settled

  /// Human-readable rendition of the native box rule, for documentation
  /// and the Example 6.6 comparison.
  std::string BoxRuleDescription(const TermStore& store) const;
};

/// Rewrites `program` for the query atom `query` following Ross's
/// magic-sets method for modularly stratified programs, generalized to
/// HiLog as in Section 6.1 / Example 6.6:
///  - each rule r gets supplementary predicates sup_{r,0..n} threading the
///    relevant bindings left to right (variables in names and in arguments
///    are treated the same);
///  - positive IDB subgoals A emit  magic(A,'+') <- sup_{r,i-1}  and are
///    consumed directly; negative subgoals ~A emit  magic(A,'-') <- sup
///    and are consumed as box(A);
///  - dp/dn rules record the (transitive) positive/negative dependencies
///    of negatively-called atoms; dn'(Q) records settledness.
///
/// The program should be strongly range restricted, modularly stratified
/// left-to-right, and non-floundering for the evaluation to be complete;
/// the rewrite itself is defined regardless.
MagicProgram MagicRewrite(TermStore& store, const Program& program,
                          TermId query, const MagicRewriteOptions& options);

}  // namespace hilog

#endif  // HILOG_TRANSFORM_MAGIC_H_
