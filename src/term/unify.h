#ifndef HILOG_TERM_UNIFY_H_
#define HILOG_TERM_UNIFY_H_

#include <optional>

#include "src/term/subst.h"
#include "src/term/term_store.h"

namespace hilog {

/// HiLog unification (paper, Section 2; Chen–Kifer–Warren show it is
/// decidable). Two applications unify iff they have the same arity, their
/// names unify, and their arguments unify pointwise; a variable unifies
/// with any term not containing it (occurs check). Note that variables may
/// bind to terms used in predicate-name position — this is what makes
/// rules like `p <- X(Y), Y(X)` meaningful.
///
/// Returns the most general unifier, fully resolved (safe for simultaneous
/// application), or nullopt if the terms do not unify.
std::optional<Substitution> Unify(TermStore& store, TermId a, TermId b);

/// Unification extending an existing binding set. On success `subst` is
/// extended (and stays fully resolved); on failure `subst` is unchanged.
bool UnifyInto(TermStore& store, TermId a, TermId b, Substitution* subst);

/// One-way matching: finds s with s(pattern) == target, binding only
/// variables of `pattern`. `target` is typically ground. Extends `subst`
/// on success; leaves it unchanged on failure.
bool MatchInto(TermStore& store, TermId pattern, TermId target,
               Substitution* subst);

/// One-way matching against the *unapplied* pattern: equivalent to
/// MatchInto(store, subst->Apply(store, pattern), target, subst) — same
/// result, same bindings — but it never interns the substituted pattern;
/// already-bound pattern variables are dereferenced through `subst` and
/// compared by term id instead. Precondition: every existing binding of a
/// pattern variable is a fully resolved ground term (true for the join
/// loops, which only ever bind pattern variables to ground fact
/// sub-terms). This is the kernel executor's per-candidate match
/// (src/eval/kernel.h): no probe step re-interns its pattern.
bool MatchResolvedInto(TermStore& store, TermId pattern, TermId target,
                       Substitution* subst);

/// True if `a` and `b` are equal up to consistent renaming of variables.
bool IsVariant(TermStore& store, TermId a, TermId b);

/// True if the variable `var` occurs anywhere in `t` (after applying
/// `subst` to variables encountered along the way).
bool OccursIn(TermStore& store, TermId var, TermId t,
              const Substitution& subst);

}  // namespace hilog

#endif  // HILOG_TERM_UNIFY_H_
