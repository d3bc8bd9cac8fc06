#ifndef HILOG_MAINT_DELTA_H_
#define HILOG_MAINT_DELTA_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/lang/ast.h"
#include "src/term/term_store.h"

namespace hilog {

/// A delta publish: program text to append plus ground facts to retract.
/// Additions are arbitrary statements (facts or rules) and append exactly
/// like Engine::LoadMore. Retractions must be ground facts that exist as
/// fact rules of the program being mutated — retracting a *derived* atom
/// is an error, because derived truth is decided by the well-founded
/// semantics, not by the extensional database.
struct FactDelta {
  Program additions;                // Parsed from the `add` text.
  std::vector<TermId> retractions;  // Ground fact atoms to remove.
};

/// Parses the two delta texts into `*delta`. Returns "" on success, else
/// a parse/validation error (and `*delta` is unspecified). The
/// retraction text must consist solely of fact statements with ground
/// heads, e.g. "e(a,b). p.".
std::string ParseFactDelta(TermStore& store, std::string_view additions,
                           std::string_view retractions, FactDelta* delta);

/// Removes from `*program` every fact rule whose head equals one of
/// `retractions`, preserving the order and serials of the survivors.
/// All retractions are validated before any mutation: if some atom
/// matches no fact rule, returns an error and leaves the program
/// untouched. On success returns "" and appends the removed rules' heads
/// and, when non-null, their indices (ascending) to the two vectors.
std::string ApplyRetractions(const TermStore& store, Program* program,
                             const std::vector<TermId>& retractions,
                             std::vector<size_t>* removed_indices,
                             std::vector<TermId>* removed_heads);

/// The offset just past the terminating '.' of the statement that starts
/// at `pos` (see SplitStatements), or std::string_view::npos when no
/// statement ends in the rest of `text`.
size_t NextStatementEnd(std::string_view text, size_t pos);

/// Splits program text into its top-level statements, each ending at its
/// unquoted, uncommented terminating '.' (inclusive). The grammar parses
/// one rule per statement, so statement i of a successfully loaded text
/// corresponds to rule i of the resulting program — which is what lets
/// the service compose a post-delta program text by dropping the removed
/// statements (see ComposeDeltaText in src/maint/maintain.h). Trailing
/// whitespace/comments after the last '.' are dropped. The statements are
/// views into `text`.
std::vector<std::string_view> SplitStatements(std::string_view text);

}  // namespace hilog

#endif  // HILOG_MAINT_DELTA_H_
