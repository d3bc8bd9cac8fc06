#ifndef HILOG_MAINT_MAINTAIN_H_
#define HILOG_MAINT_MAINTAIN_H_

#include <string>
#include <string_view>
#include <vector>

namespace hilog {

/// Composes the post-delta program text: the statements of `old_text`
/// minus the ones at `removed_indices` (the rule indices ApplyDelta
/// removed — statements and rules are 1:1), followed by the addition
/// text. A from-scratch Load of the composed text produces the same
/// program (same rules, same order) as the maintained engine, which is
/// the invariant the byte-identity guarantee rests on: the service keeps
/// serving program text that any cold engine can re-materialize.
std::string ComposeDeltaText(std::string_view old_text,
                             const std::vector<size_t>& removed_indices,
                             std::string_view additions);

}  // namespace hilog

#endif  // HILOG_MAINT_MAINTAIN_H_
