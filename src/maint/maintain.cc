#include "src/maint/maintain.h"

#include <unordered_set>

#include "src/maint/delta.h"

namespace hilog {

std::string ComposeDeltaText(std::string_view old_text,
                             const std::vector<size_t>& removed_indices,
                             std::string_view additions) {
  std::vector<std::string_view> statements = SplitStatements(old_text);
  std::unordered_set<size_t> removed(removed_indices.begin(),
                                     removed_indices.end());
  std::string out;
  out.reserve(old_text.size() + additions.size() + 1);
  for (size_t i = 0; i < statements.size(); ++i) {
    if (removed.count(i) > 0) continue;
    out += statements[i];
  }
  if (!additions.empty()) {
    if (!out.empty() && out.back() != '\n') out.push_back('\n');
    out += additions;
  }
  return out;
}

DeltaPublishResult ApplyDeltaPublish(Engine& engine,
                                     std::string_view previous_text,
                                     std::string_view additions,
                                     std::string_view retractions,
                                     bool solve_wfs) {
  DeltaPublishResult result;
  std::vector<size_t> removed;
  std::string error = engine.ApplyDelta(additions, retractions, &removed);
  if (!error.empty()) {
    result.ok = false;
    result.error = std::move(error);
    return result;
  }
  result.rules_removed = removed.size();
  result.composed_text = ComposeDeltaText(previous_text, removed, additions);
  if (solve_wfs) {
    result.report = SolveMaintained(engine);
    if (!result.report.ok) {
      result.ok = false;
      result.error = result.report.error;
    }
  }
  return result;
}

}  // namespace hilog
