#include "src/maint/maintain.h"

#include <algorithm>

#include "src/maint/delta.h"

namespace hilog {

std::string ComposeDeltaText(std::string_view old_text,
                             const std::vector<size_t>& removed_indices,
                             std::string_view additions) {
  std::vector<size_t> removed = removed_indices;
  std::sort(removed.begin(), removed.end());
  std::string out;
  out.reserve(old_text.size() + additions.size() + 1);
  // Statements are contiguous in the text, so the kept ones between two
  // removed ones are copied in one run; text after the last statement is
  // dropped.
  size_t run = 0;    // Start of the pending run of kept statements.
  size_t start = 0;  // Start of statement `index`.
  auto next = removed.begin();
  for (size_t index = 0;; ++index) {
    const size_t end = NextStatementEnd(old_text, start);
    if (end == std::string_view::npos) break;
    while (next != removed.end() && *next < index) ++next;
    if (next != removed.end() && *next == index) {
      out.append(old_text.substr(run, start - run));
      run = end;
    }
    start = end;
  }
  out.append(old_text.substr(run, start - run));
  if (!additions.empty()) {
    if (!out.empty() && out.back() != '\n') out.push_back('\n');
    out += additions;
  }
  return out;
}

}  // namespace hilog
