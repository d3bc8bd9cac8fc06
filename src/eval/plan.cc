#include "src/eval/plan.h"

#include <unordered_set>

namespace hilog {

void CollectJoinAtomInfo(const TermStore& store, TermId atom,
                         JoinAtomInfo* info) {
  info->arg_vars.clear();
  info->all_vars.clear();
  store.CollectVariables(atom, &info->all_vars);
  if (store.IsApply(atom)) {
    auto args = store.apply_args(atom);
    info->arg_vars.resize(args.size());
    for (size_t a = 0; a < args.size(); ++a) {
      store.CollectVariables(args[a], &info->arg_vars[a]);
    }
  }
}

std::vector<size_t> PlanJoinOrder(const std::vector<JoinAtomInfo>& info,
                                  const std::vector<size_t>& est_sizes,
                                  size_t pinned_first) {
  std::vector<size_t> order;
  order.reserve(info.size());
  // One or zero free atoms: nothing to reorder beyond the pin.
  if (info.size() <= (pinned_first == SIZE_MAX ? size_t{1} : size_t{2})) {
    if (pinned_first != SIZE_MAX) order.push_back(pinned_first);
    for (size_t i = 0; i < info.size(); ++i) {
      if (i != pinned_first) order.push_back(i);
    }
    return order;
  }

  std::unordered_set<TermId> bound;
  std::vector<bool> placed(info.size(), false);
  auto place = [&](size_t i) {
    placed[i] = true;
    order.push_back(i);
    for (TermId v : info[i].all_vars) bound.insert(v);
  };
  if (pinned_first != SIZE_MAX) place(pinned_first);
  while (order.size() < info.size()) {
    size_t best = SIZE_MAX;
    size_t best_bound = 0;
    size_t best_size = 0;
    for (size_t i = 0; i < info.size(); ++i) {
      if (placed[i]) continue;
      size_t bound_args = 0;
      for (const std::vector<TermId>& vars : info[i].arg_vars) {
        bool all_bound = true;
        for (TermId v : vars) {
          if (bound.count(v) == 0) {
            all_bound = false;
            break;
          }
        }
        if (all_bound) ++bound_args;
      }
      if (best == SIZE_MAX || bound_args > best_bound ||
          (bound_args == best_bound && est_sizes[i] < best_size)) {
        best = i;
        best_bound = bound_args;
        best_size = est_sizes[i];
      }
    }
    place(best);
  }
  return order;
}

void DeriveProbeKeys(const TermStore& store, TermId atom,
                     const std::function<bool(TermId)>& ground_at_probe,
                     std::vector<ColumnProbeKey>* keys) {
  if (!store.IsApply(atom)) return;
  auto args = store.apply_args(atom);
  for (size_t pos = 0; pos < args.size() && pos < FactBase::kMaxIndexedArgs;
       ++pos) {
    TermId arg = args[pos];
    if (ground_at_probe(arg)) {
      keys->push_back({ColTopPath(pos), /*shape=*/false});
      continue;
    }
    if (store.kind(arg) != TermKind::kApply ||
        !ground_at_probe(store.apply_name(arg))) {
      continue;  // Unbound (or unbound-named application): no key.
    }
    keys->push_back({ColTopPath(pos), /*shape=*/true});
    auto sub = store.apply_args(arg);
    for (size_t j = 0; j < sub.size() && j < FactBase::kMaxIndexedSubArgs;
         ++j) {
      if (ground_at_probe(sub[j])) {
        keys->push_back({ColSubPath(pos, j), /*shape=*/false});
      }
    }
  }
}

}  // namespace hilog
