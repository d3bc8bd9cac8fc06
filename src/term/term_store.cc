#include "src/term/term_store.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <charconv>
#include <sstream>

#include "src/obs/metrics.h"

namespace hilog {

TermStore::TermStore() {
  nodes_.reserve(1024);
  args_pool_.reserve(4096);
  apply_slots_.assign(1024, kNoTerm);
}

void TermStore::CopyFrom(const TermStore& other) {
  // Reserve the source's capacities first, so the copy keeps growing on
  // the source's power-of-two schedule instead of reallocating from its
  // exact size on the first intern.
  nodes_.reserve(other.nodes_.capacity());
  strings_.reserve(other.strings_.capacity());
  args_pool_.reserve(other.args_pool_.capacity());
  nodes_ = other.nodes_;
  strings_ = other.strings_;
  args_pool_ = other.args_pool_;
  symbol_index_ = other.symbol_index_;
  variable_index_ = other.variable_index_;
  apply_slots_ = other.apply_slots_;
  apply_count_ = other.apply_count_;
  fresh_counter_ = other.fresh_counter_;
}

TermId TermStore::MakeSymbol(std::string_view name) {
  auto it = symbol_index_.find(std::string(name));
  if (it != symbol_index_.end()) {
    obs::Count(obs::Counter::kTermInternHits);
    return it->second;
  }
  obs::Count(obs::Counter::kTermsInterned);
  TermId id = static_cast<TermId>(nodes_.size());
  Node node;
  node.kind = TermKind::kSymbol;
  node.ground = true;
  node.depth = 0;
  node.text_index = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(name);
  nodes_.push_back(node);
  symbol_index_.emplace(std::string(name), id);
  return id;
}

TermId TermStore::MakeVariable(std::string_view name) {
  auto it = variable_index_.find(std::string(name));
  if (it != variable_index_.end()) {
    obs::Count(obs::Counter::kTermInternHits);
    return it->second;
  }
  obs::Count(obs::Counter::kTermsInterned);
  TermId id = static_cast<TermId>(nodes_.size());
  Node node;
  node.kind = TermKind::kVariable;
  node.ground = false;
  node.depth = 0;
  node.text_index = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(name);
  nodes_.push_back(node);
  variable_index_.emplace(std::string(name), id);
  return id;
}

TermId TermStore::MakeFreshVariable() {
  std::string name = "#V" + std::to_string(fresh_counter_++);
  return MakeVariable(name);
}

uint64_t TermStore::HashApply(TermId name, std::span<const TermId> args) const {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(name);
  mix(args.size());
  for (TermId a : args) mix(a);
  // Finalize (murmur3 fmix64): the index takes its slot from the low
  // bits, which the combine step above leaves poorly mixed.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

void TermStore::GrowApplyIndex() {
  std::vector<TermId> slots(apply_slots_.size() * 2, kNoTerm);
  const size_t mask = slots.size() - 1;
  for (TermId id : apply_slots_) {
    if (id == kNoTerm) continue;
    const Node& node = nodes_[id];
    const uint64_t h = HashApply(
        node.name, std::span<const TermId>(args_pool_.data() + node.args_begin,
                                           node.args_len));
    size_t i = h & mask;
    while (slots[i] != kNoTerm) i = (i + 1) & mask;
    slots[i] = id;
  }
  apply_slots_ = std::move(slots);
}

bool TermStore::ApplyEquals(TermId t, TermId name,
                            std::span<const TermId> args) const {
  const Node& node = nodes_[t];
  if (node.kind != TermKind::kApply) return false;
  if (node.name != name || node.args_len != args.size()) return false;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args_pool_[node.args_begin + i] != args[i]) return false;
  }
  return true;
}

TermId TermStore::MakeApply(TermId name, std::span<const TermId> args) {
  const uint64_t h = HashApply(name, args);
  size_t mask = apply_slots_.size() - 1;
  size_t slot = h & mask;
  for (; apply_slots_[slot] != kNoTerm; slot = (slot + 1) & mask) {
    if (ApplyEquals(apply_slots_[slot], name, args)) {
      obs::Count(obs::Counter::kTermInternHits);
      return apply_slots_[slot];
    }
  }
  obs::Count(obs::Counter::kTermsInterned);
  TermId id = static_cast<TermId>(nodes_.size());
  Node node;
  node.kind = TermKind::kApply;
  node.name = name;
  node.args_begin = static_cast<uint32_t>(args_pool_.size());
  node.args_len = static_cast<uint32_t>(args.size());
  bool ground = nodes_[name].ground;
  int depth = nodes_[name].depth;
  for (TermId a : args) {
    ground = ground && nodes_[a].ground;
    depth = std::max(depth, nodes_[a].depth);
  }
  node.ground = ground;
  node.depth = depth + 1;
  args_pool_.insert(args_pool_.end(), args.begin(), args.end());
  nodes_.push_back(node);
  if (2 * (apply_count_ + 1) > apply_slots_.size()) {
    GrowApplyIndex();
    mask = apply_slots_.size() - 1;
    slot = h & mask;
    while (apply_slots_[slot] != kNoTerm) slot = (slot + 1) & mask;
  }
  apply_slots_[slot] = id;
  ++apply_count_;
  return id;
}

TermId TermStore::MakeApply(TermId name, std::initializer_list<TermId> args) {
  return MakeApply(name, std::span<const TermId>(args.begin(), args.size()));
}

std::string_view TermStore::text(TermId t) const {
  assert(kind(t) != TermKind::kApply);
  return strings_[nodes_[t].text_index];
}

std::span<const TermId> TermStore::apply_args(TermId t) const {
  const Node& node = nodes_[t];
  if (node.kind != TermKind::kApply) return {};
  return std::span<const TermId>(args_pool_.data() + node.args_begin,
                                 node.args_len);
}

size_t TermStore::TreeSize(TermId t) const {
  if (kind(t) != TermKind::kApply) return 1;
  size_t total = 1 + TreeSize(apply_name(t));
  for (TermId a : apply_args(t)) total += TreeSize(a);
  return total;
}

TermId TermStore::OutermostFunctor(TermId t) const {
  while (kind(t) == TermKind::kApply) t = apply_name(t);
  return t;
}

std::optional<int64_t> TermStore::NumberValue(TermId t) const {
  if (kind(t) != TermKind::kSymbol) return std::nullopt;
  std::string_view s = text(t);
  if (s.empty()) return std::nullopt;
  int64_t value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  if (*begin == '-') ++begin;
  if (begin == end) return std::nullopt;
  auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

namespace {

// True if the symbol spelling lexes back to a single symbol token:
// lowercase identifier, integer, or one of the operator spellings the
// library itself uses ("[]" from lists; "+"/"-" from magic signs).
bool SymbolIsLexable(std::string_view s) {
  if (s.empty()) return false;
  if (s == "[]" || s == "+" || s == "-" || s == "*") return true;
  auto is_ident = [&]() {
    if (!std::islower(static_cast<unsigned char>(s[0]))) return false;
    for (char c : s) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
        return false;
      }
    }
    return true;
  };
  auto is_number = [&]() {
    size_t start = s[0] == '-' ? 1 : 0;
    if (start >= s.size()) return false;
    for (size_t i = start; i < s.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
    }
    return true;
  };
  return is_ident() || is_number();
}

}  // namespace

std::string TermStore::ToString(TermId t) const {
  switch (kind(t)) {
    case TermKind::kSymbol: {
      std::string_view s = text(t);
      if (SymbolIsLexable(s)) return std::string(s);
      return "'" + std::string(s) + "'";
    }
    case TermKind::kVariable:
      return std::string(text(t));
    case TermKind::kApply: {
      std::string out = ToString(apply_name(t));
      // A name that is itself an apply needs no parentheses in HiLog
      // concrete syntax: tc(e)(X,Y) parses unambiguously.
      out.push_back('(');
      bool first = true;
      for (TermId a : apply_args(t)) {
        if (!first) out.push_back(',');
        first = false;
        out += ToString(a);
      }
      out.push_back(')');
      return out;
    }
  }
  return "<bad-term>";
}

void TermStore::CollectVariables(TermId t, std::vector<TermId>* out) const {
  switch (kind(t)) {
    case TermKind::kSymbol:
      return;
    case TermKind::kVariable: {
      for (TermId v : *out) {
        if (v == t) return;
      }
      out->push_back(t);
      return;
    }
    case TermKind::kApply: {
      CollectVariables(apply_name(t), out);
      for (TermId a : apply_args(t)) CollectVariables(a, out);
      return;
    }
  }
}

void TermStore::CollectSymbols(TermId t, std::vector<TermId>* out) const {
  switch (kind(t)) {
    case TermKind::kSymbol: {
      for (TermId v : *out) {
        if (v == t) return;
      }
      out->push_back(t);
      return;
    }
    case TermKind::kVariable:
      return;
    case TermKind::kApply: {
      CollectSymbols(apply_name(t), out);
      for (TermId a : apply_args(t)) CollectSymbols(a, out);
      return;
    }
  }
}

}  // namespace hilog
