#ifndef HILOG_GROUND_GROUND_PROGRAM_H_
#define HILOG_GROUND_GROUND_PROGRAM_H_

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/lang/ast.h"
#include "src/term/term_store.h"

namespace hilog {

/// A fully instantiated rule: head <- pos_1,...,pos_m, ~neg_1,...,~neg_k.
/// All terms are ground.
struct GroundRule {
  TermId head = kNoTerm;
  std::vector<TermId> pos;
  std::vector<TermId> neg;

  bool operator==(const GroundRule& other) const = default;
};

/// Dense numbering of ground atoms, so semantics engines can use flat
/// arrays instead of hash maps keyed on TermId. The index is a flat
/// open-addressing table (linear probing, power-of-two capacity): an
/// intern is one probe chain over a contiguous array, with no per-node
/// allocation — interning is on the critical path of every solve (table
/// assembly runs per scheduled component, including replays).
class AtomTable {
 public:
  /// Returns the dense index of `atom`, interning it if new.
  uint32_t Intern(TermId atom) {
    if ((atoms_.size() + 1) * 10 >= slots_.size() * 7) Grow();
    size_t i = ProbeSlot(atom);
    if (slots_[i] == 0) {
      slots_[i] = static_cast<uint32_t>(atoms_.size()) + 1;
      atoms_.push_back(atom);
    }
    return slots_[i] - 1;
  }

  /// Returns the dense index, or UINT32_MAX if the atom is unknown.
  uint32_t Find(TermId atom) const {
    if (slots_.empty()) return UINT32_MAX;
    size_t i = ProbeSlot(atom);
    return slots_[i] == 0 ? UINT32_MAX : slots_[i] - 1;
  }

  TermId atom(uint32_t index) const { return atoms_[index]; }
  size_t size() const { return atoms_.size(); }
  const std::vector<TermId>& atoms() const { return atoms_; }

  /// Sizes the table for `n` atoms, so interning that many never rehashes.
  void Reserve(size_t n) {
    atoms_.reserve(n);
    size_t capacity = slots_.empty() ? 64 : slots_.size();
    while ((n + 1) * 10 >= capacity * 7) capacity *= 2;
    if (capacity > slots_.size()) Rehash(capacity);
  }

 private:
  /// Slot holding `atom` or the first empty slot of its probe chain.
  /// Slot values are dense index + 1; 0 marks empty.
  size_t ProbeSlot(TermId atom) const {
    const size_t mask = slots_.size() - 1;
    size_t i = HomeSlot(atom);
    while (slots_[i] != 0 && atoms_[slots_[i] - 1] != atom) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Fibonacci hashing: the top bits of atom * 2^64/phi. The atoms of one
  /// component are interned together and have nearby term ids, which
  /// this spreads evenly over the table with one multiply.
  size_t HomeSlot(TermId atom) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(atom) * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void Grow() { Rehash(slots_.empty() ? 64 : slots_.size() * 2); }

  void Rehash(size_t capacity) {
    shift_ = 64 - std::countr_zero(capacity);
    slots_.assign(capacity, 0);
    for (uint32_t idx = 0; idx < atoms_.size(); ++idx) {
      size_t i = ProbeSlot(atoms_[idx]);
      slots_[i] = idx + 1;
    }
  }

  std::vector<TermId> atoms_;
  std::vector<uint32_t> slots_;
  int shift_ = 64;  // 64 - log2(slots_.size()), set by Rehash.
};

/// A ground (Herbrand-instantiated) program, the input to the semantics
/// engines of Section 3 / Section 4.
struct GroundProgram {
  std::vector<GroundRule> rules;

  void Add(GroundRule rule) { rules.push_back(std::move(rule)); }
  size_t size() const { return rules.size(); }

  /// Interns every atom occurring in the program into `table`.
  void CollectAtoms(AtomTable* table) const;

  /// Renders for debugging.
  std::string ToString(const TermStore& store) const;
};

/// Converts a ground `Program` (only positive/negative literals, all terms
/// ground) into a `GroundProgram`. Returns false if some rule is non-ground
/// or uses aggregate/builtin literals.
bool ToGroundProgram(const TermStore& store, const Program& program,
                     GroundProgram* out);

}  // namespace hilog

#endif  // HILOG_GROUND_GROUND_PROGRAM_H_
