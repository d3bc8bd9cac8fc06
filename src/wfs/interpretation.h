#ifndef HILOG_WFS_INTERPRETATION_H_
#define HILOG_WFS_INTERPRETATION_H_

#include <vector>

#include "src/ground/ground_program.h"
#include "src/term/term_store.h"

namespace hilog {

/// Truth values of the three-valued (partial) interpretations of Section 3.
enum class TruthValue : uint8_t { kFalse = 0, kUndefined = 1, kTrue = 2 };

/// A three-valued Herbrand interpretation over a finite atom table.
///
/// Atoms outside the table are `kFalse` by default: in the well-founded
/// model, any atom with no rule instance is unfounded (Definition 3.3), so
/// after grounding, everything not mentioned is false. Engines that need a
/// different default (e.g. mid-iteration partial interpretations) work on
/// raw vectors and only build an `Interpretation` for their final answer.
class Interpretation {
 public:
  Interpretation() = default;
  explicit Interpretation(AtomTable table)
      : table_(std::move(table)),
        values_(table_.size(), TruthValue::kUndefined) {}
  /// Takes the truth values too: `values[i]` is the value of atom `i`.
  Interpretation(AtomTable table, std::vector<TruthValue> values)
      : table_(std::move(table)), values_(std::move(values)) {}

  const AtomTable& atoms() const { return table_; }

  TruthValue ValueAt(uint32_t index) const { return values_[index]; }
  void SetAt(uint32_t index, TruthValue value) { values_[index] = value; }

  /// Truth value of `atom`; atoms not in the table are false.
  TruthValue Value(TermId atom) const {
    uint32_t idx = table_.Find(atom);
    return idx == UINT32_MAX ? TruthValue::kFalse : values_[idx];
  }

  bool IsTrue(TermId atom) const { return Value(atom) == TruthValue::kTrue; }
  bool IsFalse(TermId atom) const { return Value(atom) == TruthValue::kFalse; }
  bool IsUndefined(TermId atom) const {
    return Value(atom) == TruthValue::kUndefined;
  }

  /// True if no atom in the table is undefined (a *total* interpretation).
  bool IsTotal() const;

  std::vector<TermId> TrueAtoms() const;
  std::vector<TermId> UndefinedAtoms() const;
  std::vector<TermId> FalseAtomsInTable() const;

  size_t CountTrue() const;
  size_t CountUndefined() const;

 private:
  AtomTable table_;
  std::vector<TruthValue> values_;
};

}  // namespace hilog

#endif  // HILOG_WFS_INTERPRETATION_H_
