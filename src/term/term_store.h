#ifndef HILOG_TERM_TERM_STORE_H_
#define HILOG_TERM_TERM_STORE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hilog {

/// Identifier of an interned HiLog term. Because terms are hash-consed,
/// two `TermId`s are equal if and only if they denote the same term.
using TermId = uint32_t;

/// Sentinel for "no term".
inline constexpr TermId kNoTerm = 0xFFFFFFFFu;

/// The three syntactic categories of HiLog terms (paper, Definition 2.1).
/// HiLog draws no distinction between predicate, function, and constant
/// symbols, so `kSymbol` covers all three; `kApply` is the application
/// t(t_1, ..., t_n) whose *name* t is itself an arbitrary term.
enum class TermKind : uint8_t {
  kSymbol = 0,
  kVariable = 1,
  kApply = 2,
};

/// Interning store for HiLog terms.
///
/// All terms live in a single `TermStore`; every construction function
/// returns the id of the unique structurally-equal term. The store grows
/// monotonically and ids remain valid for the lifetime of the store.
///
/// The store is not thread-safe; confine each store to one thread.
class TermStore {
 public:
  TermStore();

  TermStore(const TermStore&) = delete;
  TermStore& operator=(const TermStore&) = delete;

  /// Replaces this store's contents with a deep copy of `other`. Every
  /// TermId valid in `other` denotes the identical term in the copy, and
  /// new interning in the copy continues from `other.size()` upward —
  /// which is what lets Engine::Fork share id-keyed caches with the
  /// engine it forked from. The copy shares nothing with `other`; `other`
  /// is read-only during the call.
  void CopyFrom(const TermStore& other);

  /// Interns the symbol named `name`. In HiLog a symbol may be used as a
  /// constant, a function name, or a predicate name interchangeably.
  TermId MakeSymbol(std::string_view name);

  /// Interns the variable named `name`. Variable names share a namespace
  /// separate from symbols (so symbol "x" and variable "x" are distinct).
  TermId MakeVariable(std::string_view name);

  /// Returns a fresh variable that is guaranteed not to be returned by any
  /// `MakeVariable(name)` call for a user-supplied name (its generated name
  /// contains a '#', which the lexer rejects).
  TermId MakeFreshVariable();

  /// Interns the application `name(args...)`. Zero-ary applications
  /// (n == 0) are permitted, per the paper's footnote to Definition 2.1:
  /// the 0-ary atom with name p(3) is written p(3)().
  TermId MakeApply(TermId name, std::span<const TermId> args);
  TermId MakeApply(TermId name, std::initializer_list<TermId> args);

  /// Kind of the term.
  TermKind kind(TermId t) const { return nodes_[t].kind; }
  bool IsSymbol(TermId t) const { return kind(t) == TermKind::kSymbol; }
  bool IsVariable(TermId t) const { return kind(t) == TermKind::kVariable; }
  bool IsApply(TermId t) const { return kind(t) == TermKind::kApply; }

  /// Name text of a symbol or variable. Must not be called on an apply.
  std::string_view text(TermId t) const;

  /// Name term of an application t(t_1,...,t_n), i.e. t.
  TermId apply_name(TermId t) const { return nodes_[t].name; }

  /// Arguments of an application.
  std::span<const TermId> apply_args(TermId t) const;

  /// Arity: number of arguments of an application; 0 for symbols/variables.
  size_t arity(TermId t) const {
    return kind(t) == TermKind::kApply ? nodes_[t].args_len : 0;
  }

  /// True if no variable occurs in `t` (cached at construction).
  bool IsGround(TermId t) const { return nodes_[t].ground; }

  /// Nesting depth: symbols and variables have depth 0; an application has
  /// depth 1 + max(depth(name), depth(args)).
  int Depth(TermId t) const { return nodes_[t].depth; }

  /// Number of nodes in the term tree (symbols/variables count 1).
  size_t TreeSize(TermId t) const;

  /// The *predicate name* of a term viewed as an atom: for an application
  /// t(t_1,...,t_n) this is t; for a symbol or variable it is the term
  /// itself (a 0-ary predicate, or an atom that is just a variable).
  TermId PredName(TermId t) const {
    return kind(t) == TermKind::kApply ? nodes_[t].name : t;
  }

  /// The outermost functor: PredName applied until a non-apply is reached.
  /// E.g. the outermost functor of winning(m)(X) is the symbol `winning`.
  TermId OutermostFunctor(TermId t) const;

  /// If the symbol's text parses as a (possibly negative) integer, returns
  /// its value. Only meaningful for symbols.
  std::optional<int64_t> NumberValue(TermId t) const;

  /// Renders the term in HiLog concrete syntax, e.g. "tc(e)(X,Y)".
  std::string ToString(TermId t) const;

  /// Total number of interned terms.
  size_t size() const { return nodes_.size(); }

  /// Collects (deduplicated, in first-occurrence order) all variables
  /// occurring anywhere in `t` into `out`.
  void CollectVariables(TermId t, std::vector<TermId>* out) const;

  /// Collects all symbols occurring anywhere in `t` into `out` (dedup'd).
  void CollectSymbols(TermId t, std::vector<TermId>* out) const;

 private:
  struct Node {
    TermKind kind;
    bool ground;
    int depth;
    // For kSymbol/kVariable: index into strings_. For kApply: unused.
    uint32_t text_index = 0;
    // For kApply only.
    TermId name = kNoTerm;
    uint32_t args_begin = 0;
    uint32_t args_len = 0;
  };

  uint64_t HashApply(TermId name, std::span<const TermId> args) const;
  bool ApplyEquals(TermId t, TermId name, std::span<const TermId> args) const;
  void GrowApplyIndex();

  std::vector<Node> nodes_;
  std::vector<std::string> strings_;
  std::vector<TermId> args_pool_;
  std::unordered_map<std::string, TermId> symbol_index_;
  std::unordered_map<std::string, TermId> variable_index_;
  // Interned applications, open-addressed: a power-of-two table of term
  // ids (kNoTerm = empty) kept at most half full, probed linearly. Being
  // flat, it copies in one block — CopyFrom backs every Engine::Fork, and
  // a node-based index made that one allocation per interned term — and
  // costs 8-16 bytes per term.
  std::vector<TermId> apply_slots_;
  size_t apply_count_ = 0;
  uint64_t fresh_counter_ = 0;
};

}  // namespace hilog

#endif  // HILOG_TERM_TERM_STORE_H_
