#ifndef HILOG_EVAL_FACT_BASE_H_
#define HILOG_EVAL_FACT_BASE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/term/term_store.h"

namespace hilog {

/// Exact fingerprint of a ground term (the term id is a perfect key) and
/// the (name, arity) shape fingerprint of an application. The two seed
/// families never collide; neither is ever 0. Exported so the kernel
/// compiler can precompute constant keys and the executor can fingerprint
/// register-resolved terms (see ColumnProbeKey).
uint64_t ExactFingerprint(TermId t);
uint64_t ShapeFingerprint(TermId name, size_t arity);

/// Argument path codes of the columnar key columns: a top-level position
/// i, or sub-position j inside the compound argument at position i (one
/// nesting level).
inline constexpr uint32_t ColTopPath(size_t i) {
  return static_cast<uint32_t>(i) << 4;
}
inline constexpr uint32_t ColSubPath(size_t i, size_t j) {
  return (static_cast<uint32_t>(i) << 4) | static_cast<uint32_t>(j + 1);
}
inline constexpr size_t ColPathTop(uint32_t path) { return path >> 4; }
/// 0 for a top-level path, j+1 for sub-position j.
inline constexpr uint32_t ColPathSub(uint32_t path) { return path & 0xFu; }

/// A probe key the join planner proves usable at plan time: an argument
/// path that will be fully ground once the preceding join steps have
/// matched (so its exact fingerprint discriminates), or — with `shape`
/// set — a compound argument whose name will be ground (so its
/// (name, arity) shape discriminates).
struct ColumnProbeKey {
  uint32_t path = 0;
  bool shape = false;
};

/// A probe key with its runtime fingerprint already computed: what
/// CandidatesBatch assembles internally from a pattern, and what the
/// kernel executor (src/eval/kernel.h) computes straight from its
/// register file — skipping the pattern substitution entirely — to probe
/// through ProbeWithKeys.
struct ColumnRuntimeKey {
  uint32_t path = 0;
  bool shape = false;
  uint64_t fp = 0;
};

/// A set of ground atoms indexed for the unification joins of bottom-up
/// evaluation at two levels:
///
///  1. the atom's full predicate name (HiLog names may be compound, e.g.
///     winning(move1), so the key is a term id, not a symbol), and
///  2. per relation (name bucket), lazily built key columns over argument
///     paths: the first kMaxIndexedArgs top-level positions and one
///     sub-position level inside compound arguments. The sub-positions
///     matter for encodings that bury the joining terms one level down,
///     e.g. the universal call/u_i encoding's call(u3(e,X,Y)), where only
///     the sub-arguments of u3(...) discriminate anything.
///
/// Probes degrade gracefully: a fully ground pattern is an O(1)
/// membership check, a pattern with no keyed arguments falls back to the
/// per-name bucket, and a literal whose name is still a variable scans
/// the whole base (preserving HiLog's variable-predicate semantics).
/// Candidates come back as spans over grouped row arrays in insertion
/// order (see the class comment on KeyColumn below).
class FactBase {
 public:
  /// Argument positions covered by the key columns; facts with higher
  /// arity are still keyed on their first kMaxIndexedArgs args.
  static constexpr size_t kMaxIndexedArgs = 4;

  /// Sub-positions indexed inside each compound argument (one nesting
  /// level deep).
  static constexpr size_t kMaxIndexedSubArgs = 4;

  FactBase() = default;

  /// Inserts a ground atom. Returns true if it was new.
  bool Insert(const TermStore& store, TermId atom);

  /// Erases a ground atom; returns true if it was present. Equivalent to
  /// EraseBatch({atom}) — see there for the key-column consequences.
  bool Erase(const TermStore& store, TermId atom);

  /// Erases a batch of ground atoms, returning how many were present.
  /// Insertion order of the survivors is preserved (erased rows are
  /// tombstoned and compacted out in one pass), so a later full scan or
  /// probe sees exactly the order a fresh base built from the survivors
  /// would have. The key columns of every touched relation are dropped:
  /// they assume append-only buckets (watermark catch-up), and
  /// rebuilding lazily on the next probe is cheaper than surgically
  /// rewriting row groups.
  size_t EraseBatch(const TermStore& store, const std::vector<TermId>& atoms);

  bool Contains(TermId atom) const { return facts_.count(atom) > 0; }
  size_t size() const { return facts_.size(); }
  bool empty() const { return facts_.empty(); }

  /// All facts, in insertion order.
  const std::vector<TermId>& facts() const { return ordered_; }

  /// Facts whose predicate name equals `name` exactly. Returns an empty
  /// vector reference if none.
  const std::vector<TermId>& WithName(TermId name) const;

  /// Candidate facts for joining against `literal_atom`: a superset of
  /// the facts the pattern matches, in fact insertion order, with probe
  /// misses proving emptiness. Answers from per-relation key columns
  /// whose fingerprint hash is built once and streamed through; the keys
  /// are every argument path of the pattern that is ground (exact key)
  /// or a compound with a ground name (shape key, plus exact keys for its
  /// ground sub-arguments).
  ///
  /// Contract:
  ///  - `frozen == false` (the caller may Insert while iterating): the
  ///    result is always written to `*scratch` and the returned span
  ///    aliases it, so the caller owns a stable snapshot. Reusing one
  ///    scratch vector per join depth makes the probe allocation-free
  ///    after warmup.
  ///  - `frozen == true` (the caller provably does not mutate this base
  ///    while iterating): the span may alias internal storage (e.g. the
  ///    whole per-name bucket when no argument discriminates), skipping
  ///    the defensive copy entirely. `*scratch` may still be used as
  ///    backing storage.
  std::span<const TermId> CandidatesBatch(const TermStore& store,
                                          TermId literal_atom,
                                          std::vector<TermId>* scratch,
                                          bool frozen) const;

  /// The columnar probe core of CandidatesBatch, callable with
  /// pre-computed runtime keys: `name` is the pattern's (ground) predicate
  /// name, `keys` the (path, fingerprint) pairs already evaluated against
  /// the caller's bindings. Produces exactly the candidates — same rows,
  /// same order, same counters — that CandidatesBatch would for a
  /// non-ground apply pattern with those keys, without the caller ever
  /// interning the substituted pattern. With zero keys (or a bucket at or
  /// under the small-bucket cutoff) it degrades to the per-name bucket,
  /// like CandidatesBatch's fallback. `frozen` follows the
  /// CandidatesBatch contract.
  std::span<const TermId> ProbeWithKeys(const TermStore& store, TermId name,
                                        const ColumnRuntimeKey* keys,
                                        size_t nkeys,
                                        std::vector<TermId>* scratch,
                                        bool frozen) const;

  /// Size of the candidate list an unindexed scan would walk for this
  /// pattern: the name bucket for a ground name, the whole base
  /// otherwise. Used to account unifications avoided.
  size_t NameBucketSize(const TermStore& store, TermId literal_atom) const;

  void Clear();

 private:
  /// One key column of a relation (a per-name bucket): the extracted
  /// sub-term and its fingerprint for every row, flat and row-aligned
  /// with the bucket, plus an open-addressed hash from fingerprint to a
  /// group of ascending row indices. Groups preserve insertion order, so
  /// a probe answers with candidates in fact insertion order — which is
  /// what keeps every evaluator's output order independent of which keys
  /// a probe used. Built lazily per (path, kind) on the first probe that
  /// wants it and caught up to the bucket watermark on later probes
  /// (amortized O(1) per insert).
  struct KeyColumn {
    uint32_t path = 0;
    bool shape = false;
    size_t rows = 0;                 // Bucket prefix covered so far.
    std::vector<TermId> ids;         // Extracted sub-term per row.
    std::vector<uint64_t> fps;       // Fingerprint per row (0 = no key).
    std::vector<std::vector<uint32_t>> groups;  // Ascending row indices.
    std::vector<uint64_t> slot_fp;   // Open addressing; 0 = empty slot.
    std::vector<uint32_t> slot_group;
    size_t slot_mask = 0;

    void ExtendTo(const TermStore& store, const std::vector<TermId>& bucket);
    const std::vector<uint32_t>* Find(uint64_t fp) const;

   private:
    void AddToGroup(uint64_t fp, uint32_t row);
    void Rehash(size_t slots);
  };
  struct ColumnTable {
    std::vector<KeyColumn> cols;  // Tiny: linear scan by (path, kind).
  };

  KeyColumn& EnsureColumn(const TermStore& store, TermId name,
                          const std::vector<TermId>& bucket, uint32_t path,
                          bool shape) const;

  // Shared probe tail of CandidatesBatch and ProbeWithKeys: requires a
  // bucket above the small-bucket cutoff and at least one key.
  std::span<const TermId> ProbeBucket(const TermStore& store, TermId name,
                                      const std::vector<TermId>& bucket,
                                      const ColumnRuntimeKey* keys,
                                      size_t nkeys,
                                      std::vector<TermId>* scratch,
                                      bool frozen) const;

  std::unordered_set<TermId> facts_;
  std::vector<TermId> ordered_;
  std::unordered_map<TermId, std::vector<TermId>> by_name_;
  // Key columns per relation, built lazily by probes.
  mutable std::unordered_map<TermId, ColumnTable> columnar_;
  static const std::vector<TermId> kEmpty;
};

}  // namespace hilog

#endif  // HILOG_EVAL_FACT_BASE_H_
