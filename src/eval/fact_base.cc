#include "src/eval/fact_base.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace hilog {
namespace {

// Buckets at or below this size are scanned directly; probing would cost
// more than the handful of unifications it saves.
constexpr size_t kSmallBucket = 4;

// When the most selective probe bucket is still larger than this, it is
// intersected with the second most selective one before being returned.
constexpr size_t kIntersectThreshold = 16;

// Upper bound on simultaneous probe keys for one pattern: kMaxIndexedArgs
// top-level keys plus kMaxIndexedSubArgs sub-keys under each.
constexpr size_t kMaxProbeKeys =
    FactBase::kMaxIndexedArgs * (1 + FactBase::kMaxIndexedSubArgs);

// splitmix64 finalizer: a bijection on 64-bit values, so distinct seeds
// stay distinct.
uint64_t Mix(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

// Exact fingerprint of a ground term: terms are hash-consed, so TermId
// equality is term equality and the id alone discriminates perfectly.
// Odd seed family (symbols and ground applications alike).
uint64_t ExactFingerprint(TermId t) {
  uint64_t h = Mix((uint64_t{t} << 1) | 1);
  return h == 0 ? 1 : h;
}

// Shape fingerprint of an application with a ground name: (name, arity).
// Even seed family, so it can never collide with an exact fingerprint.
uint64_t ShapeFingerprint(TermId name, size_t arity) {
  uint64_t h = Mix((uint64_t{name} << 20) ^ (uint64_t{arity} << 1));
  return h == 0 ? 1 : h;
}

const std::vector<TermId> FactBase::kEmpty;

bool FactBase::Insert(const TermStore& store, TermId atom) {
  auto [it, inserted] = facts_.insert(atom);
  if (!inserted) return false;
  ordered_.push_back(atom);
  // Key columns keep their own per-column watermark: they catch up to
  // the bucket on the next probe that wants them, so an insert never
  // pays for columns nobody queries.
  by_name_[store.PredName(atom)].push_back(atom);
  return true;
}

bool FactBase::Erase(const TermStore& store, TermId atom) {
  return EraseBatch(store, {atom}) > 0;
}

size_t FactBase::EraseBatch(const TermStore& store,
                            const std::vector<TermId>& atoms) {
  std::unordered_set<TermId> touched_names;
  size_t erased = 0;
  for (TermId atom : atoms) {
    if (facts_.erase(atom) == 0) continue;
    ++erased;
    touched_names.insert(store.PredName(atom));
  }
  if (erased == 0) return 0;
  // The erased atoms are now tombstones in ordered_/by_name_ (present in
  // the vectors, absent from facts_); compact them out immediately so
  // every downstream consumer keeps seeing a dense insertion order.
  std::erase_if(ordered_, [&](TermId t) { return facts_.count(t) == 0; });
  for (TermId name : touched_names) {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) continue;
    std::erase_if(it->second, [&](TermId t) { return facts_.count(t) == 0; });
    if (it->second.empty()) by_name_.erase(it);
    // Key columns watermark against the bucket they were built over;
    // a shrunk or rewritten bucket invalidates every column of the
    // relation (they rebuild lazily on the next probe).
    columnar_.erase(name);
  }
  return erased;
}

const std::vector<TermId>& FactBase::WithName(TermId name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kEmpty : it->second;
}

size_t FactBase::NameBucketSize(const TermStore& store,
                                TermId literal_atom) const {
  TermId name = store.PredName(literal_atom);
  return store.IsGround(name) ? WithName(name).size() : ordered_.size();
}

// --- Columnar key columns -------------------------------------------------

void FactBase::KeyColumn::Rehash(size_t slots) {
  slot_fp.assign(slots, 0);
  slot_group.assign(slots, 0);
  slot_mask = slots - 1;
  // Re-seat every existing group under its fingerprint. Group fingerprints
  // are recovered from the first row of each group.
  for (uint32_t g = 0; g < groups.size(); ++g) {
    uint64_t fp = fps[groups[g].front()];
    size_t h = static_cast<size_t>(fp) & slot_mask;
    while (slot_fp[h] != 0) h = (h + 1) & slot_mask;
    slot_fp[h] = fp;
    slot_group[h] = g;
  }
}

void FactBase::KeyColumn::AddToGroup(uint64_t fp, uint32_t row) {
  if (slot_fp.empty()) Rehash(16);
  // Keep load under ~70% counted on distinct keys.
  if ((groups.size() + 1) * 10 > slot_fp.size() * 7) {
    Rehash(slot_fp.size() * 2);
  }
  size_t h = static_cast<size_t>(fp) & slot_mask;
  while (slot_fp[h] != 0 && slot_fp[h] != fp) h = (h + 1) & slot_mask;
  if (slot_fp[h] == 0) {
    slot_fp[h] = fp;
    slot_group[h] = static_cast<uint32_t>(groups.size());
    groups.emplace_back();
  }
  groups[slot_group[h]].push_back(row);
}

const std::vector<uint32_t>* FactBase::KeyColumn::Find(uint64_t fp) const {
  if (slot_fp.empty()) return nullptr;
  size_t h = static_cast<size_t>(fp) & slot_mask;
  while (slot_fp[h] != 0) {
    if (slot_fp[h] == fp) return &groups[slot_group[h]];
    h = (h + 1) & slot_mask;
  }
  return nullptr;
}

void FactBase::KeyColumn::ExtendTo(const TermStore& store,
                                   const std::vector<TermId>& bucket) {
  if (rows > bucket.size()) {
    // The bucket shrank underneath the column — some mutation path
    // bypassed EraseBatch's per-name invalidation. The watermark
    // catch-up below assumes append-only growth and would silently keep
    // groups pointing past the bucket's end, so rebuild from scratch.
    rows = 0;
    ids.clear();
    fps.clear();
    groups.clear();
    slot_fp.clear();
    slot_group.clear();
    slot_mask = 0;
  }
  if (rows == bucket.size()) return;
  obs::Count(obs::Counter::kColRows, bucket.size() - rows);
  const size_t top = ColPathTop(path);
  const uint32_t sub = ColPathSub(path);
  // First build sizes the arrays once; later catch-ups ride push_back's
  // geometric growth (an exact reserve per catch-up would reallocate the
  // whole column on every probe of a growing bucket — quadratic).
  if (rows == 0) {
    ids.reserve(bucket.size());
    fps.reserve(bucket.size());
  }
  for (; rows < bucket.size(); ++rows) {
    TermId key_id = kNoTerm;
    uint64_t fp = 0;
    TermId atom = bucket[rows];
    // Rows that lack the path (symbol atoms in an apply bucket, short
    // arities, symbol arguments under a shape or sub-path key) keep
    // fingerprint 0 and join no group: a probe can never select them,
    // and no pattern with a key on that path could match them.
    if (store.IsApply(atom)) {
      auto args = store.apply_args(atom);
      if (top < args.size()) {
        TermId arg = args[top];
        if (sub == 0) {
          if (!shape) {
            key_id = arg;
            fp = ExactFingerprint(arg);
          } else if (store.IsApply(arg)) {
            key_id = store.apply_name(arg);
            fp = ShapeFingerprint(store.apply_name(arg), store.arity(arg));
          }
        } else if (store.IsApply(arg)) {
          auto subargs = store.apply_args(arg);
          size_t j = sub - 1;
          if (j < subargs.size()) {
            key_id = subargs[j];
            fp = ExactFingerprint(subargs[j]);
          }
        }
      }
    }
    ids.push_back(key_id);
    fps.push_back(fp);
    if (fp != 0) AddToGroup(fp, static_cast<uint32_t>(rows));
  }
}

FactBase::KeyColumn& FactBase::EnsureColumn(const TermStore& store,
                                            TermId name,
                                            const std::vector<TermId>& bucket,
                                            uint32_t path, bool shape) const {
  ColumnTable& table = columnar_[name];
  for (KeyColumn& col : table.cols) {
    if (col.path == path && col.shape == shape) {
      col.ExtendTo(store, bucket);
      return col;
    }
  }
  KeyColumn& col = table.cols.emplace_back();
  col.path = path;
  col.shape = shape;
  col.ExtendTo(store, bucket);
  return col;
}

std::span<const TermId> FactBase::CandidatesBatch(const TermStore& store,
                                                  TermId literal_atom,
                                                  std::vector<TermId>* scratch,
                                                  bool frozen) const {
  TermId name = store.PredName(literal_atom);
  // A variable predicate name can match any fact: full scan, exactly the
  // semantics HiLog's higher-order joins rely on. No column helps here.
  if (!store.IsGround(name)) {
    obs::Count(obs::Counter::kColFallbackTuples, ordered_.size());
    if (frozen) return ordered_;
    scratch->assign(ordered_.begin(), ordered_.end());
    return *scratch;
  }
  auto bucket_it = by_name_.find(name);
  if (bucket_it == by_name_.end()) {
    if (!frozen) scratch->clear();
    return {};
  }
  const std::vector<TermId>& bucket = bucket_it->second;
  if (store.IsGround(literal_atom)) {
    // A ground pattern matches exactly itself: one membership check.
    obs::Count(obs::Counter::kIndexProbes);
    if (facts_.count(literal_atom) > 0) {
      obs::Count(obs::Counter::kCandidatesPruned, bucket.size() - 1);
      scratch->assign(1, literal_atom);
      return *scratch;
    }
    obs::Count(obs::Counter::kCandidatesPruned, bucket.size());
    if (!frozen) scratch->clear();
    return {};
  }
  // Degenerate buckets and non-apply patterns fall back to the bucket —
  // frozen callers get it as a zero-copy span.
  auto bucket_fallback = [&]() -> std::span<const TermId> {
    obs::Count(obs::Counter::kColFallbackTuples, bucket.size());
    if (frozen) return bucket;
    scratch->assign(bucket.begin(), bucket.end());
    return *scratch;
  };
  if (bucket.size() <= kSmallBucket || !store.IsApply(literal_atom)) {
    return bucket_fallback();
  }

  // Assemble the runtime probe keys, (path, fingerprint) pairs, from
  // every argument path the pattern binds.
  ColumnRuntimeKey keys[kMaxProbeKeys];
  size_t nkeys = 0;
  auto args = store.apply_args(literal_atom);
  for (size_t pos = 0; pos < args.size() && pos < kMaxIndexedArgs; ++pos) {
    TermId arg = args[pos];
    if (store.IsGround(arg)) {
      keys[nkeys++] = {ColTopPath(pos), false, ExactFingerprint(arg)};
      continue;
    }
    if (store.kind(arg) != TermKind::kApply ||
        !store.IsGround(store.apply_name(arg))) {
      continue;  // A variable (or variable-named application): no probe.
    }
    keys[nkeys++] = {ColTopPath(pos), true,
                     ShapeFingerprint(store.apply_name(arg),
                                      store.arity(arg))};
    auto sub = store.apply_args(arg);
    for (size_t j = 0; j < sub.size() && j < kMaxIndexedSubArgs; ++j) {
      if (store.IsGround(sub[j])) {
        keys[nkeys++] = {ColSubPath(pos, j), false, ExactFingerprint(sub[j])};
      }
    }
  }
  if (nkeys == 0) return bucket_fallback();
  return ProbeBucket(store, name, bucket, keys, nkeys, scratch, frozen);
}

std::span<const TermId> FactBase::ProbeWithKeys(
    const TermStore& store, TermId name, const ColumnRuntimeKey* keys,
    size_t nkeys, std::vector<TermId>* scratch, bool frozen) const {
  auto bucket_it = by_name_.find(name);
  if (bucket_it == by_name_.end()) {
    if (!frozen) scratch->clear();
    return {};
  }
  const std::vector<TermId>& bucket = bucket_it->second;
  if (bucket.size() <= kSmallBucket || nkeys == 0) {
    obs::Count(obs::Counter::kColFallbackTuples, bucket.size());
    if (frozen) return bucket;
    scratch->assign(bucket.begin(), bucket.end());
    return *scratch;
  }
  return ProbeBucket(store, name, bucket, keys, nkeys, scratch, frozen);
}

std::span<const TermId> FactBase::ProbeBucket(
    const TermStore& store, TermId name, const std::vector<TermId>& bucket,
    const ColumnRuntimeKey* keys, size_t nkeys, std::vector<TermId>* scratch,
    bool frozen) const {
  // Probe the key columns: each hash lookup lands on a group of ascending
  // row indices sharing that fingerprint. A miss is a proof of emptiness.
  // The tracked group and fps pointers survive later EnsureColumn calls:
  // a ColumnTable reallocation moves the KeyColumn objects, but a vector
  // move steals the heap buffer the pointers point into.
  obs::Count(obs::Counter::kColBatchJoins);
  struct Hit {
    const std::vector<uint32_t>* group = nullptr;
    const uint64_t* fps = nullptr;
    uint64_t fp = 0;
  };
  Hit best;
  Hit second;
  for (size_t k = 0; k < nkeys; ++k) {
    obs::Count(obs::Counter::kIndexProbes);
    KeyColumn& col =
        EnsureColumn(store, name, bucket, keys[k].path, keys[k].shape);
    const std::vector<uint32_t>* group = col.Find(keys[k].fp);
    if (group == nullptr) {
      obs::Count(obs::Counter::kCandidatesPruned, bucket.size());
      if (!frozen) scratch->clear();
      return {};
    }
    Hit hit{group, col.fps.data(), keys[k].fp};
    if (best.group == nullptr || group->size() < best.group->size()) {
      second = best;
      best = hit;
    } else if (second.group == nullptr ||
               group->size() < second.group->size()) {
      second = hit;
    }
  }

  // Gather the winning group's rows into the scratch buffer. When the
  // best group is still large and a second key excludes at least half the
  // bucket, filter the best rows against the second column's fingerprint
  // array: row r survives iff fps[r] equals the probed fingerprint, which
  // is exactly membership in the second group (a group is the set of rows
  // sharing one fingerprint), in the same ascending row order the old
  // two-pointer merge produced. The filter is a branch-free 4-wide
  // unrolled loop over the flat fingerprint column — each lane writes its
  // candidate unconditionally and advances the output cursor by the
  // comparison mask — so it autovectorizes and never mispredicts, and it
  // reads |best| entries instead of walking |best| + |second| rows.
  scratch->clear();
  const std::vector<uint32_t>& rows = *best.group;
  if (second.group != nullptr && rows.size() > kIntersectThreshold &&
      second.group->size() * 2 <= bucket.size()) {
    const uint64_t* fps = second.fps;
    const uint64_t want = second.fp;
    const uint32_t* row = rows.data();
    const size_t n = rows.size();
    scratch->resize(n);
    TermId* dst = scratch->data();
    size_t out = 0;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const uint32_t r0 = row[i];
      const uint32_t r1 = row[i + 1];
      const uint32_t r2 = row[i + 2];
      const uint32_t r3 = row[i + 3];
      dst[out] = bucket[r0];
      out += fps[r0] == want;
      dst[out] = bucket[r1];
      out += fps[r1] == want;
      dst[out] = bucket[r2];
      out += fps[r2] == want;
      dst[out] = bucket[r3];
      out += fps[r3] == want;
    }
    for (; i < n; ++i) {
      const uint32_t r = row[i];
      dst[out] = bucket[r];
      out += fps[r] == want;
    }
    scratch->resize(out);
  } else {
    scratch->reserve(rows.size());
    for (uint32_t r : rows) scratch->push_back(bucket[r]);
  }
  obs::Count(obs::Counter::kColProbeHits, scratch->size());
  obs::Count(obs::Counter::kCandidatesPruned, bucket.size() - scratch->size());
  return *scratch;
}

void FactBase::Clear() {
  facts_.clear();
  ordered_.clear();
  by_name_.clear();
  columnar_.clear();
}

}  // namespace hilog
