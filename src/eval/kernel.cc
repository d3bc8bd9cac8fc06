#include "src/eval/kernel.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "src/lang/printer.h"
#include "src/obs/metrics.h"
#include "src/term/unify.h"

namespace hilog {
namespace {

// An op probes at most every indexable top path plus every indexable
// sub path under each (same bound CandidatesBatch's key array uses).
constexpr size_t kMaxKeysPerStep =
    FactBase::kMaxIndexedArgs * (1 + FactBase::kMaxIndexedSubArgs);

uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t RuleStructuralHash(const Rule& rule) {
  uint64_t h = MixHash(0x243f6a8885a308d3ULL, rule.head);
  for (const Literal& lit : rule.body) {
    h = MixHash(h, static_cast<uint64_t>(lit.kind));
    h = MixHash(h, lit.atom);
  }
  return h;
}

// True when every variable of `t` is in `bound` — the compile-time
// counterpart of "the substituted term is ground at probe time" (join
// steps only ever bind variables to ground fact sub-terms).
bool BoundGround(const TermStore& store, TermId t,
                 const std::unordered_set<TermId>& bound) {
  if (store.IsGround(t)) return true;
  std::vector<TermId> vars;
  store.CollectVariables(t, &vars);
  for (TermId v : vars) {
    if (bound.count(v) == 0) return false;
  }
  return true;
}

KernelSrc ClassifySrc(const TermStore& store, TermId t) {
  if (store.IsGround(t)) return KernelSrc::kConst;
  if (store.IsVariable(t)) return KernelSrc::kVar;
  return KernelSrc::kTerm;
}

}  // namespace

bool WorthCompiling(const TermStore& store, const Rule& rule) {
  for (const Literal& lit : rule.body) {
    if (lit.positive() && !store.IsGround(lit.atom)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Compiler

namespace {

// Lowers one planner probe key into its register-addressed form. The
// paths are in range for the atom by DeriveProbeKeys's construction, and
// substitution preserves the structure the paths address (argument
// count, compound-ness of keyed compound args), so the executor needs no
// runtime path guards.
KernelKey LowerKey(const TermStore& store, TermId atom,
                   const ColumnProbeKey& key) {
  KernelKey out;
  out.path = key.path;
  out.shape = key.shape;
  auto args = store.apply_args(atom);
  TermId arg = args[ColPathTop(key.path)];
  const uint32_t sub = ColPathSub(key.path);
  TermId src_term = kNoTerm;
  if (sub == 0 && key.shape) {
    src_term = store.apply_name(arg);
    out.arity = static_cast<uint32_t>(store.arity(arg));
  } else if (sub == 0) {
    src_term = arg;
  } else {
    src_term = store.apply_args(arg)[sub - 1];
  }
  out.src = ClassifySrc(store, src_term);
  out.term = src_term;
  if (out.src == KernelSrc::kConst) {
    out.fp = key.shape ? ShapeFingerprint(src_term, out.arity)
                       : ExactFingerprint(src_term);
  }
  return out;
}

}  // namespace

std::shared_ptr<const KernelProgram> KernelCache::GetWithOrder(
    TermStore& store, RuleEntry* entry, std::vector<size_t> order,
    size_t delta_pos) {
  for (const Variant& v : entry->variants) {
    if (v.delta_pos == delta_pos && v.order == order) {
      obs::Count(obs::Counter::kKernelCacheHits);
      return v.program;
    }
  }

  auto program = std::make_shared<KernelProgram>();
  program->order = order;
  program->delta_pos = delta_pos;
  program->head = entry->head;
  std::unordered_set<TermId> bound;
  for (size_t i = 0; i < order.size(); ++i) {
    const size_t pos = order[i];
    TermId atom = entry->pos_atoms[pos];
    const JoinAtomInfo& info = entry->info[pos];

    KernelOp op;
    op.atom = atom;
    op.from_delta = i == 0 && delta_pos != SIZE_MAX;
    bool all_bound = true;
    for (TermId v : info.all_vars) {
      if (bound.count(v) == 0) {
        all_bound = false;
        break;
      }
    }
    TermId name = store.PredName(atom);
    op.name = name;
    op.name_src = ClassifySrc(store, name);
    op.name_ground = BoundGround(store, name, bound);
    if (all_bound) {
      op.code = KernelOpCode::kSelectEq;
    } else if (op.name_ground) {
      std::vector<ColumnProbeKey> keys;
      DeriveProbeKeys(store, atom,
                      [&](TermId t) { return BoundGround(store, t, bound); },
                      &keys);
      if (!keys.empty()) {
        op.code = KernelOpCode::kProbeColumn;
        op.key_begin = static_cast<uint32_t>(program->keys.size());
        for (const ColumnProbeKey& k : keys) {
          program->keys.push_back(LowerKey(store, atom, k));
        }
        op.key_end = static_cast<uint32_t>(program->keys.size());
      } else {
        op.code = op.from_delta ? KernelOpCode::kScanDelta
                                : KernelOpCode::kScanRelation;
      }
    } else {
      // Unresolvable predicate name: whole-base scan (HiLog's
      // variable-predicate semantics).
      op.code = KernelOpCode::kScanRelation;
    }
    program->scan_ops.push_back(static_cast<uint32_t>(program->ops.size()));
    program->ops.push_back(std::move(op));

    KernelOp bind;
    bind.code = KernelOpCode::kBindArg;
    for (TermId v : info.all_vars) {
      if (bound.insert(v).second) bind.vars.push_back(v);
    }
    program->ops.push_back(std::move(bind));
  }
  {
    KernelOp project;
    project.code = KernelOpCode::kProject;
    std::vector<TermId> head_vars;
    store.CollectVariables(entry->head, &head_vars);
    std::unordered_set<TermId> seen;
    for (TermId v : head_vars) {
      if (seen.insert(v).second) project.vars.push_back(v);
    }
    program->ops.push_back(std::move(project));
    KernelOp emit;
    emit.code = KernelOpCode::kEmit;
    emit.atom = entry->head;
    program->ops.push_back(std::move(emit));
  }

  obs::Count(obs::Counter::kKernelProgramsCompiled);
  entry->variants.push_back(
      Variant{delta_pos, std::move(order), program});
  return program;
}

KernelCache::RuleEntry* KernelCache::FindOrCreate(TermStore& store,
                                                  const Rule& rule) {
  const uint64_t h = RuleStructuralHash(rule);
  std::vector<std::unique_ptr<RuleEntry>>& slot = rules_[h];
  for (const std::unique_ptr<RuleEntry>& e : slot) {
    if (e->head != rule.head || e->body_sig.size() != rule.body.size()) {
      continue;
    }
    bool same = true;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (e->body_sig[i].first != static_cast<uint8_t>(rule.body[i].kind) ||
          e->body_sig[i].second != rule.body[i].atom) {
        same = false;
        break;
      }
    }
    if (same) return e.get();
  }

  auto entry = std::make_unique<RuleEntry>();
  entry->head = rule.head;
  entry->body_sig.reserve(rule.body.size());
  for (const Literal& lit : rule.body) {
    entry->body_sig.emplace_back(static_cast<uint8_t>(lit.kind), lit.atom);
    if (lit.positive()) entry->pos_atoms.push_back(lit.atom);
  }
  entry->info.resize(entry->pos_atoms.size());
  for (size_t i = 0; i < entry->pos_atoms.size(); ++i) {
    CollectJoinAtomInfo(store, entry->pos_atoms[i], &entry->info[i]);
  }
  slot.push_back(std::move(entry));
  return slot.back().get();
}

std::shared_ptr<const KernelProgram> KernelCache::Get(
    TermStore& store, const Rule& rule, const JoinSizeEstimator& estimate,
    size_t delta_pos) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetLocked(store, FindOrCreate(store, rule), estimate, delta_pos);
}

KernelCache::Handle KernelCache::Resolve(TermStore& store, const Rule& rule) {
  std::lock_guard<std::mutex> lock(mu_);
  Handle handle;
  handle.entry_ = FindOrCreate(store, rule);
  return handle;
}

std::shared_ptr<const KernelProgram> KernelCache::Get(
    TermStore& store, Handle handle, const JoinSizeEstimator& estimate,
    size_t delta_pos) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetLocked(store, handle.entry_, estimate, delta_pos);
}

std::shared_ptr<const KernelProgram> KernelCache::GetLocked(
    TermStore& store, RuleEntry* entry, const JoinSizeEstimator& estimate,
    size_t delta_pos) {
  const size_t n = entry->pos_atoms.size();
  // With at most one free atom there is nothing to reorder beyond the
  // pin, and the estimator is never consulted.
  std::vector<size_t> order;
  order.reserve(n);
  if (n <= (delta_pos == SIZE_MAX ? size_t{1} : size_t{2})) {
    if (delta_pos != SIZE_MAX && delta_pos < n) order.push_back(delta_pos);
    for (size_t i = 0; i < n; ++i) {
      if (i != delta_pos) order.push_back(i);
    }
  } else {
    std::vector<size_t> est_sizes(n);
    for (size_t i = 0; i < n; ++i) {
      est_sizes[i] = estimate(entry->pos_atoms[i]);
    }
    order = PlanJoinOrder(entry->info, est_sizes, delta_pos);
  }
  return GetWithOrder(store, entry, std::move(order), delta_pos);
}

void KernelCache::Prewarm(TermStore& store, const Program& program) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Rule& rule : program.rules) {
    // Rules the evaluators never compile — fact rules and fully ground
    // bodies (see WorthCompiling) — get no entry: analyzing them here
    // would burn a structural hash per fact per publish, which on
    // fact-heavy programs dominates the whole delta.
    if (WorthCompiling(store, rule)) FindOrCreate(store, rule);
  }
}

void KernelCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
}

void KernelCache::CloneFrom(const KernelCache& other) {
  std::scoped_lock lock(mu_, other.mu_);
  rules_.clear();
  for (const auto& [h, slot] : other.rules_) {
    std::vector<std::unique_ptr<RuleEntry>>& dst = rules_[h];
    dst.reserve(slot.size());
    for (const std::unique_ptr<RuleEntry>& e : slot) {
      dst.push_back(std::make_unique<RuleEntry>(*e));
    }
  }
}

size_t KernelCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [h, slot] : rules_) n += slot.size();
  return n;
}

// ---------------------------------------------------------------------------
// Executor

namespace {

// The kSelectEq step: `atom` is ground, so it matches exactly itself.
// One membership probe, accounted as a candidate probe that returned the
// single hit (or nothing) out of the name bucket, plus the one trivial
// match a candidate walk would make — without making it. A missing
// bucket counts nothing.
bool SelectEq(const TermStore& store, const FactBase& source, TermId atom) {
  const std::vector<TermId>& bucket = source.WithName(store.PredName(atom));
  if (bucket.empty()) return false;
  obs::Count(obs::Counter::kIndexProbes);
  const size_t baseline = bucket.size();
  if (!source.Contains(atom)) {
    obs::Count(obs::Counter::kCandidatesPruned, baseline);
    obs::Count(obs::Counter::kUnificationsAvoided, baseline);
    return false;
  }
  obs::Count(obs::Counter::kCandidatesPruned, baseline - 1);
  if (baseline > 1) {
    obs::Count(obs::Counter::kUnificationsAvoided, baseline - 1);
  }
  obs::Count(obs::Counter::kMatchCalls);
  return true;
}

// One program run: a recursion over the join steps, each enumerating its
// candidates and matching them into the substitution's trail.
struct KernelExec {
  TermStore& store;
  const KernelProgram& p;
  const KernelContext& ctx;
  Substitution* subst;
  const std::function<bool(const Substitution&)>& sink;
  size_t ops_executed = 0;

  TermId Resolve(KernelSrc src, TermId t) {
    switch (src) {
      case KernelSrc::kConst:
        return t;
      case KernelSrc::kVar:
        return subst->Lookup(t);
      case KernelSrc::kTerm:
        return subst->Apply(store, t);
    }
    return t;
  }

  // Enumerates candidates for join step `si` and recurses. The
  // per-candidate match walks the original atom against the fact,
  // dereferencing bound variables on the fly (MatchResolvedInto) instead
  // of interning the substituted pattern first.
  bool Step(size_t si) {
    if (si == p.scan_ops.size()) {
      ++ops_executed;  // The kEmit: every join step matched.
      return sink(*subst);
    }
    const KernelOp& op = p.ops[p.scan_ops[si]];
    ++ops_executed;
    const bool is_delta = op.from_delta && ctx.delta != nullptr;
    const FactBase& source = is_delta ? *ctx.delta : *ctx.facts;
    const bool frozen = is_delta || ctx.facts_frozen;
    std::vector<TermId>* scratch = &(*ctx.scratch)[si];

    switch (op.code) {
      case KernelOpCode::kSelectEq:
        // Every variable is bound: a ground self-match binds nothing.
        if (!SelectEq(store, source, subst->Apply(store, op.atom))) {
          return true;
        }
        return Step(si + 1);
      case KernelOpCode::kProbeColumn: {
        // Probe fingerprints straight from the registers: provably the
        // fingerprints of the substituted pattern's key paths (bindings
        // are ground fact sub-terms; terms are hash-consed).
        TermId name = Resolve(op.name_src, op.name);
        ColumnRuntimeKey keys[kMaxKeysPerStep];
        size_t nkeys = 0;
        for (uint32_t k = op.key_begin; k < op.key_end; ++k) {
          const KernelKey& key = p.keys[k];
          uint64_t fp = key.fp;
          if (key.src != KernelSrc::kConst) {
            TermId t = Resolve(key.src, key.term);
            fp = key.shape ? ShapeFingerprint(t, key.arity)
                           : ExactFingerprint(t);
          }
          keys[nkeys++] = ColumnRuntimeKey{key.path, key.shape, fp};
        }
        const size_t baseline = source.WithName(name).size();
        std::span<const TermId> candidates =
            source.ProbeWithKeys(store, name, keys, nkeys, scratch, frozen);
        if (baseline > candidates.size()) {
          obs::Count(obs::Counter::kUnificationsAvoided,
                     baseline - candidates.size());
        }
        return MatchEach(si, op.atom, candidates);
      }
      case KernelOpCode::kScanDelta:
      case KernelOpCode::kScanRelation: {
        std::span<const TermId> candidates;
        if (op.name_ground) {
          // No key column discriminates anything: per-name bucket scan.
          TermId name = Resolve(op.name_src, op.name);
          const auto& bucket = source.WithName(name);
          if (bucket.empty()) {
            if (!frozen) scratch->clear();
            return true;
          }
          obs::Count(obs::Counter::kColFallbackTuples, bucket.size());
          if (frozen) {
            candidates = bucket;
          } else {
            scratch->assign(bucket.begin(), bucket.end());
            candidates = *scratch;
          }
        } else {
          // Unresolved predicate name: whole-base scan.
          const std::vector<TermId>& all = source.facts();
          obs::Count(obs::Counter::kColFallbackTuples, all.size());
          if (frozen) {
            candidates = all;
          } else {
            scratch->assign(all.begin(), all.end());
            candidates = *scratch;
          }
        }
        return MatchEach(si, op.atom, candidates);
      }
      default:
        return true;  // Unreachable: scan_ops only indexes join steps.
    }
  }

  // Matches each candidate into the trail and recurses per match.
  bool MatchEach(size_t si, TermId atom, std::span<const TermId> candidates) {
    const size_t mark = subst->Mark();
    for (TermId fact : candidates) {
      if (MatchResolvedInto(store, atom, fact, subst)) {
        if (!Step(si + 1)) {
          subst->UndoTo(mark);
          return false;
        }
        subst->UndoTo(mark);
      }
    }
    return true;
  }
};

}  // namespace

bool RunKernel(TermStore& store, const KernelProgram& program,
               const KernelContext& ctx, Substitution* subst,
               const std::function<bool(const Substitution&)>& sink) {
  KernelExec exec{store, program, ctx, subst, sink};
  const bool ok = exec.Step(0);
  if (exec.ops_executed > 0) {
    obs::Count(obs::Counter::kKernelOpsExecuted, exec.ops_executed);
  }
  return ok;
}

bool RunGroundBody(TermStore& store, const Rule& rule,
                   const KernelContext& ctx, size_t delta_pos,
                   const std::function<bool(const Substitution&)>& sink) {
  // Probe order. With every argument of every atom bound, the greedy
  // planner's "most bound arguments, then smallest relation, then
  // earliest" choice is a stable sort on (arity, size), after the pinned
  // delta literal.
  struct Probe {
    TermId atom;
    size_t arity;
    size_t size;
  };
  std::vector<Probe> probes;
  TermId pinned = kNoTerm;
  for (const Literal& lit : rule.body) {
    if (!lit.positive()) continue;
    if (probes.size() + (pinned != kNoTerm) == delta_pos) {
      pinned = lit.atom;
      continue;
    }
    probes.push_back({lit.atom,
                      store.IsApply(lit.atom) ? store.arity(lit.atom) : 0,
                      0});
  }
  if (probes.size() > 1) {
    for (Probe& p : probes) {
      p.size = ctx.facts->WithName(store.PredName(p.atom)).size();
    }
    std::stable_sort(probes.begin(), probes.end(),
                     [](const Probe& a, const Probe& b) {
                       return a.arity != b.arity ? a.arity > b.arity
                                                 : a.size < b.size;
                     });
  }
  if (pinned != kNoTerm &&
      !SelectEq(store, ctx.delta != nullptr ? *ctx.delta : *ctx.facts,
                pinned)) {
    return true;
  }
  for (const Probe& p : probes) {
    if (!SelectEq(store, *ctx.facts, p.atom)) return true;
  }
  return sink(Substitution());
}

// ---------------------------------------------------------------------------
// Explain

namespace {

void FormatKey(const TermStore& store, const KernelKey& key,
               std::ostream& os) {
  os << "@" << ColPathTop(key.path);
  if (ColPathSub(key.path) != 0) os << "." << (ColPathSub(key.path) - 1);
  os << (key.shape ? " shape" : " exact");
  switch (key.src) {
    case KernelSrc::kConst:
      os << " const";
      break;
    case KernelSrc::kVar:
      os << " reg(" << store.ToString(key.term) << ")";
      break;
    case KernelSrc::kTerm:
      os << " apply(" << store.ToString(key.term) << ")";
      break;
  }
  if (key.shape) os << "/" << key.arity;
}

}  // namespace

std::string FormatKernelProgram(const TermStore& store,
                                const KernelProgram& program) {
  std::ostringstream os;
  for (size_t i = 0; i < program.ops.size(); ++i) {
    const KernelOp& op = program.ops[i];
    os << "  " << i << ": ";
    switch (op.code) {
      case KernelOpCode::kScanDelta:
        os << "ScanDelta      " << store.ToString(op.atom);
        break;
      case KernelOpCode::kScanRelation:
        os << "ScanRelation   " << store.ToString(op.atom);
        if (!op.name_ground) os << "  [unresolved name: full scan]";
        if (op.from_delta) os << "  [delta]";
        break;
      case KernelOpCode::kProbeColumn: {
        os << "ProbeColumn    " << store.ToString(op.atom);
        if (op.from_delta) os << "  [delta]";
        os << "  keys=[";
        for (uint32_t k = op.key_begin; k < op.key_end; ++k) {
          if (k != op.key_begin) os << ", ";
          FormatKey(store, program.keys[k], os);
        }
        os << "]";
        break;
      }
      case KernelOpCode::kSelectEq:
        os << "SelectEq       " << store.ToString(op.atom);
        if (op.from_delta) os << "  [delta]";
        break;
      case KernelOpCode::kBindArg: {
        os << "BindArg        {";
        for (size_t v = 0; v < op.vars.size(); ++v) {
          if (v != 0) os << ", ";
          os << store.ToString(op.vars[v]);
        }
        os << "}";
        break;
      }
      case KernelOpCode::kProject: {
        os << "Project        {";
        for (size_t v = 0; v < op.vars.size(); ++v) {
          if (v != 0) os << ", ";
          os << store.ToString(op.vars[v]);
        }
        os << "}";
        break;
      }
      case KernelOpCode::kEmit:
        os << "Emit           " << store.ToString(op.atom);
        break;
    }
    os << "\n";
  }
  return os.str();
}

std::string ExplainKernelPrograms(TermStore& store, const Program& program) {
  std::ostringstream os;
  KernelCache cache;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    os << "rule " << r << ": " << RuleToString(store, rule) << "\n";
    auto compiled = cache.Get(
        store, rule, [](TermId) { return size_t{0}; }, SIZE_MAX);
    os << FormatKernelProgram(store, *compiled);
  }
  return os.str();
}

}  // namespace hilog
