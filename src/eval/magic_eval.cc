#include "src/eval/magic_eval.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "src/eval/cancel.h"
#include "src/eval/fact_base.h"
#include "src/eval/kernel.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/term/unify.h"

namespace hilog {
namespace {

// Fact store that admits non-ground facts, deduplicating up to variable
// renaming. Ground facts live in two keyed FactBases (the key columns the
// bottom-up evaluators join through): a frozen base, the EDB, probed in
// place and never triggering rules (rewritten rules are driven by magic/sup
// deltas), and the derived facts. A ground name lives in one of the two
// (MagicRewriteOptions::edb), so a probe reads it as one store would.
// Non-ground facts — rare, produced only by unsafe rewritten rules — stay
// in small per-name side buckets.
class VariantFactStore {
 public:
  VariantFactStore(TermStore& store, const FactBase* base)
      : store_(store), base_(base != nullptr ? *base : kNoBase) {}

  bool Insert(TermId fact) {
    if (store_.IsGround(fact)) {
      if (base_.Contains(fact) || !ground_.Insert(store_, fact)) return false;
      ordered_.push_back(fact);
      return true;
    }
    // Variant dedup scans only the non-ground bucket for this name:
    // ground duplicates are an O(1) membership check in the index above,
    // so the scan no longer walks every ground fact of the predicate.
    TermId name = store_.PredName(fact);
    if (!store_.IsGround(name)) name = kNoTerm;
    std::vector<TermId>& bucket = nonground_by_name_[name];
    for (TermId existing : bucket) {
      if (IsVariant(store_, existing, fact)) return false;
    }
    bucket.push_back(fact);
    ordered_.push_back(fact);
    return true;
  }

  bool ContainsGround(TermId fact) const {
    return Layer(store_.PredName(fact)).Contains(fact);
  }
  /// Skips the EDB rows, for atoms that cannot be one.
  bool ContainsDerived(TermId fact) const { return ground_.Contains(fact); }

  // Candidate facts for joining against `pattern`: index-pruned ground
  // facts through the columnar batch probe, plus the non-ground facts
  // sharing the pattern's ground name, written into `*scratch` (a
  // per-join-depth buffer): a snapshot, safe under Derive() insertions.
  std::span<const TermId> CandidatesBatch(TermId pattern,
                                          std::vector<TermId>* scratch) const {
    TermId name = store_.PredName(pattern);
    if (!store_.IsGround(name)) {
      scratch->assign(base_.facts().begin(), base_.facts().end());
      scratch->insert(scratch->end(), ordered_.begin(), ordered_.end());
      return *scratch;
    }
    const FactBase& layer = Layer(name);
    const std::vector<TermId>& nonground = NonGroundWithName(name);
    const size_t baseline =
        layer.NameBucketSize(store_, pattern) + nonground.size();
    layer.CandidatesBatch(store_, pattern, scratch, /*frozen=*/false);
    scratch->insert(scratch->end(), nonground.begin(), nonground.end());
    if (baseline > scratch->size()) {
      obs::Count(obs::Counter::kUnificationsAvoided,
                 baseline - scratch->size());
    }
    return *scratch;
  }

  /// Non-ground facts sharing the pattern's ground name (the only facts a
  /// fully ground pattern can match besides itself and unnamed ones).
  const std::vector<TermId>& NonGroundWithName(TermId name) const {
    auto it = nonground_by_name_.find(name);
    return it == nonground_by_name_.end() ? kEmpty : it->second;
  }

  /// Non-ground facts whose predicate name is itself non-ground (e.g. a
  /// bare-variable head); these can subsume atoms of any name.
  const std::vector<TermId>& NonGroundUnnamed() const {
    auto it = nonground_by_name_.find(kNoTerm);
    return it == nonground_by_name_.end() ? kEmpty : it->second;
  }

  std::vector<TermId> WithName(TermId name) const {
    std::vector<TermId> out = Layer(name).WithName(name);
    const std::vector<TermId>& nonground = NonGroundWithName(name);
    out.insert(out.end(), nonground.begin(), nonground.end());
    return out;
  }

  size_t size() const { return base_.size() + ordered_.size(); }

  /// Relation-size estimate for the shared join planner: the pattern's
  /// name bucket (ground + non-ground + unnamed) or, for a variable
  /// predicate name, the whole store.
  size_t EstimateForPattern(TermId pattern) const {
    TermId name = store_.PredName(pattern);
    if (!store_.IsGround(name)) return size();
    return Layer(name).WithName(name).size() +
           NonGroundWithName(name).size() + NonGroundUnnamed().size();
  }

 private:
  const FactBase& Layer(TermId name) const {
    return base_.WithName(name).empty() ? ground_ : base_;
  }

  TermStore& store_;
  const FactBase& base_;
  FactBase ground_;
  std::vector<TermId> ordered_;
  std::unordered_map<TermId, std::vector<TermId>> nonground_by_name_;
  static const std::vector<TermId> kEmpty;
  static const FactBase kNoBase;
};

const std::vector<TermId> VariantFactStore::kEmpty;
const FactBase VariantFactStore::kNoBase;

class Evaluator {
 public:
  Evaluator(TermStore& store, const MagicProgram& magic,
            const MagicEvalOptions& options)
      : store_(store),
        magic_(magic),
        options_(options),
        facts_(store, magic.edb),
        kcache_(options.kernel_cache != nullptr ? options.kernel_cache
                                                : &local_kernel_cache_) {}

  MagicEvalResult Run() {
    // Index rule bodies: (rule, position) keyed by the literal's ground
    // predicate name; wildcard list for variable-named literals.
    for (size_t r = 0; r < magic_.rules.rules.size(); ++r) {
      const Rule& rule = magic_.rules.rules[r];
      for (const Literal& lit : rule.body) {
        if (!lit.positive()) {
          result_.error = "magic evaluator expects definite rewritten rules";
          return result_;
        }
      }
      if (rule.body.empty()) {
        Derive(rule.head);
        continue;
      }
      for (size_t i = 0; i < rule.body.size(); ++i) {
        TermId name = store_.PredName(rule.body[i].atom);
        if (store_.IsGround(name)) {
          by_name_[name].emplace_back(r, i);
        } else {
          wildcard_.emplace_back(r, i);
        }
      }
    }

    Propagate();
    while (!result_.truncated && FireEligibleBoxes() > 0) {
      Propagate();
    }

    if (result_.cancelled) {
      result_.error = CancelReasonMessage(
          CurrentCancelToken() != nullptr ? CurrentCancelToken()->reason()
                                          : CancelReason::kCancelled);
      return result_;
    }
    CollectAnswers();
    return result_;
  }

 private:
  void Derive(TermId fact) {
    if (result_.truncated) return;
    // Cooperative cancellation, polled per derivation attempt; setting
    // `truncated` too makes every existing unwind guard stop the join.
    if (CancelRequested()) {
      result_.cancelled = true;
      result_.truncated = true;
      return;
    }
    if (!facts_.Insert(fact)) return;
    ++result_.facts_derived;
    obs::Count(obs::Counter::kMagicFactsDerived);
    if (facts_.size() > options_.max_facts) {
      result_.truncated = true;
      return;
    }
    // Incremental indices for the box machinery.
    TermId name = store_.PredName(fact);
    if (name == magic_.magic_sym) {
      obs::Count(obs::Counter::kMagicFacts);
    }
    if (name == magic_.dn_sym && store_.arity(fact) == 2) {
      auto args = store_.apply_args(fact);
      dn_of_[args[0]].push_back(args[1]);
    } else if (name == magic_.magic_sym && store_.arity(fact) == 2) {
      auto args = store_.apply_args(fact);
      // A call already true never fires its box: the box loop skips EDB rows.
      if (args[1] == magic_.minus_sym && store_.IsGround(args[0]) &&
          !CurrentlyTrue(args[0])) {
        pending_minus_.push_back(args[0]);
      }
    }
    worklist_.push_back(fact);
  }

  // Joins the body positions `order[depth..]` of `rule` (order[0] is the
  // already-unified trigger position), extending `subst`; derives head
  // instances.
  void JoinFrom(const Rule& rule, const std::vector<size_t>& order,
                size_t depth, Substitution subst) {
    if (result_.truncated) return;
    if (depth == order.size()) {
      Derive(subst.Apply(store_, rule.head));
      return;
    }
    TermId pattern = subst.Apply(store_, rule.body[order[depth]].atom);
    if (store_.IsGround(pattern)) {
      // Fast path: a ground subgoal is satisfied by the identical fact or
      // by a non-ground fact subsuming it — no bucket scan.
      if (facts_.ContainsGround(pattern)) {
        JoinFrom(rule, order, depth + 1, subst);
        if (result_.truncated) return;
      }
      for (const std::vector<TermId>* bucket :
           {&facts_.NonGroundWithName(store_.PredName(pattern)),
            &facts_.NonGroundUnnamed()}) {
        for (TermId fact : *bucket) {
          Substitution extended = subst;
          TermId target = RenameApart(store_, fact, nullptr);
          if (UnifyInto(store_, target, pattern, &extended)) {
            JoinFrom(rule, order, depth + 1, std::move(extended));
            break;  // One subsumption witness suffices for a ground goal.
          }
          if (result_.truncated) return;
        }
      }
      return;
    }
    // Snapshot into this depth's scratch frame: new facts derived below
    // re-trigger via the worklist. Deeper recursion uses deeper frames,
    // so the span stays stable across the whole candidate walk.
    std::span<const TermId> candidates =
        facts_.CandidatesBatch(pattern, &frames_[depth]);
    for (TermId fact : candidates) {
      TermId target = fact;
      if (!store_.IsGround(fact)) {
        target = RenameApart(store_, fact, nullptr);
      }
      Substitution extended = subst;
      if (UnifyInto(store_, pattern, target, &extended)) {
        JoinFrom(rule, order, depth + 1, std::move(extended));
      }
      if (result_.truncated) return;
    }
  }

  void TriggerAt(size_t rule_index, size_t position, TermId fact) {
    const Rule& rule = magic_.rules.rules[rule_index];
    // Rename the rule apart so its variables cannot collide with the
    // fact's (facts derived from renamed rules already carry fresh vars).
    Rule renamed = RenameRuleApart(store_, rule);
    TermId target = fact;
    if (!store_.IsGround(fact)) target = RenameApart(store_, fact, nullptr);
    Substitution subst;
    if (!UnifyInto(store_, renamed.body[position].atom, target, &subst)) {
      return;
    }
    // Remaining positions joined in the compiled order of the *original*
    // rule, with the trigger position pinned first (its variables are
    // already bound) — renaming is a variable bijection, and the
    // estimator only reads (ground) predicate names, so the plan is the
    // renamed rule's while the cached analysis skips the per-trigger
    // variable traversals. The join itself keeps the unification
    // machinery: variant facts may be non-ground, which
    // MatchResolvedInto's ground-binding precondition rules out.
    std::shared_ptr<const KernelProgram> program = kcache_->Get(
        store_, rule,
        [&](TermId atom) { return facts_.EstimateForPattern(atom); },
        position);
    const std::vector<size_t>& order = program->order;
    // One scratch frame per join depth, sized up-front so JoinFrom never
    // reallocates the frame array mid-recursion.
    if (frames_.size() < order.size() + 1) frames_.resize(order.size() + 1);
    JoinFrom(renamed, order, 1, std::move(subst));
  }

  void Propagate() {
    while (!worklist_.empty() && !result_.truncated) {
      if (CancelRequested()) {
        result_.cancelled = true;
        result_.truncated = true;
        return;
      }
      TermId fact = worklist_.front();
      worklist_.pop_front();
      TermId name = store_.PredName(fact);
      auto it = by_name_.find(name);
      if (it != by_name_.end()) {
        for (const auto& [r, i] : it->second) TriggerAt(r, i, fact);
      }
      for (const auto& [r, i] : wildcard_) TriggerAt(r, i, fact);
    }
  }

  // True if some fact subsumes the ground atom (i.e. the atom is
  // "currently true"); `edb = false` skips the EDB rows.
  bool CurrentlyTrue(TermId ground_atom, bool edb = true) {
    if (edb ? facts_.ContainsGround(ground_atom)
            : facts_.ContainsDerived(ground_atom)) {
      return true;
    }
    for (const std::vector<TermId>* bucket :
         {&facts_.NonGroundWithName(store_.PredName(ground_atom)),
          &facts_.NonGroundUnnamed()}) {
      for (TermId fact : *bucket) {
        Substitution subst;
        if (MatchInto(store_, fact, ground_atom, &subst)) return true;
      }
    }
    return false;
  }

  // Fires box(P) for every currently eligible negatively-called P and
  // returns how many fired. Batch firing is sound: a candidate is
  // eligible only when all of its recorded (transitively complete)
  // negative dependencies are settled, so no other box in the same batch
  // can change its truth.
  size_t FireEligibleBoxes() {
    size_t fired = 0;
    size_t keep = 0;
    for (size_t i = 0; i < pending_minus_.size(); ++i) {
      TermId p = pending_minus_[i];
      TermId box_p = store_.MakeApply(magic_.box_sym, {p});
      if (facts_.ContainsDerived(box_p) || CurrentlyTrue(p, false)) {
        continue;  // Settled: drop from the pending list.
      }
      bool all_settled = true;
      auto it = dn_of_.find(p);
      if (it != dn_of_.end()) {
        for (TermId q : it->second) {
          TermId dns_q = store_.MakeApply(magic_.dns_sym, {q});
          if (!facts_.ContainsDerived(dns_q)) {
            all_settled = false;
            break;
          }
        }
      }
      if (!all_settled) {
        pending_minus_[keep++] = p;
        continue;
      }
      if (result_.box_firings >= options_.max_box_firings) {
        result_.truncated = true;
        break;
      }
      ++result_.box_firings;
      obs::Count(obs::Counter::kMagicBoxFirings);
      ++fired;
      Derive(box_p);
    }
    pending_minus_.resize(keep);
    return fired;
  }

  void CollectAnswers() {
    // Answers: ground facts that are instances of the query.
    std::vector<TermId> scratch;
    for (TermId fact : facts_.CandidatesBatch(magic_.query, &scratch)) {
      if (!store_.IsGround(fact)) continue;
      if (store_.PredName(fact) == magic_.magic_sym ||
          store_.PredName(fact) == magic_.box_sym) {
        continue;
      }
      Substitution subst;
      if (MatchInto(store_, magic_.query, fact, &subst)) {
        result_.answers.push_back(fact);
      }
    }
    // Settled-false query instances.
    for (TermId fact : facts_.WithName(magic_.box_sym)) {
      TermId inner = store_.apply_args(fact)[0];
      Substitution subst;
      if (MatchInto(store_, magic_.query, inner, &subst)) {
        result_.settled_false.push_back(inner);
      }
    }
    // Unsettled negative calls.
    for (TermId fact : facts_.WithName(magic_.magic_sym)) {
      auto args = store_.apply_args(fact);
      if (args.size() != 2 || args[1] != magic_.minus_sym) continue;
      TermId p = args[0];
      if (!store_.IsGround(p)) continue;
      TermId box_p = store_.MakeApply(magic_.box_sym, {p});
      if (!facts_.ContainsGround(box_p) && !CurrentlyTrue(p)) {
        result_.unsettled_negative_calls.push_back(p);
      }
    }
    if (store_.IsGround(magic_.query)) {
      if (CurrentlyTrue(magic_.query)) {
        result_.ground_status = QueryStatus::kTrue;
      } else if (facts_.ContainsGround(
                     store_.MakeApply(magic_.box_sym, {magic_.query}))) {
        result_.ground_status = QueryStatus::kSettledFalse;
      } else {
        result_.ground_status = QueryStatus::kUnsettled;
      }
    }
  }

  TermStore& store_;
  const MagicProgram& magic_;
  MagicEvalOptions options_;
  VariantFactStore facts_;
  // Compiled-rule cache for the join orders; the fallback is per-run, so
  // triggers still amortize within one evaluation. Declared before
  // kcache_, which may point at it.
  KernelCache local_kernel_cache_;
  KernelCache* kcache_;
  std::deque<TermId> worklist_;
  std::unordered_map<TermId, std::vector<std::pair<size_t, size_t>>> by_name_;
  std::vector<std::pair<size_t, size_t>> wildcard_;
  // Incremental indices for box firing: negative dependencies by caller,
  // and the ground negatively-called atoms not yet settled.
  std::unordered_map<TermId, std::vector<TermId>> dn_of_;
  std::vector<TermId> pending_minus_;
  // Per-join-depth candidate buffers reused across every trigger and
  // semi-naive propagation (see CandidatesBatch).
  std::vector<std::vector<TermId>> frames_;
  MagicEvalResult result_;
};

}  // namespace

MagicEvalResult EvaluateMagic(TermStore& store, const MagicProgram& magic,
                              const MagicEvalOptions& options) {
  obs::ScopedPhaseTimer timer(obs::Phase::kMagicEval);
  Evaluator evaluator(store, magic, options);
  return evaluator.Run();
}

}  // namespace hilog
