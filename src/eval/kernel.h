#ifndef HILOG_EVAL_KERNEL_H_
#define HILOG_EVAL_KERNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/eval/fact_base.h"
#include "src/eval/plan.h"
#include "src/lang/ast.h"
#include "src/term/subst.h"
#include "src/term/term_store.h"

namespace hilog {

/// Rule-to-kernel compilation (docs/performance.md, "Rule compilation &
/// kernel executor").
///
/// Each rule body with a non-ground positive literal is lowered once into
/// a KernelProgram: a flat array of register-based ops over the columnar
/// FactBase, where the "registers" are the variable bindings accumulated
/// by earlier join steps (the substitution's trail). One executor —
/// RunKernel — then serves every rule-body join: the semi-naive
/// bottom-up engine and the SCC scheduler's grounder; the magic evaluator
/// takes its join order from the compiled form. Only positive literals
/// compile; negative ones are left to the caller. Fully ground bodies
/// skip compilation and run through RunGroundBody, the same membership
/// probes without a program.
///
/// Probe fingerprints are computed straight from the registers (no
/// per-step interning of the substituted pattern), each candidate is
/// matched against the original atom (MatchResolvedInto), and the
/// per-round variable analysis is cached per rule in the KernelCache.

/// Kernel opcodes. kScanDelta/kScanRelation/kProbeColumn/kSelectEq are
/// the join-step shapes; kProject/kEmit form the program tail;
/// kBindArg is compile-time metadata (which variables the preceding step
/// binds), kept for --explain-plan and never executed.
enum class KernelOpCode : uint8_t {
  kScanDelta,     // Plain scan of the semi-naive delta's name bucket.
  kScanRelation,  // Bucket scan — or a whole-base scan when the predicate
                  // name cannot be resolved (HiLog variable-predicate
                  // semantics).
  kProbeColumn,   // Columnar probe with register-computed fingerprints.
  kSelectEq,      // Every variable already bound: one membership check.
  kBindArg,       // Metadata: variables newly bound by the previous step.
  kProject,       // Metadata: the head's variable set.
  kEmit,          // All steps matched: hand the bindings to the sink.
};

/// How an op (or probe key) obtains its runtime term from the registers.
enum class KernelSrc : uint8_t {
  kConst,  // Static: the term (and its fingerprint) precomputed.
  kVar,    // A single variable: one Lookup.
  kTerm,   // A compound with bound variables: Apply the sub-term.
};

/// One probe key of a kProbeColumn op: the argument path and how to
/// compute its runtime fingerprint. For kConst the fingerprint is
/// precomputed at compile time; for kVar/kTerm it is an
/// Exact/ShapeFingerprint of the register-resolved term — provably the
/// same value CandidatesBatch would compute from the substituted
/// pattern, since join bindings are ground fact sub-terms and terms are
/// hash-consed.
struct KernelKey {
  uint32_t path = 0;
  bool shape = false;
  KernelSrc src = KernelSrc::kConst;
  TermId term = kNoTerm;  // kVar: the variable; kTerm: the sub-term.
  uint64_t fp = 0;        // kConst: the precomputed fingerprint.
  uint32_t arity = 0;     // Shape keys: the argument's static arity.
};

struct KernelOp {
  KernelOpCode code = KernelOpCode::kEmit;
  TermId atom = kNoTerm;  // Scan/probe/select: the literal's atom.
  bool from_delta = false;  // Join steps: source is the semi-naive delta.
  KernelSrc name_src = KernelSrc::kConst;
  TermId name = kNoTerm;    // Predicate-name source (per name_src).
  bool name_ground = false;  // Name fully resolvable at probe time.
  uint32_t key_begin = 0;    // kProbeColumn: range into `keys`.
  uint32_t key_end = 0;
  std::vector<TermId> vars;  // kBindArg: newly bound; kProject: head vars.
};

/// A compiled rule body: flat ops in execution order (join steps each
/// followed by their kBindArg marker, then kProject, kEmit), immutable
/// once built and shared across threads by shared_ptr.
struct KernelProgram {
  std::vector<KernelOp> ops;
  std::vector<KernelKey> keys;
  std::vector<uint32_t> scan_ops;  // Indices of the join-step ops.
  std::vector<size_t> order;  // Planner order: order[i] = body position
                              // (among positive literals) of step i.
  size_t delta_pos = SIZE_MAX;  // Pinned delta position, if any.
  TermId head = kNoTerm;
};

/// Everything RunKernel needs besides the program: the fact sources and
/// the per-depth candidate scratch buffers (reused across rules and
/// rounds so steady-state probing is allocation-free).
struct KernelContext {
  const FactBase* facts = nullptr;
  const FactBase* delta = nullptr;  // Source of from_delta steps.
  bool facts_frozen = false;  // Sink provably never inserts into *facts.
  std::vector<std::vector<TermId>>* scratch = nullptr;
};

/// Runs a compiled program: enumerates every substitution that matches
/// all join steps (delta-restricted where compiled so), calling `sink`
/// per match. Returns false iff the sink ever returned false (early
/// exit). `subst` carries the bindings; callers pass it empty (the
/// compiler's boundness analysis assumes no variable is bound at entry).
bool RunKernel(TermStore& store, const KernelProgram& program,
               const KernelContext& ctx, Substitution* subst,
               const std::function<bool(const Substitution&)>& sink);

/// Compilation cache, one per Engine (shared by every evaluator the
/// engine runs, across queries and snapshot epochs). Keyed structurally
/// — a hash of the head term and the body's (kind, atom) pairs, with
/// exact verification — so rules keep their cache entries when a program
/// is rebuilt around them: the scheduler's per-component sub-programs,
/// incremental publishes that recompile only changed rules, and forks of
/// a published prototype, the next epoch's and every query worker's
/// (term ids below the fork point are preserved by TermStore::CopyFrom,
/// so entries remain valid in clones).
///
/// Per rule the cache holds the variable analysis (JoinAtomInfo per
/// positive atom) and the lowered program per (delta position, join
/// order) variant. The greedy order itself is recomputed per Get — it
/// follows live relation-size estimates, which fix the enumeration order
/// every evaluator's output order rides on — but from the cached
/// analysis, so replanning costs no term traversals.
///
/// Thread-safe: a mutex guards the tables; programs are immutable.
class KernelCache {
 private:
  struct RuleEntry;  // Defined below; named here for Handle.

 public:
  KernelCache() = default;
  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  /// Opaque per-rule ticket from Resolve(): holds the structural entry so
  /// fixpoint loops pay the rule hash and bucket scan once per rule, not
  /// once per (round, delta position). Invalidated by Clear() — hold one
  /// only for the duration of a single evaluation.
  class Handle {
   public:
    Handle() = default;

   private:
    friend class KernelCache;
    RuleEntry* entry_ = nullptr;
  };

  /// Returns the compiled program for `rule` with the delta literal at
  /// position `delta_pos` among the positive body literals (SIZE_MAX for
  /// no delta), planning the join order with `estimate` (same contract
  /// as PlanJoinOrder). Counts kernel.cache_hits on a variant hit and
  /// kernel.programs_compiled on a lowering.
  std::shared_ptr<const KernelProgram> Get(TermStore& store, const Rule& rule,
                                           const JoinSizeEstimator& estimate,
                                           size_t delta_pos);

  /// Structurally resolves `rule` once; the returned handle feeds the
  /// Get overload below, which skips the per-call hash + entry scan.
  Handle Resolve(TermStore& store, const Rule& rule);

  /// Get via a Resolve()d handle: identical results and counters to the
  /// rule overload minus the structural lookup.
  std::shared_ptr<const KernelProgram> Get(TermStore& store, Handle handle,
                                           const JoinSizeEstimator& estimate,
                                           size_t delta_pos);

  /// Runs the compile front-end (structural keying + variable analysis)
  /// for every rule, without lowering any variant: what Load/LoadMore/
  /// ApplyDelta pay up front so first-round Gets only lower ops.
  void Prewarm(TermStore& store, const Program& program);

  void Clear();

  /// Deep-copies `other`'s entries (programs are shared, they are
  /// immutable); used by Engine::Fork so a fork keeps the compiled rules
  /// of the engine it forked from.
  void CloneFrom(const KernelCache& other);

  /// Number of cached rules (not variants).
  size_t size() const;

 private:
  struct Variant {
    size_t delta_pos = SIZE_MAX;
    std::vector<size_t> order;
    std::shared_ptr<const KernelProgram> program;
  };
  struct RuleEntry {
    TermId head = kNoTerm;
    std::vector<std::pair<uint8_t, TermId>> body_sig;
    std::vector<TermId> pos_atoms;  // Positive body atoms, textual order.
    std::vector<JoinAtomInfo> info;  // Parallel to pos_atoms.
    std::vector<Variant> variants;
  };

  RuleEntry* FindOrCreate(TermStore& store, const Rule& rule);  // mu_ held.
  std::shared_ptr<const KernelProgram> GetLocked(
      TermStore& store, RuleEntry* entry, const JoinSizeEstimator& estimate,
      size_t delta_pos);  // mu_ held.
  std::shared_ptr<const KernelProgram> GetWithOrder(
      TermStore& store, RuleEntry* entry, std::vector<size_t> order,
      size_t delta_pos);  // mu_ held.

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::vector<std::unique_ptr<RuleEntry>>>
      rules_;
};

/// Whether a rule's body gives the compiler anything to compile: true
/// iff some positive literal is non-ground. A fully ground positive body
/// is a chain of membership probes — there is no join to plan, and
/// workloads made of one-shot ground rules (grounder residues, game
/// positions) would churn the cache with programs that never amortize —
/// so the evaluators run such rules through RunGroundBody instead.
/// Prewarm applies the same test, so only compilable rules get cache
/// entries.
bool WorthCompiling(const TermStore& store, const Rule& rule);

/// Runs a rule that WorthCompiling rejects (every positive body literal
/// ground, possibly none) without compiling or caching anything. Each
/// positive literal is one kSelectEq membership probe, taken in the
/// planner's order: the literal at `delta_pos` (among the positive
/// literals; SIZE_MAX for none) first and against ctx.delta, the rest
/// by arity (descending), then name-bucket size in ctx.facts
/// (ascending), then textual position. Negative literals are not checked.
/// If every probe hits, `sink` is called once with the empty substitution. Bumps the
/// probe and match counters a kSelectEq step bumps, but no kernel.*
/// counter. Returns false iff the sink returned false.
bool RunGroundBody(TermStore& store, const Rule& rule,
                   const KernelContext& ctx, size_t delta_pos,
                   const std::function<bool(const Substitution&)>& sink);

/// Human-readable dump of one compiled program (one op per line), and of
/// a whole program's rules compiled delta-free with uniform size
/// estimates (the CLI's --explain-plan).
std::string FormatKernelProgram(const TermStore& store,
                                const KernelProgram& program);
std::string ExplainKernelPrograms(TermStore& store, const Program& program);

}  // namespace hilog

#endif  // HILOG_EVAL_KERNEL_H_
