#include "src/eval/bottomup.h"

#include <algorithm>
#include <unordered_set>

#include "src/eval/cancel.h"
#include "src/eval/kernel.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace hilog {
namespace {

// Per-join-depth reusable candidate buffers for the kernel's probes: one
// scratch vector per body position, hoisted across rules and semi-naive
// rounds so steady-state probing is allocation-free.
using JoinScratch = std::vector<std::vector<TermId>>;

size_t CountPositive(const Rule& rule) {
  size_t n = 0;
  for (const Literal& lit : rule.body) n += lit.positive();
  return n;
}

// Relation-size estimate by FactBase name bucket, the join planner's
// input.
JoinSizeEstimator BucketEstimator(const TermStore& store,
                                  const FactBase& facts) {
  return [&store, &facts](TermId atom) {
    TermId name = store.PredName(atom);
    return store.IsGround(name) ? facts.WithName(name).size() : facts.size();
  };
}

void EnsureScratch(JoinScratch* scratch, size_t depths) {
  if (scratch->size() < depths) scratch->resize(depths);
}

}  // namespace

bool ForEachPositiveMatch(TermStore& store, const Rule& rule,
                          const FactBase& facts,
                          const std::function<bool(const Substitution&)>& fn,
                          bool frozen_facts, KernelCache* kernel_cache) {
  KernelContext ctx;
  ctx.facts = &facts;
  // Fact rules and fully ground bodies (fact-heavy programs call here
  // once per fact during grounding) run uncompiled.
  if (!WorthCompiling(store, rule)) {
    return RunGroundBody(store, rule, ctx, SIZE_MAX, fn);
  }
  KernelCache transient;
  KernelCache* cache = kernel_cache != nullptr ? kernel_cache : &transient;
  std::shared_ptr<const KernelProgram> program =
      cache->Get(store, rule, BucketEstimator(store, facts), SIZE_MAX);
  JoinScratch scratch;
  EnsureScratch(&scratch, program->scan_ops.size());
  Substitution subst;
  ctx.facts_frozen = frozen_facts;
  ctx.scratch = &scratch;
  return RunKernel(store, *program, ctx, &subst, fn);
}

BottomUpResult LeastModelOfPositiveProjection(TermStore& store,
                                              const Program& program,
                                              const BottomUpOptions& options) {
  return LeastModelOfPositiveProjectionSeeded(store, program, options, {});
}

BottomUpResult LeastModelOfPositiveProjectionSeeded(
    TermStore& store, const Program& program, const BottomUpOptions& options,
    const std::vector<TermId>& seed_facts) {
  BottomUpResult result;
  std::unordered_set<size_t> unsafe;

  // Round 0: seeds plus facts (rules with no positive body literals). The
  // delta is itself a FactBase so the semi-naive delta position probes by
  // argument, exactly like the accumulated facts.
  FactBase delta;
  for (TermId seed : seed_facts) {
    if (result.facts.Insert(store, seed)) delta.Insert(store, seed);
  }
  std::vector<size_t> positives(program.rules.size());
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    positives[r] = CountPositive(rule);
    if (positives[r] != 0) continue;
    if (!store.IsGround(rule.head)) {
      unsafe.insert(r);
      continue;
    }
    if (result.facts.Insert(store, rule.head)) {
      obs::Count(obs::Counter::kBottomUpFacts);
      delta.Insert(store, rule.head);
    }
  }

  // The next-round delta and the join scratch buffers live outside the
  // round loop: Clear() keeps hash-map buckets and vector capacity, so
  // steady-state rounds reallocate neither.
  FactBase next_delta;
  JoinScratch scratch;
  KernelCache transient_cache;
  KernelCache* kcache = options.kernel_cache != nullptr
                            ? options.kernel_cache
                            : &transient_cache;
  const JoinSizeEstimator estimate = BucketEstimator(store, result.facts);
  // Resolve each rule's structural cache entry once; rounds then pay only
  // the per-variant order check, not the rule hash and bucket scan. Rules
  // not worth compiling (fully ground bodies) run uncompiled.
  std::vector<KernelCache::Handle> handles(program.rules.size());
  std::vector<bool> use_kernel(program.rules.size(), false);
  for (size_t r = 0; r < program.rules.size(); ++r) {
    if (WorthCompiling(store, program.rules[r])) {
      use_kernel[r] = true;
      handles[r] = kcache->Resolve(store, program.rules[r]);
    }
  }
  while (!delta.empty()) {
    ++result.rounds;
    obs::Count(obs::Counter::kBottomUpRounds);
    obs::TraceInstant("bottomup.round", delta.size());
    if (result.rounds > options.max_rounds) {
      result.truncated = true;
      break;
    }
    if (CancelRequested()) {
      result.cancelled = true;
      result.truncated = true;
      break;
    }
    bool budget_hit = false;
    for (size_t r = 0; r < program.rules.size() && !budget_hit; ++r) {
      const Rule& rule = program.rules[r];
      for (size_t dpos = 0; dpos < positives[r] && !budget_hit; ++dpos) {
        const auto derive = [&](const Substitution& theta) {
          if (CancelRequested()) {
            result.cancelled = true;
            budget_hit = true;
            return false;
          }
          TermId head = theta.Apply(store, rule.head);
          if (!store.IsGround(head)) {
            unsafe.insert(r);
            return true;
          }
          if (result.facts.Insert(store, head)) {
            obs::Count(obs::Counter::kBottomUpFacts);
            next_delta.Insert(store, head);
            if (result.facts.size() >= options.max_facts) {
              budget_hit = true;
              return false;
            }
          }
          return true;
        };
        KernelContext ctx;
        ctx.facts = &result.facts;
        ctx.delta = &delta;
        if (!use_kernel[r]) {
          RunGroundBody(store, rule, ctx, dpos, derive);
          continue;
        }
        // Cached analysis + a replan per round (orders follow the live
        // bucket sizes); the lowered ops hit the variant cache from the
        // second round of the fixpoint on.
        std::shared_ptr<const KernelProgram> program =
            kcache->Get(store, handles[r], estimate, dpos);
        EnsureScratch(&scratch, program->scan_ops.size());
        ctx.scratch = &scratch;
        Substitution subst;
        RunKernel(store, *program, ctx, &subst, derive);
      }
    }
    if (budget_hit) {
      result.truncated = true;
      break;
    }
    // Swap instead of move: the emptied old delta becomes next round's
    // next_delta, reusing its cleared hash maps and buckets.
    std::swap(delta, next_delta);
    next_delta.Clear();
  }

  result.unsafe_rules.assign(unsafe.begin(), unsafe.end());
  std::sort(result.unsafe_rules.begin(), result.unsafe_rules.end());
  return result;
}

}  // namespace hilog
