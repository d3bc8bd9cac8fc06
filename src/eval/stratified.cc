#include "src/eval/stratified.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>

#include "src/analysis/range_restriction.h"
#include "src/analysis/stratification.h"
#include "src/eval/cancel.h"
#include "src/eval/kernel.h"
#include "src/eval/scheduler.h"
#include "src/eval/worker_pool.h"
#include "src/lang/printer.h"
#include "src/obs/metrics.h"

namespace hilog {

namespace {

/// Iterates one component's rules to fixpoint against `facts` (lower
/// components complete; stratification guarantees no component-internal
/// negation). New facts are appended to `facts` and, when `derived` is
/// non-null, recorded there in derivation order — that list is what a
/// parallel worker publishes back. Returns false with `*error` set when
/// a budget trips; `*derivations` accumulates across calls (the global
/// fact budget).
bool RunComponentFixpoint(TermStore& store,
                          const std::vector<const Rule*>& rules,
                          const BottomUpOptions& options, FactBase* facts,
                          size_t* derivations, std::vector<TermId>* derived,
                          std::string* error) {
  KernelCache transient_cache;
  KernelCache* kcache = options.kernel_cache != nullptr
                            ? options.kernel_cache
                            : &transient_cache;
  std::vector<std::vector<TermId>> scratch;
  // Resolve each rule's structural cache entry once; rounds then pay
  // only the per-variant order check, not the rule hash and bucket scan.
  // Fact rules and fully ground bodies run uncompiled and get no entry.
  std::vector<KernelCache::Handle> handles(rules.size());
  std::vector<bool> use_kernel(rules.size(), false);
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    if (WorthCompiling(store, *rules[ri])) {
      use_kernel[ri] = true;
      handles[ri] = kcache->Resolve(store, *rules[ri]);
    }
  }
  bool changed = true;
  size_t rounds = 0;
  while (changed) {
    if (++rounds > options.max_rounds) {
      *error = "stratum iteration exceeded the round budget";
      return false;
    }
    changed = false;
    for (size_t ri = 0; ri < rules.size(); ++ri) {
      const Rule* rule = rules[ri];
      bool budget_hit = false;
      const auto derive = [&](const Substitution& theta) {
        TermId head = theta.Apply(store, rule->head);
        if (!store.IsGround(head)) return true;
        if (facts->Insert(store, head)) {
          changed = true;
          if (derived != nullptr) derived->push_back(head);
          if (++*derivations > options.max_facts) {
            budget_hit = true;
            return false;
          }
        }
        return true;
      };
      // Negative literals are kNegProbe checks against `facts`: lower
      // components are settled (stratification), so a hit is final. The
      // sink inserts derived heads straight back into *facts, so
      // candidate probes must snapshot (never frozen).
      KernelContext ctx;
      ctx.facts = facts;
      ctx.neg = facts;
      if (!use_kernel[ri]) {
        RunGroundBody(store, *rule, ctx, SIZE_MAX, derive);
      } else {
        // The positive joins replan per fixpoint round, following the
        // live bucket sizes.
        std::shared_ptr<const KernelProgram> program = kcache->Get(
            store, handles[ri],
            [&](TermId atom) {
              TermId name = store.PredName(atom);
              return store.IsGround(name) ? facts->WithName(name).size()
                                          : facts->size();
            },
            SIZE_MAX);
        if (scratch.size() < program->scan_ops.size()) {
          scratch.resize(program->scan_ops.size());
        }
        Substitution subst;
        ctx.scratch = &scratch;
        RunKernel(store, *program, ctx, &subst, derive);
      }
      if (budget_hit) {
        *error = "fact budget exhausted";
        return false;
      }
    }
  }
  return true;
}

}  // namespace

StratifiedEvalResult EvaluateStratified(TermStore& store,
                                        const Program& program,
                                        const BottomUpOptions& orig_options) {
  // One compilation cache for the whole evaluation when the caller
  // supplied none; group fixpoints would otherwise each re-lower their
  // rules in a private transient cache.
  KernelCache local_kernel_cache;
  BottomUpOptions options = orig_options;
  if (options.kernel_cache == nullptr) {
    options.kernel_cache = &local_kernel_cache;
  }
  StratifiedEvalResult result;

  std::unordered_map<TermId, int> levels;
  if (!IsStratified(store, program, &levels)) {
    result.error = "program is not stratified (Definition 6.1)";
    return result;
  }
  if (!IsStronglyRangeRestricted(store, program)) {
    result.error =
        "stratified evaluation requires a strongly range-restricted "
        "program (heads and negative literals bound by positive bodies)";
    return result;
  }
  bool has_negation = false;
  for (const Rule& rule : program.rules) {
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kAggregate ||
          lit.kind == Literal::Kind::kBuiltin) {
        result.error = "aggregates/builtins belong to the aggregate "
                       "evaluator, not stratified evaluation";
        return result;
      }
      if (!lit.negative()) continue;
      has_negation = true;
      if (!store.IsGround(store.PredName(lit.atom))) {
        result.error =
            "negative literal with a non-ground predicate name cannot be "
            "stratified syntactically: " +
            LiteralToString(store, lit);
        return result;
      }
    }
  }
  if (has_negation) {
    // A variable-named head could create facts for *any* predicate,
    // invalidating the syntactic level assignment under negation.
    for (const Rule& rule : program.rules) {
      std::vector<TermId> head_name_vars;
      CollectNameVariables(store, rule.head, &head_name_vars);
      if (!head_name_vars.empty()) {
        result.error =
            "variable in a head predicate name is incompatible with "
            "syntactic stratification (use the well-founded engine): " +
            RuleToString(store, rule);
        return result;
      }
    }
  }

  // `strata` keeps its historical meaning: the number of distinct head
  // levels in the Apt-Blair-Walker assignment.
  {
    std::map<int, size_t> level_counts;
    for (const Rule& rule : program.rules) {
      ++level_counts[levels[store.PredName(rule.head)]];
    }
    result.strata = level_counts.size();
  }

  // Evaluation groups: one per predicate-SCC component, in the
  // scheduler's dependency order — finer than strata (a stratum can hold
  // many mutually independent components), and exactly the grouping the
  // well-founded scheduler uses. When the condensation is not exact
  // (non-ground positive body names), fall back to level grouping, whose
  // blindness matches the syntactic level assignment already checked;
  // levels are totally ordered, so each level is its own wave.
  std::vector<std::vector<const Rule*>> groups;
  std::vector<uint32_t> group_depth;
  ProgramCondensation cond = CondenseProgram(store, program);
  if (cond.exact) {
    std::vector<uint32_t> depth = CondensationDepths(cond);
    groups.reserve(cond.num_components);
    for (uint32_t c = 0; c < cond.num_components; ++c) {
      if (cond.rules_of[c].empty()) continue;
      groups.emplace_back();
      for (size_t r : cond.rules_of[c]) {
        groups.back().push_back(&program.rules[r]);
      }
      group_depth.push_back(depth[c]);
    }
  } else {
    std::map<int, std::vector<const Rule*>> by_level;
    for (const Rule& rule : program.rules) {
      by_level[levels[store.PredName(rule.head)]].push_back(&rule);
    }
    for (auto& [level, rules] : by_level) {
      groups.push_back(std::move(rules));
      group_depth.push_back(static_cast<uint32_t>(group_depth.size()));
    }
  }

  // Waves of same-depth groups. Groups at one depth share no dependency
  // edges (an edge forces the dependent strictly deeper), so a wave's
  // groups neither feed nor block each other — each one's fixpoint over
  // the settled lower facts is exactly its sequential fixpoint, which is
  // what lets waves fan out across the worker pool while the merged fact
  // order (group order within the wave, derivation order within a group)
  // stays byte-identical to the sequential evaluation.
  uint32_t num_waves = 0;
  for (uint32_t d : group_depth) num_waves = std::max(num_waves, d + 1);
  std::vector<std::vector<size_t>> waves(num_waves);
  for (size_t g = 0; g < groups.size(); ++g) {
    waves[group_depth[g]].push_back(g);
  }

  const size_t threads = std::max<size_t>(options.eval_threads, 1);
  size_t derivations = 0;
  size_t max_wave_width = 0;
  for (const std::vector<size_t>& wave : waves) {
    if (wave.empty()) continue;
    obs::Count(obs::Counter::kSchedParallelWaves);
    max_wave_width = std::max(max_wave_width, wave.size());

    if (threads <= 1 || wave.size() <= 1) {
      for (size_t g : wave) {
        if (!RunComponentFixpoint(store, groups[g], options, &result.facts,
                                  &derivations, /*derived=*/nullptr,
                                  &result.error)) {
          return result;
        }
      }
      continue;
    }

    // Contiguous batches in group order; each batch runs its groups
    // sequentially on a private store + fact-base copy. The batch's new
    // facts are recorded per group and re-interned into `store` in group
    // order afterwards, so every thread count publishes identically.
    const size_t nbatches = std::min(wave.size(), threads);
    struct Batch {
      std::vector<size_t> group_ids;
      std::unique_ptr<TermStore> clone;
      size_t base_size = 0;
      FactBase facts;
      std::vector<std::vector<TermId>> derived;  // Parallel to group_ids.
      size_t derivations = 0;
      std::string error;
      bool ok = true;
      obs::MetricsRegistry metrics;
    };
    std::vector<Batch> batches(nbatches);
    for (size_t k = 0; k < wave.size(); ++k) {
      batches[k * nbatches / wave.size()].group_ids.push_back(wave[k]);
    }
    // The budget a worker can see locally: what is left of the global
    // fact budget at wave start. A worker that exceeds it alone would
    // exceed it sequentially too; the merge below re-checks the true
    // cumulative count in group order.
    BottomUpOptions batch_options = options;
    batch_options.max_facts =
        options.max_facts > derivations ? options.max_facts - derivations : 0;
    for (Batch& batch : batches) {
      batch.clone = std::make_unique<TermStore>();
      batch.clone->CopyFrom(store);
      batch.base_size = store.size();
      batch.facts = result.facts;
      batch.derived.resize(batch.group_ids.size());
      if (batch.group_ids.size() > 1) {
        obs::Count(obs::Counter::kSchedParallelBatchedComponents,
                   batch.group_ids.size());
      }
    }
    CancelToken* token = CurrentCancelToken();
    WorkerPool::Shared(threads).ParallelFor(nbatches, [&](size_t b) {
      Batch& batch = batches[b];
      obs::ScopedObsContext obs_ctx(&batch.metrics);
      ScopedCancelToken cancel_ctx(token);
      for (size_t i = 0; i < batch.group_ids.size(); ++i) {
        if (!RunComponentFixpoint(*batch.clone, groups[batch.group_ids[i]],
                                  batch_options, &batch.facts,
                                  &batch.derivations, &batch.derived[i],
                                  &batch.error)) {
          batch.ok = false;
          return;
        }
      }
    });

    for (Batch& batch : batches) {
      if (obs::MetricsRegistry* metrics = obs::CurrentMetrics()) {
        batch.metrics.MergeInto(metrics);
      }
      obs::Count(obs::Counter::kSchedParallelWorkerMerges);
      std::vector<TermId> remap =
          ReinternSuffix(store, *batch.clone, batch.base_size);
      for (const std::vector<TermId>& derived : batch.derived) {
        for (TermId fact : derived) {
          result.facts.Insert(store, remap[fact]);
          if (++derivations > options.max_facts) {
            result.error = "fact budget exhausted";
            return result;
          }
        }
      }
      if (!batch.ok) {
        result.error = batch.error;
        return result;
      }
    }
  }
  obs::SetGauge(obs::Gauge::kSchedParallelMaxWaveWidth, max_wave_width);
  result.ok = true;
  return result;
}

}  // namespace hilog
