// Incremental maintenance vs full recompute (src/maint): each benchmark
// runs one delta cycle per iteration, with Arg(0) paying a cold
// load-and-solve of the whole program and Arg(1) maintaining a warm
// engine through Engine::ApplyDelta — the DRed pass re-solves only the
// components the delta reaches and replays the rest from the
// settled-component cache. The acceptance bar for this subsystem is
// SmallDelta: maintenance at least 5x faster than recompute against the
// 100k-fact base.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "src/core/engine.h"
#include "workloads.h"

namespace hilog {
namespace {

// `relations` chain relations of `edges` facts each, plus one projection
// rule per relation: 2*relations predicate components, so a delta into
// one relation dirties exactly two of them.
std::string ShardedBase(int relations, int edges) {
  std::string text;
  for (int r = 0; r < relations; ++r) {
    std::string e = "e" + std::to_string(r);
    text += "s" + std::to_string(r) + "(X) :- " + e + "(X,Y).\n";
    text += bench::ChainFacts(e, edges);
  }
  return text;
}

// One toggled fact: even iterations retract it, odd ones re-add it, so
// the maintained engine's program size stays constant across the run.
void RunDeltaCycles(benchmark::State& state, const std::string& base,
                    const std::string& add, const std::string& retract) {
  const bool maintain = state.range(0) == 1;
  Engine warm;
  if (maintain) {
    if (!warm.Load(base).empty()) {
      state.SkipWithError("load failed");
      return;
    }
    benchmark::DoNotOptimize(warm.SolveWellFounded().ok);
  }
  bool removed = false;
  size_t true_atoms = 0;
  for (auto _ : state) {
    const std::string& add_now = removed ? add : "";
    const std::string& retract_now = removed ? "" : retract;
    if (maintain) {
      if (!warm.ApplyDelta(add_now, retract_now, nullptr).empty()) {
        state.SkipWithError("delta failed");
        return;
      }
      true_atoms = warm.SolveWellFounded().model.TrueAtoms().size();
    } else {
      state.PauseTiming();
      // Compose the equivalent from-scratch source off the clock: the
      // recompute arm measures load + solve, not string editing.
      std::string text = base;
      size_t at = text.find(retract + "\n");
      if (!removed && at != std::string::npos) {
        text.erase(at, retract.size() + 1);
      }
      state.ResumeTiming();
      Engine cold;
      if (!cold.Load(text).empty()) {
        state.SkipWithError("load failed");
        return;
      }
      true_atoms = cold.SolveWellFounded().model.TrueAtoms().size();
    }
    benchmark::DoNotOptimize(true_atoms);
    removed = !removed;
  }
  state.SetItemsProcessed(state.iterations());
}

// Acceptance workload: a one-fact delta against a 100k-fact base split
// into 100 relations. Maintenance touches 2 of 200 components.
void BM_Incremental_SmallDelta(benchmark::State& state) {
  static const std::string* base = new std::string(ShardedBase(100, 1000));
  RunDeltaCycles(state, *base, "e0(n0,n1).", "e0(n0,n1).");
}
BENCHMARK(BM_Incremental_SmallDelta)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Retraction-heavy delta: a 100-fact batch leaves and re-enters one
// relation of a 20k-fact base each cycle — the EraseBatch + column
// invalidation path under load.
void BM_Incremental_RetractHeavy(benchmark::State& state) {
  static const std::string* base = new std::string(ShardedBase(20, 1000));
  static const std::string* batch = [] {
    std::string* text = new std::string();
    for (int i = 0; i < 100; ++i) {
      *text += "e7(n" + std::to_string(i) + ",n" + std::to_string(i + 1) +
               ").\n";
    }
    return text;
  }();
  const bool maintain = state.range(0) == 1;
  Engine warm;
  if (maintain) {
    if (!warm.Load(*base).empty()) {
      state.SkipWithError("load failed");
      return;
    }
    benchmark::DoNotOptimize(warm.SolveWellFounded().ok);
  }
  bool removed = false;
  for (auto _ : state) {
    if (maintain) {
      if (!warm.ApplyDelta(removed ? *batch : "", removed ? "" : *batch,
                           nullptr)
               .empty()) {
        state.SkipWithError("delta failed");
        return;
      }
      benchmark::DoNotOptimize(
          warm.SolveWellFounded().model.TrueAtoms().size());
    } else {
      Engine cold;
      if (!cold.Load(*base).empty()) {
        state.SkipWithError("load failed");
        return;
      }
      if (!removed) {
        if (!cold.Retract(*batch).empty()) {
          state.SkipWithError("retract failed");
          return;
        }
      }
      benchmark::DoNotOptimize(
          cold.SolveWellFounded().model.TrueAtoms().size());
    }
    removed = !removed;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Incremental_RetractHeavy)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Recursive maintenance: eight independent transitive closures; the
// delta toggles one edge of the first chain, so maintenance re-solves
// one reach component (plus its edge relation) and replays the other
// fourteen.
void BM_Incremental_ReachMaintain(benchmark::State& state) {
  static const std::string* base = [] {
    std::string* text = new std::string();
    for (int r = 0; r < 8; ++r) {
      std::string e = "e" + std::to_string(r);
      std::string reach = "reach" + std::to_string(r);
      *text += reach + "(X,Y) :- " + e + "(X,Y).\n";
      *text += reach + "(X,Z) :- " + reach + "(X,Y), " + e + "(Y,Z).\n";
      *text += bench::ChainFacts(e, 128);
    }
    return text;
  }();
  RunDeltaCycles(state, *base, "e0(n127,n128).", "e0(n127,n128).");
}
BENCHMARK(BM_Incremental_ReachMaintain)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The publish shape: Example 6.3's game at 256 games x 64 positions with
// one move fact toggled per cycle. A move relation is fact-only and named
// first by its game's instance rule, so the maintained arm patches the
// scheduler plan instead of re-planning the 16k-rule program, and
// re-solves 2 of 513 components.
void BM_Incremental_GameMove(benchmark::State& state) {
  static const std::string* base =
      new std::string(bench::HiLogGameProgram(256, 64));
  RunDeltaCycles(state, *base, "mv7(n3,n4).", "mv7(n3,n4).");
}
BENCHMARK(BM_Incremental_GameMove)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hilog

HILOG_BENCH_MAIN("bench_incremental")
