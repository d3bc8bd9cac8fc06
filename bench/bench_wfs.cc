// E4/E14 + DESIGN.md section 4.2 ablation: the two well-founded-model
// engines — the literal W_P operator of Definitions 3.3-3.5 versus the
// alternating fixpoint — on win/move chains (worst-case alternation
// depth), cycles (maximal undefinedness), and trees.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "workloads.h"
#include "src/eval/scheduler.h"
#include "src/ground/grounder.h"
#include "src/lang/parser.h"
#include "src/wfs/alternating.h"
#include "src/wfs/wfs.h"

namespace hilog {
namespace {

GroundProgram MakeGround(TermStore& store, const std::string& text) {
  auto parsed = ParseProgram(store, text);
  GroundProgram ground;
  ToGroundProgram(store, *parsed, &ground);
  return ground;
}

void BM_WfsOperator_Chain(benchmark::State& state) {
  TermStore store;
  GroundProgram ground =
      MakeGround(store, bench::GroundWinChain(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    WfsResult r = ComputeWfsViaOperator(ground);
    benchmark::DoNotOptimize(r.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WfsOperator_Chain)->Range(8, 256);

void BM_WfsAlternating_Chain(benchmark::State& state) {
  TermStore store;
  GroundProgram ground =
      MakeGround(store, bench::GroundWinChain(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    WfsResult r = ComputeWfsAlternating(ground);
    benchmark::DoNotOptimize(r.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WfsAlternating_Chain)->Range(8, 4096);

void BM_WfsAlternating_Cycle(benchmark::State& state) {
  // A win/move cycle: every w atom is undefined — the all-undefined
  // stress case.
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  std::string text = "w(X) :- m(X,Y), ~w(Y).\n" + bench::CycleFacts("m", n);
  auto parsed = ParseProgram(store, text);
  // Ground via relevance (the program is strongly range restricted).
  GroundProgram ground;
  {
    auto envelope = LeastModelOfPositiveProjection(store, *parsed,
                                                   BottomUpOptions());
    benchmark::DoNotOptimize(envelope.facts.size());
  }
  RelevanceGroundingResult g =
      GroundWithRelevance(store, *parsed, BottomUpOptions());
  for (auto _ : state) {
    WfsResult r = ComputeWfsAlternating(g.program);
    benchmark::DoNotOptimize(r.model.CountUndefined());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WfsAlternating_Cycle)->Range(8, 1024);

void BM_WfsOperator_Cycle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  std::string text = "w(X) :- m(X,Y), ~w(Y).\n" + bench::CycleFacts("m", n);
  auto parsed = ParseProgram(store, text);
  RelevanceGroundingResult g =
      GroundWithRelevance(store, *parsed, BottomUpOptions());
  for (auto _ : state) {
    WfsResult r = ComputeWfsViaOperator(g.program);
    benchmark::DoNotOptimize(r.model.CountUndefined());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WfsOperator_Cycle)->Range(8, 256);

void BM_WfsScheduled_Chain(benchmark::State& state) {
  // The SCC scheduler on the same chain: every atom SCC is a trivial
  // singleton, settled by rule inspection — O(n) where the alternating
  // fixpoint pays O(n) rounds over n atoms.
  TermStore store;
  GroundProgram ground =
      MakeGround(store, bench::GroundWinChain(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    WfsResult r = ComputeWfsScc(ground);
    benchmark::DoNotOptimize(r.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WfsScheduled_Chain)->Range(8, 4096);

void BM_WfsAlternating_MultiChains(benchmark::State& state) {
  // 8 independent chains of the given length, whole-program alternating
  // fixpoint: the round count tracks the longest chain, and every round
  // re-sweeps all chains — quadratic in the chain length.
  const int length = static_cast<int>(state.range(0));
  TermStore store;
  GroundProgram ground =
      MakeGround(store, bench::MultiWinChains(/*chains=*/8, length));
  for (auto _ : state) {
    WfsResult r = ComputeWfsAlternating(ground);
    benchmark::DoNotOptimize(r.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * 8 * length);
}
BENCHMARK(BM_WfsAlternating_MultiChains)->Range(8, 512);

void BM_WfsScheduled_MultiChains(benchmark::State& state) {
  // Same program through the scheduler: each chain settles independently
  // and each atom exactly once — linear in the total program size.
  const int length = static_cast<int>(state.range(0));
  TermStore store;
  GroundProgram ground =
      MakeGround(store, bench::MultiWinChains(/*chains=*/8, length));
  for (auto _ : state) {
    WfsResult r = ComputeWfsScc(ground);
    benchmark::DoNotOptimize(r.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * 8 * length);
}
BENCHMARK(BM_WfsScheduled_MultiChains)->Range(8, 512);

void BM_WfsComponentPipeline_MultiChains(benchmark::State& state) {
  // End-to-end component-at-a-time evaluation from the non-ground
  // program: condensation, restricted per-component grounding, and
  // per-SCC settling (a cold scheduler cache every iteration).
  const int chains = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::MultiWinChains(chains, 16));
  for (auto _ : state) {
    ComponentWfsResult r =
        SolveWfsByComponents(store, *parsed, BottomUpOptions());
    benchmark::DoNotOptimize(r.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * chains * 16);
}
BENCHMARK(BM_WfsComponentPipeline_MultiChains)->Range(4, 64);

void BM_WfsComponentCacheReuse_MultiChains(benchmark::State& state) {
  // The service's steady state: every component is unchanged since the
  // last solve, so each iteration replays settled components from the
  // cache without grounding or fixpoints.
  const int chains = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::MultiWinChains(chains, 16));
  SchedulerCache cache;
  {
    ComponentWfsResult warm =
        SolveWfsByComponents(store, *parsed, BottomUpOptions(), &cache);
    benchmark::DoNotOptimize(warm.model.CountTrue());
  }
  for (auto _ : state) {
    ComponentWfsResult r =
        SolveWfsByComponents(store, *parsed, BottomUpOptions(), &cache);
    benchmark::DoNotOptimize(r.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * chains * 16);
}
BENCHMARK(BM_WfsComponentCacheReuse_MultiChains)->Range(4, 64);

void BM_WfsScheduled_Layered(benchmark::State& state) {
  // A deep stratified negation stack: one scheduler component per layer
  // predicate, no cyclic SCCs anywhere.
  const int layers = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed =
      ParseProgram(store, bench::LayeredNegationProgram(layers, /*width=*/8));
  for (auto _ : state) {
    ComponentWfsResult r =
        SolveWfsByComponents(store, *parsed, BottomUpOptions());
    benchmark::DoNotOptimize(r.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * layers * 8);
}
BENCHMARK(BM_WfsScheduled_Layered)->Range(2, 32);

void BM_WfsWaves_WideLayered(benchmark::State& state) {
  // Wide waves: every layer of the stack is `width` independent
  // components deep-1 apart, so each wave solves `width` components as
  // one batch.
  const int width = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed =
      ParseProgram(store, bench::LayeredNegationProgram(/*layers=*/4, width));
  for (auto _ : state) {
    ComponentWfsResult r =
        SolveWfsByComponents(store, *parsed, BottomUpOptions());
    benchmark::DoNotOptimize(r.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * 4 * width);
}
BENCHMARK(BM_WfsWaves_WideLayered)->Arg(8)->Arg(32);

void BM_WfsWaves_DeepLayered(benchmark::State& state) {
  // Deep waves: many narrow waves in sequence, so the per-wave cost
  // cannot amortize.
  const int layers = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed =
      ParseProgram(store, bench::LayeredNegationProgram(layers, /*width=*/4));
  for (auto _ : state) {
    ComponentWfsResult r =
        SolveWfsByComponents(store, *parsed, BottomUpOptions());
    benchmark::DoNotOptimize(r.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * layers * 4);
}
BENCHMARK(BM_WfsWaves_DeepLayered)->Arg(16);

void BM_WfsWaves_MultiChains(benchmark::State& state) {
  // One wave of `chains` heavyweight win/move components, each with a
  // full alternating-depth settle.
  const int chains = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::MultiWinChains(chains, /*length=*/32));
  for (auto _ : state) {
    ComponentWfsResult r =
        SolveWfsByComponents(store, *parsed, BottomUpOptions());
    benchmark::DoNotOptimize(r.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * chains * 32);
}
BENCHMARK(BM_WfsWaves_MultiChains)->Arg(8)->Arg(32);

void BM_GammaOperator(benchmark::State& state) {
  // One Gamma (GL-reduct least model) application: the inner loop of
  // both the alternating fixpoint and stable-model checking.
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  GroundProgram ground = MakeGround(store, bench::GroundWinChain(n));
  PreparedGround prepared(ground);
  std::vector<char> empty(prepared.num_atoms(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prepared.GammaOperator(empty));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GammaOperator)->Range(64, 16384);

}  // namespace
}  // namespace hilog

HILOG_BENCH_MAIN("bench_wfs")
