// Ablation: three ways to evaluate a stratified program — stratified
// (perfect-model) evaluation, the alternating-fixpoint WFS over a
// relevance grounding, and the weakly-perfect construction — plus the
// weakly-perfect construction's layer-at-a-time cost on deep ground
// programs. Stratified evaluation is the component scheduler's
// well-founded solve behind the Definition 6.1 checks (src/eval/
// stratified.h); every EvaluateStratified row is a cold, uncached solve,
// so it pays planning, grounding and the atom-SCC pass each iteration.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "workloads.h"
#include "src/analysis/weak_stratification.h"
#include "src/eval/stratified.h"
#include "src/ground/grounder.h"
#include "src/lang/parser.h"
#include "src/wfs/alternating.h"

namespace hilog {
namespace {

void BM_StratifiedEvaluator_Layered(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::LayeredProgram(width));
  for (auto _ : state) {
    StratifiedEvalResult r =
        EvaluateStratified(store, *parsed, BottomUpOptions());
    benchmark::DoNotOptimize(r.facts.size());
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_StratifiedEvaluator_Layered)->Range(8, 512);

void BM_StratifiedEvaluator_Tc(benchmark::State& state) {
  // Example 2.1's generic closure over an n-edge chain: one recursive
  // component with n(n+1)/2 closure atoms.
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::TcProgram(n));
  for (auto _ : state) {
    StratifiedEvalResult r =
        EvaluateStratified(store, *parsed, BottomUpOptions());
    benchmark::DoNotOptimize(r.facts.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StratifiedEvaluator_Tc)->Arg(64)->Arg(256);

void BM_WfsOnSameLayeredProgram(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::LayeredProgram(width));
  RelevanceGroundingResult ground =
      GroundWithRelevance(store, *parsed, BottomUpOptions());
  for (auto _ : state) {
    WfsResult r = ComputeWfsAlternating(ground.program);
    benchmark::DoNotOptimize(r.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_WfsOnSameLayeredProgram)->Range(8, 512);

void BM_WeaklyPerfect_Layered(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::LayeredProgram(width));
  RelevanceGroundingResult ground =
      GroundWithRelevance(store, *parsed, BottomUpOptions());
  for (auto _ : state) {
    WeakStratificationResult r = ComputeWeaklyPerfectModel(ground.program);
    benchmark::DoNotOptimize(r.weakly_stratified);
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_WeaklyPerfect_Layered)->Range(8, 256);

void BM_WeaklyPerfect_DeepChain(benchmark::State& state) {
  // The worst case for layer-at-a-time evaluation: a win/move chain where
  // each layer settles a single atom, forcing n rounds of SCC + reduce.
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::GroundWinChain(n));
  GroundProgram ground;
  ToGroundProgram(store, *parsed, &ground);
  for (auto _ : state) {
    WeakStratificationResult r = ComputeWeaklyPerfectModel(ground);
    benchmark::DoNotOptimize(r.weakly_stratified);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WeaklyPerfect_DeepChain)->Range(8, 256);

void BM_StratifiedWaves_Wide(benchmark::State& state) {
  // Stratified evaluation of a wide three-layer program: each of the
  // scheduler's waves is `width` independent components, solved as one
  // batch.
  const int width = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::LayeredProgram(width));
  for (auto _ : state) {
    StratifiedEvalResult r =
        EvaluateStratified(store, *parsed, BottomUpOptions());
    benchmark::DoNotOptimize(r.facts.size());
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_StratifiedWaves_Wide)->Arg(32)->Arg(128);

void BM_WfsOnDeepChainReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::GroundWinChain(n));
  GroundProgram ground;
  ToGroundProgram(store, *parsed, &ground);
  for (auto _ : state) {
    WfsResult r = ComputeWfsAlternating(ground);
    benchmark::DoNotOptimize(r.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WfsOnDeepChainReference)->Range(8, 256);

}  // namespace
}  // namespace hilog

HILOG_BENCH_MAIN("bench_strata")
