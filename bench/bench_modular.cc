// E17/E18: cost of the Figure 1 decision procedure (modular
// stratification for HiLog) as game size, game count, and component
// structure grow; plus the normal-program checker (Definition 6.4) for
// comparison. The BM_Figure1_* rows time the literal procedure; the
// AnalyzeThenSolve row times the engine's text-to-model sequence, where
// Analyze reads the verdict off its own well-founded solve.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "workloads.h"
#include "src/analysis/modular.h"
#include "src/core/engine.h"
#include "src/lang/parser.h"

namespace hilog {
namespace {

void BM_Figure1_GamePositions(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::HiLogGameProgram(1, n));
  for (auto _ : state) {
    ModularResult r = CheckModularHiLog(store, *parsed, ModularOptions());
    benchmark::DoNotOptimize(r.modularly_stratified);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Figure1_GamePositions)->Range(8, 512);

void BM_Figure1_GameCount(benchmark::State& state) {
  // Each extra game adds one component round-trip through reduction.
  const int games = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::HiLogGameProgram(games, 8));
  for (auto _ : state) {
    ModularResult r = CheckModularHiLog(store, *parsed, ModularOptions());
    benchmark::DoNotOptimize(r.rounds);
  }
  state.SetItemsProcessed(state.iterations() * games);
}
BENCHMARK(BM_Figure1_GameCount)->Range(2, 64);

void BM_Figure1_RejectsCyclic(benchmark::State& state) {
  // Rejection cost on a cyclic game (found at the local-stratification
  // check of the winning component).
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  std::string text =
      "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).\n"
      "game(mv).\n" +
      bench::CycleFacts("mv", n);
  auto parsed = ParseProgram(store, text);
  for (auto _ : state) {
    ModularResult r = CheckModularHiLog(store, *parsed, ModularOptions());
    benchmark::DoNotOptimize(r.modularly_stratified);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Figure1_RejectsCyclic)->Range(8, 512);

void BM_Figure1_SharedWinChains(benchmark::State& state) {
  // Every w rule's m literal is ground once m settles; the reduction
  // decides each with one lookup, so the cost is linear in the rules.
  const int chains = static_cast<int>(state.range(0));
  const int length = static_cast<int>(state.range(1));
  TermStore store;
  auto parsed = ParseProgram(store, bench::SharedWinChains(chains, length));
  for (auto _ : state) {
    ModularResult r = CheckModularHiLog(store, *parsed, ModularOptions());
    benchmark::DoNotOptimize(r.modularly_stratified);
  }
  state.SetItemsProcessed(state.iterations() * chains * length);
}
BENCHMARK(BM_Figure1_SharedWinChains)->Args({8, 16})->Args({64, 128});

void BM_AnalyzeThenSolve_Games(benchmark::State& state) {
  // Load -> Analyze -> SolveWellFounded on `games` Example 6.3 games of
  // 64 positions: Analyze solves once and the solve after it replays.
  const int games = static_cast<int>(state.range(0));
  const std::string text = bench::HiLogGameProgram(games, 64);
  for (auto _ : state) {
    auto engine = std::make_unique<Engine>();
    engine->Load(text);
    AnalysisReport report = engine->Analyze();
    Engine::WfsAnswer answer = engine->SolveWellFounded();
    benchmark::DoNotOptimize(report.modularly_stratified);
    benchmark::DoNotOptimize(answer.ground_rules);
    state.PauseTiming();
    engine.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * games);
}
BENCHMARK(BM_AnalyzeThenSolve_Games)
    ->Arg(8)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_NormalChecker_Layered(benchmark::State& state) {
  // Definition 6.4 on a wide stratified program: many singleton
  // components processed in topological order.
  const int width = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::LayeredProgram(width));
  for (auto _ : state) {
    ModularResult r = CheckModularNormal(store, *parsed, ModularOptions());
    benchmark::DoNotOptimize(r.rounds);
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_NormalChecker_Layered)->Range(4, 128);

void BM_HiLogChecker_Layered(benchmark::State& state) {
  // Figure 1 on the same layered program (Lemma 6.2 agreement, cost
  // side): Figure 1 settles whole sink *sets* per round, so it needs
  // fewer rounds than components.
  const int width = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::LayeredProgram(width));
  for (auto _ : state) {
    ModularResult r = CheckModularHiLog(store, *parsed, ModularOptions());
    benchmark::DoNotOptimize(r.rounds);
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_HiLogChecker_Layered)->Range(4, 128);

void BM_HiLogReduction(benchmark::State& state) {
  // The Definition 6.5 reduction in isolation: join a settled relation of
  // size n through the game rule.
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(
      store, "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).");
  SettledModel settled;
  TermId game = store.MakeSymbol("game");
  settled.SettleName(game);
  TermId mv = store.MakeSymbol("mv");
  settled.AddTrue(store, store.MakeApply(game, {mv}));
  settled.SettleName(mv);
  for (int i = 0; i < n; ++i) {
    settled.AddTrue(
        store, store.MakeApply(mv, {store.MakeSymbol("n" + std::to_string(i)),
                                    store.MakeSymbol(
                                        "n" + std::to_string(i + 1))}));
  }
  for (auto _ : state) {
    ReductionResult r = HiLogReduce(store, parsed->rules, settled, 1000000);
    benchmark::DoNotOptimize(r.rules.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HiLogReduction)->Range(8, 2048);

}  // namespace
}  // namespace hilog

HILOG_BENCH_MAIN("bench_modular")
