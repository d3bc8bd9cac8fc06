// E24/E25/E26: the paper's central performance claim (Sections 1, 6.1) —
// the magic-sets method "allows the efficient evaluation of queries over
// a large class of HiLog programs". We compare query-directed magic
// evaluation against computing the full well-founded model, on game
// programs where the query touches only a suffix of the move graph.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "workloads.h"
#include "src/core/engine.h"

namespace hilog {
namespace {

// Full WFS of the whole program, the baseline a query would use without
// magic sets. *Replay*: one engine is reused, so after the first iteration
// this times a replay of the settled components, not a solve.
void BM_FullWfs_GameChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Engine engine;
  engine.Load(bench::WinMoveProgram(n));
  for (auto _ : state) {
    Engine::WfsAnswer answer = engine.SolveWellFounded();
    benchmark::DoNotOptimize(answer.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FullWfs_GameChain)->Range(16, 4096);

// The *cold* baseline: Load plus a well-founded solve in a fresh engine
// every iteration.
void BM_ColdWfs_GameChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::string text = bench::WinMoveProgram(n);
  for (auto _ : state) {
    Engine engine;
    engine.Load(text);
    Engine::WfsAnswer answer = engine.SolveWellFounded();
    benchmark::DoNotOptimize(answer.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ColdWfs_GameChain)->Range(16, 4096);

// Magic query near the *end* of the chain: only O(1) of the graph is
// relevant — query-directed evaluation should be ~flat in n.
void BM_MagicQuery_GameChainTail(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::string query = "w(n" + std::to_string(n - 2) + ")";
  Engine engine;
  engine.Load(bench::WinMoveProgram(n));
  for (auto _ : state) {
    Engine::QueryAnswer answer = engine.Query(query);
    benchmark::DoNotOptimize(answer.facts_derived);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MagicQuery_GameChainTail)->Range(16, 4096);

// Magic query at the head of the chain: everything is relevant; magic
// pays its bookkeeping overhead (the honest worst case).
void BM_MagicQuery_GameChainHead(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Engine engine;
  engine.Load(bench::WinMoveProgram(n));
  for (auto _ : state) {
    Engine::QueryAnswer answer = engine.Query("w(n0)");
    benchmark::DoNotOptimize(answer.facts_derived);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MagicQuery_GameChainHead)->Range(16, 512);

// HiLog flavor: many games loaded, query about one — magic must not
// explore the others.
void BM_MagicQuery_OneOfManyGames(benchmark::State& state) {
  const int games = static_cast<int>(state.range(0));
  Engine engine;
  engine.Load(bench::HiLogGameProgram(games, 16));
  for (auto _ : state) {
    Engine::QueryAnswer answer = engine.Query("winning(mv0)(n0)");
    benchmark::DoNotOptimize(answer.facts_derived);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MagicQuery_OneOfManyGames)->Range(2, 64);

// A query near the end of game 0 of 64 positions, with 1, 16 or 256
// games loaded: its explored fragment is the same, so any growth with
// the loaded EDB is per-query overhead.
void BM_MagicQuery_ManyGamesTail(benchmark::State& state) {
  const int games = static_cast<int>(state.range(0));
  Engine engine;
  engine.Load(bench::HiLogGameProgram(games, 64));
  for (auto _ : state) {
    Engine::QueryAnswer answer = engine.Query("winning(mv0)(n60)");
    benchmark::DoNotOptimize(answer.facts_derived);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MagicQuery_ManyGamesTail)->Arg(1)->Arg(16)->Arg(256);

// Replay, like BM_FullWfs_GameChain.
void BM_FullWfs_ManyGames(benchmark::State& state) {
  const int games = static_cast<int>(state.range(0));
  Engine engine;
  engine.Load(bench::HiLogGameProgram(games, 16));
  for (auto _ : state) {
    Engine::WfsAnswer answer = engine.SolveWellFounded();
    benchmark::DoNotOptimize(answer.model.CountTrue());
  }
  state.SetItemsProcessed(state.iterations() * games);
}
BENCHMARK(BM_FullWfs_ManyGames)->Range(2, 64);

// The rewriting itself (Example 6.6): cost per program rule.
void BM_MagicRewrite(benchmark::State& state) {
  const int games = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::HiLogGameProgram(games, 4));
  TermId query = *ParseTerm(store, "winning(mv0)(n0)");
  FactBase edb = FactRows(store, *parsed, *BuildFactRelations(store, *parsed));
  MagicRewriteOptions options;
  options.edb = &edb;
  for (auto _ : state) {
    MagicProgram magic = MagicRewrite(store, *parsed, query, options);
    benchmark::DoNotOptimize(magic.rules.size());
  }
  state.SetItemsProcessed(state.iterations() * parsed->size());
}
BENCHMARK(BM_MagicRewrite)->Range(2, 64);

void BM_IndexedJoin_MagicMidChain(benchmark::State& state) {
  // Magic query halfway down a large win/move graph: the evaluator walks
  // n/2 positions, each probing m(X,Y) with X bound. The key columns
  // turn every probe from an O(n) bucket scan into an O(out-degree)
  // lookup; the EDB's columns are built once and probed in place by every
  // query. 10k-100k edges.
  const int n = static_cast<int>(state.range(0));
  std::string query = "w(n" + std::to_string(n / 2) + ")";
  Engine engine;
  engine.Load(bench::WinMoveProgram(n));
  for (auto _ : state) {
    Engine::QueryAnswer answer = engine.Query(query);
    benchmark::DoNotOptimize(answer.facts_derived);
  }
  state.SetItemsProcessed(state.iterations() * n / 2);
}
BENCHMARK(BM_IndexedJoin_MagicMidChain)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace hilog

HILOG_BENCH_MAIN("bench_magic")
