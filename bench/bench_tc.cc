// E1/E2: the paper's motivating generic programs — transitive closure
// tc(G) (Example 2.1) and maplist(F) (Example 2.2) — evaluated bottom-up,
// across graph/list sizes. Also compares the generic HiLog tc against a
// hand-specialized first-order tc (the cost of genericity).

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "workloads.h"
#include "src/core/engine.h"
#include "src/eval/bottomup.h"
#include "src/lang/parser.h"

namespace hilog {
namespace {

void BM_GenericTc_Chain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::TcProgram(n));
  BottomUpOptions options;
  options.max_facts = 10000000;
  for (auto _ : state) {
    BottomUpResult r =
        LeastModelOfPositiveProjection(store, *parsed, options);
    benchmark::DoNotOptimize(r.facts.size());
  }
  // Quadratically many closure facts.
  state.SetItemsProcessed(state.iterations() * n * (n + 1) / 2);
}
BENCHMARK(BM_GenericTc_Chain)->Range(16, 256);

void BM_NormalTc_Chain(benchmark::State& state) {
  // The specialized first-order program a normal-logic user would write
  // for each relation (the paper: "one would have to write a separate tc
  // routine for each possible e").
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::NormalTcProgram(n));
  BottomUpOptions options;
  options.max_facts = 10000000;
  for (auto _ : state) {
    BottomUpResult r =
        LeastModelOfPositiveProjection(store, *parsed, options);
    benchmark::DoNotOptimize(r.facts.size());
  }
  state.SetItemsProcessed(state.iterations() * n * (n + 1) / 2);
}
BENCHMARK(BM_NormalTc_Chain)->Range(16, 256);

void BM_GenericTc_TwoGraphs(benchmark::State& state) {
  // One rule set, two graphs: the generic program amortizes.
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  std::string text =
      "tc(G)(X,Y) :- graph(G), G(X,Y).\n"
      "tc(G)(X,Y) :- graph(G), G(X,Z), tc(G)(Z,Y).\n"
      "graph(e1). graph(e2).\n" +
      bench::ChainFacts("e1", n) + bench::ChainFacts("e2", n);
  auto parsed = ParseProgram(store, text);
  BottomUpOptions options;
  options.max_facts = 10000000;
  for (auto _ : state) {
    BottomUpResult r =
        LeastModelOfPositiveProjection(store, *parsed, options);
    benchmark::DoNotOptimize(r.facts.size());
  }
  state.SetItemsProcessed(state.iterations() * n * (n + 1));
}
BENCHMARK(BM_GenericTc_TwoGraphs)->Range(16, 128);

void BM_Maplist(benchmark::State& state) {
  // maplist(succ) applied to a list of length n (Example 2.2), evaluated
  // query-directed (unconstrained bottom-up would enumerate all n^k
  // lists; magic sets restrict derivations to the queried list's
  // suffixes).
  const int n = static_cast<int>(state.range(0));
  std::string text =
      "maplist(F)([],[]).\n"
      "maplist(F)([X|R],[Y|Z]) :- F(X,Y), maplist(F)(R,Z).\n";
  for (int i = 0; i < n; ++i) {
    text += "succ(" + std::to_string(i) + "," + std::to_string(i + 1) +
            ").\n";
  }
  std::string list = "[]";
  for (int i = n - 1; i >= 0; --i) {
    list = "[" + std::to_string(i) + "|" + list + "]";
  }
  std::string query = "maplist(succ)(" + list + ", Out)";
  for (auto _ : state) {
    Engine engine;
    engine.Load(text);
    Engine::QueryAnswer answer = engine.Query(query);
    benchmark::DoNotOptimize(answer.answers.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Maplist)->Range(4, 64);

void BM_IndexedJoin_HopJoin(benchmark::State& state) {
  // Two-hop join over a large chain EDB. Without the key columns every
  // e(Y,Z) probe scans all n facts of the e bucket (quadratic in n); the
  // first-argument column resolves each probe to the single successor
  // edge, making the join linear — which is what lets this case run at
  // 10k-100k facts at all.
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(
      store, "hop(X,Z) :- e(X,Y), e(Y,Z).\n" + bench::ChainFacts("e", n));
  BottomUpOptions options;
  options.max_facts = 10000000;
  for (auto _ : state) {
    BottomUpResult r =
        LeastModelOfPositiveProjection(store, *parsed, options);
    benchmark::DoNotOptimize(r.facts.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IndexedJoin_HopJoin)->Arg(10000)->Arg(100000);

void BM_IndexedJoin_SelectiveGuard(benchmark::State& state) {
  // A selective guard joined against a large relation, written in the
  // worst textual order (big relation first): the join planner must move
  // the guard forward, and the index must answer the bound-argument
  // probes.
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  std::string text = "out(X,Y) :- e(X,Y), sel(X).\nsel(n7).\nsel(n11).\n" +
                     bench::ChainFacts("e", n);
  auto parsed = ParseProgram(store, text);
  BottomUpOptions options;
  options.max_facts = 10000000;
  for (auto _ : state) {
    BottomUpResult r =
        LeastModelOfPositiveProjection(store, *parsed, options);
    benchmark::DoNotOptimize(r.facts.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IndexedJoin_SelectiveGuard)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace hilog

HILOG_BENCH_MAIN("bench_tc")
