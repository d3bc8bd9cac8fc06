// Kernel-executor benchmarks: semi-naive fixpoints through the compiled
// join kernels, the variant-cache hit path, and the columnar
// fingerprint-filter scan the compiled probes ride on (the branch-free
// intersect loop in FactBase::ProbeBucket).

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "workloads.h"
#include "src/eval/bottomup.h"
#include "src/eval/fact_base.h"
#include "src/eval/kernel.h"
#include "src/lang/parser.h"

namespace hilog {
namespace {

void BM_KernelTc_Compiled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(store, bench::TcProgram(n));
  BottomUpOptions options;
  options.max_facts = 10000000;
  // One warm cache across iterations, like an engine across solves: the
  // steady state this measures is executor throughput, not lowering.
  KernelCache cache;
  options.kernel_cache = &cache;
  for (auto _ : state) {
    BottomUpResult r =
        LeastModelOfPositiveProjection(store, *parsed, options);
    benchmark::DoNotOptimize(r.facts.size());
  }
  state.SetItemsProcessed(state.iterations() * n * (n + 1) / 2);
}
BENCHMARK(BM_KernelTc_Compiled)->Range(16, 256);

void BM_KernelHop_Compiled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  auto parsed = ParseProgram(
      store, "hop(X,Z) :- e(X,Y), e(Y,Z).\n" + bench::ChainFacts("e", n));
  BottomUpOptions options;
  options.max_facts = 10000000;
  KernelCache cache;
  options.kernel_cache = &cache;
  for (auto _ : state) {
    BottomUpResult r =
        LeastModelOfPositiveProjection(store, *parsed, options);
    benchmark::DoNotOptimize(r.facts.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelHop_Compiled)->Arg(10000)->Arg(100000);

// Variant-cache hit path: the per-round cost a compiled fixpoint pays to
// re-ask for an already-lowered (rule, delta position, order) variant.
void BM_KernelCacheHit(benchmark::State& state) {
  TermStore store;
  auto parsed = ParseProgram(store, "t(X,Z) :- t(X,Y), e(Y,Z).\ne(a,b).\n");
  const Rule& rule = parsed->rules[0];
  KernelCache cache;
  auto estimate = [](TermId) { return size_t{100}; };
  auto first = cache.Get(store, rule, estimate, 0);
  benchmark::DoNotOptimize(first);
  for (auto _ : state) {
    auto program = cache.Get(store, rule, estimate, 0);
    benchmark::DoNotOptimize(program.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelCacheHit);

// The two-key columnar probe: the best group gathers through the second
// column's flat fingerprint array (the branch-free 4-wide filter). Facts
// p(a_{i%64}, b_{i%8}, c_i): probing p(a3, b5, X) lands a ~n/64-row best
// group filtered against the ~n/8 second group's fingerprints.
void BM_ColumnScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TermStore store;
  FactBase facts;
  for (int i = 0; i < n; ++i) {
    std::string atom = "p(a" + std::to_string(i % 64) + ",b" +
                       std::to_string(i % 8) + ",c" + std::to_string(i) +
                       ")";
    facts.Insert(store, *ParseTerm(store, atom));
  }
  TermId pattern = *ParseTerm(store, "p(a3,b5,X)");
  std::vector<TermId> scratch;
  for (auto _ : state) {
    auto candidates =
        facts.CandidatesBatch(store, pattern, &scratch, /*frozen=*/true);
    benchmark::DoNotOptimize(candidates.size());
  }
  state.SetItemsProcessed(state.iterations() * (n / 64));
}
BENCHMARK(BM_ColumnScan)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace hilog

HILOG_BENCH_MAIN("bench_kernel")
