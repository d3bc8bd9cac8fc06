// Workload generators shared by the benchmark binaries. Each generator
// corresponds to a workload named in DESIGN.md's per-experiment index.
#ifndef HILOG_BENCH_WORKLOADS_H_
#define HILOG_BENCH_WORKLOADS_H_

#include <string>

namespace hilog::bench {

// A chain graph e(n0,n1), ..., e(n{k-1},n{k}).
inline std::string ChainFacts(const std::string& pred, int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += pred + "(n" + std::to_string(i) + ",n" + std::to_string(i + 1) +
            ").\n";
  }
  return text;
}

// A cycle graph.
inline std::string CycleFacts(const std::string& pred, int n) {
  std::string text = ChainFacts(pred, n - 1);
  text += pred + "(n" + std::to_string(n - 1) + ",n0).\n";
  return text;
}

// The ground win/move chain program of size n (Example 6.1 family): the
// classic WFS benchmark with alternating outcomes and maximal
// alternating-fixpoint depth.
inline std::string GroundWinChain(int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    std::string x = std::to_string(i);
    std::string y = std::to_string(i + 1);
    text += "w(n" + x + ") :- m(n" + x + ",n" + y + "), ~w(n" + y + ").\n";
    text += "m(n" + x + ",n" + y + ").\n";
  }
  return text;
}

// The non-ground win/move program over an acyclic random-ish graph with
// out-degree ~2 (keeps the WFS total but with long settling chains).
inline std::string WinMoveProgram(int positions) {
  std::string text = "w(X) :- m(X,Y), ~w(Y).\n";
  for (int i = 0; i < positions; ++i) {
    text += "m(n" + std::to_string(i) + ",n" + std::to_string(i + 1) + ").\n";
    if (i + 2 <= positions) {
      text +=
          "m(n" + std::to_string(i) + ",n" + std::to_string(i + 2) + ").\n";
    }
  }
  return text;
}

// The parameterized HiLog game (Example 6.3) with `games` move relations
// of `positions` each.
inline std::string HiLogGameProgram(int games, int positions) {
  std::string text = "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).\n";
  for (int g = 0; g < games; ++g) {
    std::string mv = "mv" + std::to_string(g);
    text += "game(" + mv + ").\n";
    for (int i = 0; i < positions; ++i) {
      text += mv + "(n" + std::to_string(i) + ",n" + std::to_string(i + 1) +
              ").\n";
    }
  }
  return text;
}

// `chains` independent ground win/move chains of `length` positions
// each over disjoint predicate pairs (w0/m0, w1/m1, ...): the
// multi-component workload for the SCC evaluation scheduler. A
// whole-program alternating fixpoint re-sweeps every chain each round;
// component-at-a-time settling touches each chain once.
inline std::string MultiWinChains(int chains, int length) {
  std::string text;
  for (int c = 0; c < chains; ++c) {
    std::string w = "w" + std::to_string(c);
    std::string m = "m" + std::to_string(c);
    for (int i = 0; i < length; ++i) {
      std::string x = std::to_string(i);
      std::string y = std::to_string(i + 1);
      text += w + "(n" + x + ") :- " + m + "(n" + x + ",n" + y + "), ~" +
              w + "(n" + y + ").\n";
      text += m + "(n" + x + ",n" + y + ").\n";
    }
  }
  return text;
}

// `chains` ground win/move chains of `length` positions sharing one w/m
// predicate pair; every other chain ends in a self-loop that leaves it
// undefined. Figure 1 settles m, then reduces every w rule against it, so
// the shape measures whether a ground settled literal costs one lookup or
// a scan of the whole m relation.
inline std::string SharedWinChains(int chains, int length) {
  std::string text;
  for (int c = 0; c < chains; ++c) {
    auto at = [&](int i) {
      return "c" + std::to_string(c) + "_" + std::to_string(i);
    };
    const int last = c % 2 == 1 ? length : length - 1;
    for (int i = 0; i <= last; ++i) {
      const int to = i < length ? i + 1 : length;
      std::string move = "m(" + at(i) + "," + at(to) + ")";
      text += "w(" + at(i) + ") :- " + move + ", ~w(" + at(to) + ").\n";
      text += move + ".\n";
    }
  }
  return text;
}

// A `layers`-deep stack of negation strata, `width` predicates wide:
// every layer-l predicate depends positively on its layer-(l-1)
// counterpart and negatively on a layer-(l-1) neighbour. Stratified, so
// the WFS is total; each layer is its own scheduler component.
inline std::string LayeredNegationProgram(int layers, int width) {
  std::string text;
  for (int w = 0; w < width; ++w) {
    text += "p0_" + std::to_string(w) + "(c).\n";
  }
  for (int l = 1; l < layers; ++l) {
    std::string lo = std::to_string(l - 1);
    std::string hi = std::to_string(l);
    for (int w = 0; w < width; ++w) {
      std::string self = std::to_string(w);
      std::string other = std::to_string((w + 1) % width);
      text += "p" + hi + "_" + self + "(X) :- p" + lo + "_" + self +
              "(X), ~p" + lo + "_" + other + "(X).\n";
    }
  }
  return text;
}

// Generic transitive closure over a chain of size n (Example 2.1),
// guarded so it is strongly range restricted.
inline std::string TcProgram(int n) {
  std::string text =
      "tc(G)(X,Y) :- graph(G), G(X,Y).\n"
      "tc(G)(X,Y) :- graph(G), G(X,Z), tc(G)(Z,Y).\n"
      "graph(e).\n";
  text += ChainFacts("e", n);
  return text;
}

// Normal (first-order) transitive closure for the universal-encoding
// comparison.
inline std::string NormalTcProgram(int n) {
  std::string text =
      "t(X,Y) :- e(X,Y).\n"
      "t(X,Y) :- e(X,Z), t(Z,Y).\n";
  text += ChainFacts("e", n);
  return text;
}

// Parts hierarchy: a `depth`-deep, `fanout`-wide tree of part kinds; each
// part has 2 copies of each child kind (counts stay small).
inline std::string PartsProgram(int depth, int fanout) {
  std::string text =
      "in(Mach,X,Y,null,N) :- assoc(Mach,Part), Part(X,Y,N).\n"
      "in(Mach,X,Y,Z,N) :- assoc(Mach,Part), Part(X,Z,P),\n"
      "                    contains(Mach,Z,Y,M), N = P * M.\n"
      "contains(Mach,X,Y,N) :- N = sum(P, in(Mach,X,Y,_,P)).\n"
      "assoc(m, parts).\n";
  // Part kinds laid out level by level; each level-d kind has `fanout`
  // children at level d+1 (shared across parents to bound the count).
  for (int d = 0; d < depth; ++d) {
    for (int f = 0; f < fanout; ++f) {
      text += "parts(k" + std::to_string(d) + ", k" + std::to_string(d + 1) +
              "x" + std::to_string(f) + ", 2).\n";
      text += "parts(k" + std::to_string(d + 1) + "x" + std::to_string(f) +
              ", k" + std::to_string(d + 1) + ", 1).\n";
    }
  }
  return text;
}

// A stratified three-layer normal program for analysis benches.
inline std::string LayeredProgram(int width) {
  std::string text;
  for (int i = 0; i < width; ++i) {
    std::string s = std::to_string(i);
    text += "base" + s + "(c" + s + ").\n";
    text += "mid" + s + "(X) :- base" + s + "(X), ~excl" + s + "(X).\n";
    text += "top" + s + "(X) :- mid" + s + "(X).\n";
  }
  return text;
}

// k independent negative two-loops: 2^k stable-model candidates, 2 real
// stable models per loop.
inline std::string LoopProgram(int loops) {
  std::string text;
  for (int i = 0; i < loops; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    text += a + " :- ~" + b + ".\n" + b + " :- ~" + a + ".\n";
  }
  return text;
}

}  // namespace hilog::bench

#endif  // HILOG_BENCH_WORKLOADS_H_
