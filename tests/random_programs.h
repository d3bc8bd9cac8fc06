// Random program generators shared by the property-test suites.
#ifndef HILOG_TESTS_RANDOM_PROGRAMS_H_
#define HILOG_TESTS_RANDOM_PROGRAMS_H_

#include <random>
#include <string>
#include <vector>

namespace hilog::testing {

// A random range-restricted normal program (Definition 4.1) over a small
// vocabulary: facts over constants, rules whose head and negative
// variables are bound by positive body literals.
inline std::string RandomRangeRestrictedNormalProgram(unsigned seed) {
  std::mt19937 rng(seed);
  const char* preds[] = {"p", "q", "r", "s"};
  const char* consts[] = {"a", "b", "c"};
  std::string text;
  // Facts.
  int facts = 2 + rng() % 4;
  for (int i = 0; i < facts; ++i) {
    text += std::string(preds[rng() % 4]) + "(" + consts[rng() % 3] + ").\n";
  }
  // Rules: head(X) :- base(X) [, ~other(X)].
  int rules = 1 + rng() % 4;
  for (int i = 0; i < rules; ++i) {
    std::string head = preds[rng() % 4];
    std::string pos = preds[rng() % 4];
    text += head + "(X) :- " + pos + "(X)";
    if (rng() % 2 == 0) {
      text += ", ~" + std::string(preds[rng() % 4]) + "(X)";
    }
    text += ".\n";
  }
  return text;
}

// A random *strongly range-restricted* HiLog game program: the
// parameterized win/move rule plus acyclic move relations (Example 6.3
// family). `cyclic` injects a back edge making it non-modularly
// stratified.
inline std::string RandomGameProgram(unsigned seed, bool cyclic = false,
                                     int positions = 5) {
  std::mt19937 rng(seed);
  std::string text =
      "winning(M)(X) :- game(M), M(X,Y), ~winning(M)(Y).\n";
  int games = 1 + rng() % 2;
  for (int g = 0; g < games; ++g) {
    std::string mv = "mv" + std::to_string(g);
    text += "game(" + mv + ").\n";
    for (int i = 0; i < positions; ++i) {
      // Forward edges only: acyclic.
      int from = i;
      int to = i + 1 + static_cast<int>(rng() % 2);
      if (to > positions) to = positions;
      text += mv + "(n" + std::to_string(from) + ",n" + std::to_string(to) +
              ").\n";
    }
    if (cyclic && g == 0) {
      text += mv + "(n" + std::to_string(positions) + ",n0).\n";
    }
  }
  return text;
}

// The relation names RandomVariableHeadProgram uses, in the order its
// callers enumerate ground atoms: fact-bearing names, the selector, then
// the readers.
inline const std::vector<std::string>& VariableHeadProgramNames() {
  static const std::vector<std::string> names = {
      "p", "q", "h(p)", "h(q)", "sel", "t0", "t1", "t2"};
  return names;
}

// A random *definite* HiLog program whose variable-named heads land on
// fact-bearing names that other rules read. `sel` lists plain relation
// names; `X(c) :- sel(X).` then adds a row to each listed relation (and
// could add one to any relation at all), and `h(X)(c) :- sel(X).` adds
// one to the compound-named relation h(X) only. Every such relation also
// has facts of its own, and the readers t0..t2 join them, so an evaluator
// that takes a relation for fact-only because its own rules are facts
// misses the rows the variable-named heads derive.
inline std::string RandomVariableHeadProgram(unsigned seed) {
  std::mt19937 rng(seed);
  const std::vector<std::string>& names = VariableHeadProgramNames();
  const char* consts[] = {"a", "b", "c"};
  const char* plain[] = {"p", "q"};
  std::string text;
  for (int n = 0; n < 4; ++n) {  // p, q, h(p), h(q).
    const int facts = 1 + static_cast<int>(rng() % 2);
    for (int i = 0; i < facts; ++i) {
      text += names[n] + "(" + consts[rng() % 3] + ").\n";
    }
  }
  const int listed = 1 + static_cast<int>(rng() % 2);
  for (int i = 0; i < listed; ++i) {
    text += std::string("sel(") + plain[rng() % 2] + ").\n";
  }
  switch (rng() % 3) {
    case 0:
      text += std::string("X(") + consts[rng() % 3] + ") :- sel(X).\n";
      break;
    case 1:
      text += std::string("h(X)(") + consts[rng() % 3] + ") :- sel(X).\n";
      break;
    default:
      text += std::string("X(") + consts[rng() % 3] + ") :- sel(X).\n";
      text += std::string("h(X)(") + consts[rng() % 3] + ") :- sel(X).\n";
  }
  for (int t = 0; t < 3; ++t) {
    text += names[5 + t] + "(Y) :- " + names[rng() % 4] + "(Y)";
    if (rng() % 2 == 0) text += ", " + names[rng() % 4] + "(Y)";
    text += ".\n";
  }
  return text;
}

// A random pool of ground HiLog facts over plain and compound predicate
// names (p, winning(move1), f(g)) with symbol and nested-application
// arguments — the workload for index-vs-full-scan equivalence checks.
inline std::vector<std::string> RandomHiLogFacts(unsigned seed, int count) {
  std::mt19937 rng(seed);
  const char* names[] = {"p", "q", "winning(move1)", "winning(move2)",
                         "f(g)"};
  const char* consts[] = {"a", "b", "c", "d"};
  std::vector<std::string> facts;
  facts.reserve(count);
  for (int i = 0; i < count; ++i) {
    std::string atom = names[rng() % 5];
    int arity = rng() % 3;  // 0-ary through binary.
    if (arity == 0) {
      // A bare symbol atom only for non-compound names.
      if (atom.find('(') != std::string::npos) atom += "()";
    } else {
      atom += "(";
      for (int a = 0; a < arity; ++a) {
        if (a > 0) atom += ",";
        if (rng() % 4 == 0) {
          atom += std::string("h(") + consts[rng() % 4] + ")";
        } else {
          atom += consts[rng() % 4];
        }
      }
      atom += ")";
    }
    facts.push_back(atom);
  }
  return facts;
}

// Random query patterns over the RandomHiLogFacts vocabulary: constants,
// compound arguments, variables in any position, and variable predicate
// names (the HiLog case that must fall back to a full scan).
inline std::vector<std::string> RandomHiLogPatterns(unsigned seed,
                                                    int count) {
  std::mt19937 rng(seed);
  const char* names[] = {"p", "q", "winning(move1)", "winning(move2)",
                         "f(g)", "G"};
  const char* args[] = {"a", "b", "c", "d", "X", "Y", "h(a)", "h(X)",
                        "h(d)"};
  std::vector<std::string> patterns;
  patterns.reserve(count);
  for (int i = 0; i < count; ++i) {
    std::string pattern = names[rng() % 6];
    int arity = rng() % 3;
    if (arity == 0) {
      if (pattern.find('(') != std::string::npos) pattern += "()";
    } else {
      pattern += "(";
      for (int a = 0; a < arity; ++a) {
        if (a > 0) pattern += ",";
        pattern += args[rng() % 9];
      }
      pattern += ")";
    }
    patterns.push_back(pattern);
  }
  return patterns;
}

// A random ground normal program with negation (for WFS engine
// cross-checks): atoms a0..a{n-1}, random rules.
inline std::string RandomGroundProgram(unsigned seed, int atoms = 8,
                                       int rules = 12) {
  std::mt19937 rng(seed);
  auto atom = [&](int i) { return "a" + std::to_string(i); };
  std::string text;
  for (int r = 0; r < rules; ++r) {
    text += atom(rng() % atoms);
    int body = rng() % 3;
    if (body > 0) {
      text += " :- ";
      for (int b = 0; b < body; ++b) {
        if (b > 0) text += ", ";
        if (rng() % 3 == 0) text += "~";
        text += atom(rng() % atoms);
      }
    }
    text += ".\n";
  }
  return text;
}

}  // namespace hilog::testing

#endif  // HILOG_TESTS_RANDOM_PROGRAMS_H_
