#include "src/transform/magic.h"

namespace hilog {
namespace {

// The supplementary-variable lists: V_i = (vars of head and B_1..B_i) that
// are still needed by (head or B_{i+1}..B_n), in first-occurrence order.
std::vector<std::vector<TermId>> SupplementaryVars(const TermStore& store,
                                                   const Rule& rule) {
  std::vector<TermId> head_vars;
  store.CollectVariables(rule.head, &head_vars);
  std::vector<std::vector<TermId>> lit_vars(rule.body.size());
  for (size_t i = 0; i < rule.body.size(); ++i) {
    CollectLiteralVariables(store, rule.body[i], &lit_vars[i]);
  }
  std::vector<std::vector<TermId>> sup(rule.body.size() + 1);
  for (size_t i = 0; i <= rule.body.size(); ++i) {
    // Seen: head plus body prefix.
    std::vector<TermId> seen = head_vars;
    auto push_unique = [](std::vector<TermId>* v, TermId x) {
      for (TermId y : *v) {
        if (y == x) return;
      }
      v->push_back(x);
    };
    for (size_t j = 0; j < i; ++j) {
      for (TermId v : lit_vars[j]) push_unique(&seen, v);
    }
    // Needed: head plus body suffix.
    std::vector<TermId> needed = head_vars;
    for (size_t j = i; j < rule.body.size(); ++j) {
      for (TermId v : lit_vars[j]) push_unique(&needed, v);
    }
    for (TermId v : seen) {
      for (TermId w : needed) {
        if (v == w) {
          sup[i].push_back(v);
          break;
        }
      }
    }
  }
  return sup;
}

}  // namespace

std::string MagicProgram::BoxRuleDescription(const TermStore& store) const {
  return std::string(store.text(box_sym)) +
         "(P) <- magic(P,'-'), forall Q (dn(P,Q) -> dns(Q)), ~P";
}

MagicProgram MagicRewrite(TermStore& store, const Program& program,
                          TermId query, const MagicRewriteOptions& options) {
  MagicProgram out;
  out.query = query;
  out.edb = options.edb;
  out.magic_sym = store.MakeSymbol("magic");
  out.plus_sym = store.MakeSymbol("+");
  out.minus_sym = store.MakeSymbol("-");
  out.box_sym = store.MakeSymbol("box");
  out.dp_sym = store.MakeSymbol("dp");
  out.dn_sym = store.MakeSymbol("dn");
  out.dns_sym = store.MakeSymbol("dns");

  auto magic_atom = [&](TermId atom, TermId sign) {
    return store.MakeApply(out.magic_sym, {atom, sign});
  };
  // Rows are ground, so a variable name never has any.
  auto is_edb = [&](TermId atom) {
    return options.edb != nullptr &&
           !options.edb->WithName(store.PredName(atom)).empty();
  };

  // Seed: magic(Q, '+'). We additionally seed magic(Q, '-') so that a
  // ground query that *fails* is actively settled false by the box
  // machinery (giving the query a definite status); for non-ground
  // queries the '-' seed is inert (box only fires on ground calls).
  {
    Rule seed;
    seed.head = magic_atom(query, out.plus_sym);
    out.rules.Add(std::move(seed));
    Rule seed_minus;
    seed_minus.head = magic_atom(query, out.minus_sym);
    out.rules.Add(std::move(seed_minus));
  }

  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    const Rule& rule = program.rules[ri];
    if (is_edb(rule.head)) continue;  // The evaluator reads it in place.

    std::vector<std::vector<TermId>> sup_vars = SupplementaryVars(store, rule);
    std::vector<TermId> sup_atoms(rule.body.size() + 1);
    for (size_t i = 0; i <= rule.body.size(); ++i) {
      TermId sup_name = store.MakeSymbol(
          "sup_" + std::to_string(ri) + "_" + std::to_string(i));
      sup_atoms[i] = store.MakeApply(sup_name, sup_vars[i]);
    }

    // sup_{r,0} <- magic(H, S).
    {
      Rule r0;
      r0.head = sup_atoms[0];
      TermId sign_var = store.MakeVariable("#Sign" + std::to_string(ri));
      r0.body.push_back(Literal::Pos(magic_atom(rule.head, sign_var)));
      out.rules.Add(std::move(r0));
    }

    TermId magic_head_minus = magic_atom(rule.head, out.minus_sym);
    TermId dep_var = store.MakeVariable("#P" + std::to_string(ri));

    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      Rule step;
      step.head = sup_atoms[i + 1];
      step.body.push_back(Literal::Pos(sup_atoms[i]));
      if (lit.positive()) {
        if (!is_edb(lit.atom)) {
          // magic(A,'+') <- sup_{r,i}.
          Rule m;
          m.head = magic_atom(lit.atom, out.plus_sym);
          m.body.push_back(Literal::Pos(sup_atoms[i]));
          out.rules.Add(std::move(m));
          // dp bookkeeping: dp(H,A) <- magic(H,'-'), sup_{r,i};
          //                 dp(P,A) <- dp(P,H), sup_{r,i}.
          Rule dp1;
          dp1.head = store.MakeApply(out.dp_sym, {rule.head, lit.atom});
          dp1.body.push_back(Literal::Pos(magic_head_minus));
          dp1.body.push_back(Literal::Pos(sup_atoms[i]));
          out.rules.Add(std::move(dp1));
          Rule dp2;
          dp2.head = store.MakeApply(out.dp_sym, {dep_var, lit.atom});
          dp2.body.push_back(
              Literal::Pos(store.MakeApply(out.dp_sym, {dep_var, rule.head})));
          dp2.body.push_back(Literal::Pos(sup_atoms[i]));
          out.rules.Add(std::move(dp2));
        }
        step.body.push_back(Literal::Pos(lit.atom));
      } else if (lit.negative()) {
        // magic(A,'-') <- sup_{r,i}.
        Rule m;
        m.head = magic_atom(lit.atom, out.minus_sym);
        m.body.push_back(Literal::Pos(sup_atoms[i]));
        out.rules.Add(std::move(m));
        // dn bookkeeping.
        Rule dn1;
        dn1.head = store.MakeApply(out.dn_sym, {rule.head, lit.atom});
        dn1.body.push_back(Literal::Pos(magic_head_minus));
        dn1.body.push_back(Literal::Pos(sup_atoms[i]));
        out.rules.Add(std::move(dn1));
        Rule dn2;
        dn2.head = store.MakeApply(out.dn_sym, {dep_var, lit.atom});
        dn2.body.push_back(
            Literal::Pos(store.MakeApply(out.dp_sym, {dep_var, rule.head})));
        dn2.body.push_back(Literal::Pos(sup_atoms[i]));
        out.rules.Add(std::move(dn2));
        // The negative subgoal is consumed as box(A): A settled false.
        step.body.push_back(
            Literal::Pos(store.MakeApply(out.box_sym, {lit.atom})));
      } else {
        // Aggregates/builtins pass through unmodified.
        step.body.push_back(lit);
      }
      out.rules.Add(std::move(step));
    }

    // Answer rule: H <- sup_{r,n}.
    Rule answer;
    answer.head = rule.head;
    answer.body.push_back(Literal::Pos(sup_atoms[rule.body.size()]));
    out.rules.Add(std::move(answer));
  }

  // Settledness rules: dns(Q) <- magic(Q,'-'), Q
  //                    dns(Q) <- magic(Q,'-'), box(Q).
  TermId q_var = store.MakeVariable("#Q");
  {
    Rule s1;
    s1.head = store.MakeApply(out.dns_sym, {q_var});
    s1.body.push_back(Literal::Pos(magic_atom(q_var, out.minus_sym)));
    s1.body.push_back(Literal::Pos(q_var));
    out.rules.Add(std::move(s1));
    Rule s2;
    s2.head = store.MakeApply(out.dns_sym, {q_var});
    s2.body.push_back(Literal::Pos(magic_atom(q_var, out.minus_sym)));
    s2.body.push_back(Literal::Pos(store.MakeApply(out.box_sym, {q_var})));
    out.rules.Add(std::move(s2));
  }

  return out;
}

}  // namespace hilog
