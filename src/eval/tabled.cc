#include "src/eval/tabled.h"

#include <unordered_map>
#include <unordered_set>

#include "src/eval/cancel.h"
#include "src/eval/fact_base.h"
#include "src/lang/printer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/term/unify.h"

namespace hilog {

TermId CanonicalizeGoal(TermStore& store, TermId goal) {
  std::vector<TermId> vars;
  store.CollectVariables(goal, &vars);
  Substitution renaming;
  for (size_t i = 0; i < vars.size(); ++i) {
    renaming.Bind(vars[i], store.MakeVariable("#C" + std::to_string(i)));
  }
  return renaming.Apply(store, goal);
}

namespace {

// One memo table per canonical subgoal. Ground answers live in a keyed
// FactBase so recursive subgoals probe by bound argument instead of
// scanning the whole answer list; the (rare)
// non-ground answers stay in a side list that is always consulted.
struct Table {
  std::vector<TermId> answers;           // Instances, in derivation order.
  std::unordered_set<TermId> answer_set; // Variant dedup for non-ground.
  FactBase ground;                       // Indexed ground answers.
  std::vector<TermId> nonground;         // Canonicalized non-ground ones.
};

class TabledEngine {
 public:
  TabledEngine(TermStore& store, const Program& program,
               const TabledOptions& options)
      : store_(store), program_(program), options_(options) {}

  TabledResult Run(TermId query) {
    for (const Rule& rule : program_.rules) {
      for (const Literal& lit : rule.body) {
        if (!lit.positive()) {
          result_.error =
              "tabled evaluation handles definite programs only: " +
              RuleToString(store_, rule);
          return result_;
        }
      }
    }
    TermId root = Ensure(query);

    // Iterate all tabled subgoals to a global fixpoint: each pass
    // re-derives answers for every table, with recursive subgoals
    // consuming the answers tabled so far (naive OLDT; answer-set
    // monotone, so this converges whenever the relevant answer set is
    // finite).
    bool changed = true;
    while (changed && !Overflow()) {
      changed = false;
      obs::Count(obs::Counter::kTabledRestarts);
      obs::TraceInstant("tabled.pass", tables_.size());
      // Tables may be created during the loop; index-based iteration.
      // Saturate each goal locally before moving on: for chain-structured
      // dependency graphs this collapses most global passes.
      for (size_t i = 0; i < goal_order_.size(); ++i) {
        TermId canon = goal_order_[i];
        while (EvaluateGoal(canon)) {
          changed = true;
          if (Overflow()) break;
        }
        if (Overflow()) break;
      }
    }

    if (result_.cancelled) {
      result_.error = CancelReasonMessage(
          CurrentCancelToken() != nullptr ? CurrentCancelToken()->reason()
                                          : CancelReason::kCancelled);
      return result_;
    }

    // Collect the root's answers.
    result_.tables = tables_.size();
    Table& root_table = tables_[root];
    result_.answers = root_table.answers;
    return result_;
  }

 private:
  bool Overflow() {
    if (result_.cancelled) return true;
    if (CancelRequested()) {
      result_.cancelled = true;
      result_.complete = false;
      return true;
    }
    if (result_.steps > options_.max_steps ||
        total_answers_ > options_.max_answers) {
      result_.complete = false;
      return true;
    }
    return false;
  }

  // Ensures a table exists for the canonicalized form of `goal`; returns
  // the canonical key.
  TermId Ensure(TermId goal) {
    TermId canon = CanonicalizeGoal(store_, goal);
    auto [it, inserted] = tables_.try_emplace(canon);
    if (inserted) {
      obs::Count(obs::Counter::kTabledSubgoals);
      goal_order_.push_back(canon);
    } else {
      obs::Count(obs::Counter::kTabledHits);
    }
    return canon;
  }

  bool AddAnswer(TermId canon, TermId answer) {
    Table& table = tables_[canon];
    if (store_.IsGround(answer)) {
      if (!table.ground.Insert(store_, answer)) return false;
    } else {
      // Deduplicate non-ground answers up to variance.
      TermId canon_answer = CanonicalizeGoal(store_, answer);
      if (!table.answer_set.insert(canon_answer).second) return false;
      answer = canon_answer;
      table.nonground.push_back(answer);
    }
    table.answers.push_back(answer);
    ++total_answers_;
    obs::Count(obs::Counter::kTabledAnswers);
    return true;
  }

  // Re-derives answers for one tabled subgoal; true if a new answer was
  // found.
  bool EvaluateGoal(TermId canon) {
    bool changed = false;
    for (const Rule& rule : program_.rules) {
      Rule renamed = RenameRuleApart(store_, rule);
      Substitution subst;
      // The canonical goal's #C-variables function as the call pattern.
      TermId fresh_goal = RenameApart(store_, canon, nullptr);
      if (!UnifyInto(store_, fresh_goal, renamed.head, &subst)) continue;
      changed |= SolveBody(canon, fresh_goal, renamed.body, 0, subst);
      if (Overflow()) return changed;
    }
    return changed;
  }

  // Solves body literals [index..] against tabled answers; at the end,
  // records the goal instance as an answer of `canon`.
  bool SolveBody(TermId canon, TermId goal_instance,
                 const std::vector<Literal>& body, size_t index,
                 const Substitution& subst) {
    if (++result_.steps > options_.max_steps) {
      result_.complete = false;
      return false;
    }
    obs::Count(obs::Counter::kTabledSteps);
    if (index == body.size()) {
      return AddAnswer(canon, subst.Apply(store_, goal_instance));
    }
    TermId subgoal = subst.Apply(store_, body[index].atom);
    TermId sub_canon = Ensure(subgoal);
    // Index-pruned ground answers plus every non-ground one; a snapshot,
    // since recursive AddAnswer grows the table under us. Unification
    // against a ground answer succeeds only where one-way matching does,
    // so the key-column probe prunes soundly here too.
    const Table& sub_table = tables_[sub_canon];
    const size_t baseline = sub_table.answers.size();
    std::vector<TermId> answers;
    sub_table.ground.CandidatesBatch(store_, subgoal, &answers,
                                     /*frozen=*/false);
    answers.insert(answers.end(), sub_table.nonground.begin(),
                   sub_table.nonground.end());
    if (baseline > answers.size()) {
      obs::Count(obs::Counter::kUnificationsAvoided,
                 baseline - answers.size());
    }
    bool changed = false;
    for (TermId answer : answers) {
      TermId target = store_.IsGround(answer)
                          ? answer
                          : RenameApart(store_, answer, nullptr);
      Substitution extended = subst;
      if (UnifyInto(store_, subgoal, target, &extended)) {
        changed |= SolveBody(canon, goal_instance, body, index + 1,
                             extended);
      }
      if (Overflow()) return changed;
    }
    return changed;
  }

  TermStore& store_;
  const Program& program_;
  TabledOptions options_;
  std::unordered_map<TermId, Table> tables_;
  std::vector<TermId> goal_order_;
  size_t total_answers_ = 0;
  TabledResult result_;
};

}  // namespace

TabledResult SolveTabled(TermStore& store, const Program& program,
                         TermId query, const TabledOptions& options) {
  TabledEngine engine(store, program, options);
  return engine.Run(query);
}

}  // namespace hilog
