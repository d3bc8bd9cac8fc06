#ifndef HILOG_EVAL_STRATIFIED_H_
#define HILOG_EVAL_STRATIFIED_H_

#include <functional>
#include <string>

#include "src/eval/bottomup.h"
#include "src/eval/scheduler.h"
#include "src/lang/ast.h"

namespace hilog {

/// Result of stratified evaluation.
struct StratifiedEvalResult {
  bool ok = false;
  std::string error;
  /// The perfect model's true atoms (everything else false), in the order
  /// of the well-founded model's atom table.
  FactBase facts;
  /// Number of distinct head levels in the Apt-Blair-Walker assignment.
  size_t strata = 0;
};

/// Evaluates a *stratified* program (Definition 6.1). Its perfect model
/// (Apt-Blair-Walker: least fixpoints level by level, paper Section 1) is
/// the two-valued special case of the well-founded model, so after the
/// checks below this is an uncached component-scheduler solve
/// (src/eval/scheduler.h) whose true atoms are the answer.
///
/// Requirements: the program must be stratified and safe for bottom-up
/// evaluation (every rule head and negative literal bound by the positive
/// body, i.e. strongly range restricted); otherwise `ok` is false with an
/// explanatory error. So is a solve that a budget (`max_facts`,
/// `max_rounds`) or the installed CancelToken cut short: `facts` is then
/// empty, never a partial model.
StratifiedEvalResult EvaluateStratified(TermStore& store,
                                        const Program& program,
                                        const BottomUpOptions& options);

/// What EvaluateStratified and Engine::SolveStratified share: the
/// checks, then `solve` (a need_ground=false SolveWfsByComponents of
/// `program`, cached or not), whose true atoms, at most `max_facts` of
/// them, become the facts.
StratifiedEvalResult EvaluateStratifiedBy(
    const TermStore& store, const Program& program, size_t max_facts,
    const std::function<ComponentWfsResult()>& solve);

}  // namespace hilog

#endif  // HILOG_EVAL_STRATIFIED_H_
