#ifndef HILOG_WFS_STABLE_H_
#define HILOG_WFS_STABLE_H_

#include <string>
#include <vector>

#include "src/wfs/alternating.h"

namespace hilog {

/// A stable model, reported as its set of true atoms (everything else in
/// the Herbrand base is false — stable models are total, Definition 3.6).
struct StableModel {
  std::vector<TermId> true_atoms;
};

/// Result of stable-model enumeration.
struct StableModelsResult {
  std::vector<StableModel> models;
  /// False if enumeration was cut short by `max_models` or by the branch
  /// budget (too many undefined atoms), or refused before it started.
  bool complete = true;
  /// Why Engine::SolveStable refused to enumerate (no models, `complete`
  /// false): the scheduler's error, "envelope truncated", or the bounded
  /// Herbrand refusal. Empty for a budget cut or a cancellation.
  std::string reason;
  /// Number of total-interpretation candidates tested.
  size_t candidates_checked = 0;
  /// Stopped early by the installed CancelToken (src/eval/cancel.h);
  /// `complete` is false and the models found so far are kept.
  bool cancelled = false;
};

struct StableOptions {
  size_t max_models = 64;
  /// Enumeration branches on the atoms left undefined by the well-founded
  /// model; 2^k candidates is refused beyond this many atoms.
  size_t max_branch_atoms = 24;
};

/// Gelfond-Lifschitz check: is the total interpretation with exactly
/// `true_atoms` true a stable model of `ground`? (Via the reduct: the
/// least model of P^M must equal M.)
bool IsStableModel(const GroundProgram& ground,
                   const std::vector<TermId>& true_atoms);

/// The paper's Definition 3.6 characterization: a stable model is a
/// two-valued fixpoint of W_P. Provided separately so tests can verify the
/// two characterizations agree (they do, per Van Gelder-Ross-Schlipf).
bool IsTwoValuedFixpointOfW(const GroundProgram& ground,
                            const std::vector<TermId>& true_atoms);

/// Enumerates stable models. Atoms decided by the well-founded model are
/// fixed (every stable model extends the well-founded model); the
/// remaining undefined atoms are branched over exhaustively. The
/// enumeration polls the thread's CancelToken once per candidate.
///
/// `wfs` optionally supplies an already-computed well-founded model of
/// `ground` (looked up per atom, so any table covering the program works);
/// when null, one is computed here via the SCC scheduler.
StableModelsResult EnumerateStableModels(const GroundProgram& ground,
                                         const StableOptions& options,
                                         const Interpretation* wfs = nullptr);

}  // namespace hilog

#endif  // HILOG_WFS_STABLE_H_
