// Empirical blocking-parameter search (paper §4.3.2): "we take the
// strategy of FFTW and determine the values of n_blk, C_blk and C'_blk …
// empirically for each particular layer shape". The search only measures;
// remembering winners per shape is the selection planner's job
// (select_config persists its whole decision in wisdom v2).
#pragma once

#include <vector>

#include "core/conv_plan.h"

namespace ondwin {

struct TuneCandidate {
  Blocking blocking;
  double seconds = 0;  // best-of-N execute_pretransformed wall time
};

struct TuneResult {
  Blocking best;
  double best_seconds = 0;
  std::vector<TuneCandidate> all;  // every measured candidate, sorted
};

/// Enumerates the legal blocking candidates for a problem: c_blk/cp_blk
/// divisors (multiples of 16, ≤512, product ≤128²) crossed with a small
/// n_blk set ({6,14,22,30} plus the padding-waste minimizer).
std::vector<Blocking> tuning_candidates(const ConvProblem& p);

/// Benchmarks each candidate on synthetic data and returns the fastest.
/// When the winning blocking executes fused under `base`, a second phase
/// measures a ladder of fused tile-block sizes ({1, 2, 4, 8} row blocks)
/// and records the fastest in `best.f_blk` (0 when the winner runs
/// staged). Nothing is persisted: pass `best` to a plan through
/// PlanOptions' blocking fields, or let select_config record it in wisdom
/// v2; `base.wisdom_path` is ignored. `budget_seconds` caps the search; it
/// is checked inside the best-of-N repetition loop (so one slow candidate
/// cannot overshoot it by more than a single repetition), and candidates
/// whose first repetition is already >2× the incumbent best are dropped
/// after that one repetition.
TuneResult auto_tune(const ConvProblem& p, const PlanOptions& base,
                     double budget_seconds = 10.0);

}  // namespace ondwin
