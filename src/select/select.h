// ondwin::select — cost-model-driven algorithm & tile-size selection.
//
// The paper fixes the Winograd variant per layer and tunes only the
// blocking empirically (§4.3.2). This planner closes the remaining gap:
// given a bare ConvShape (no tile_m), it
//
//   1. enumerates candidate configurations — direct blocked, FFT, and
//      Winograd F(m_d, r_d) for m_d ∈ {2..max_m} per dimension — pruning
//      Winograd tiles by the numeric-accuracy bound behind Tbl. 3,
//   2. ranks them with an arithmetic/working-set cost model
//      (select/cost_model.h),
//   3. measures the top-K (plus the pinned F(2, r) default, so the
//      planner can never lose to it) with the existing tuner harness, and
//   4. returns a SelectedConfig {algorithm, tile_m, Blocking}, persisting
//      the decision in wisdom (select/wisdom2.h) — the only writer of the
//      file — so later calls and other processes skip the measurement.
//
// plan_auto() wraps the decision in an AutoConv, a uniform blocked-layout
// executor over all three algorithmic classes.
#pragma once

#include <memory>
#include <vector>

#include "core/plan_options.h"
#include "select/auto_conv.h"
#include "select/cost_model.h"
#include "select/wisdom2.h"

namespace ondwin::select {

/// One enumerated configuration with its predicted cost.
struct Candidate {
  Algorithm algorithm = Algorithm::kWinograd;
  Dims tile_m;  // rank 0 for non-Winograd algorithms
  CostEstimate est;
};

struct SelectOptions {
  /// Plan knobs the chosen executor runs with (threads, JIT switches,
  /// precision). `plan.wisdom_path` is the wisdom file this planner reads
  /// and writes; empty = measure on every call.
  PlanOptions plan;

  /// Number of cost-ranked candidates to benchmark (the F(2, r) Winograd
  /// default is always measured in addition, so `plan_auto` can never be
  /// slower than it, modulo timing noise).
  int top_k = 3;

  /// Soft wall-clock cap on the whole measurement phase. Each measured
  /// candidate gets an even share; the Winograd candidates forward it to
  /// auto_tune's (in-loop, satellite-hardened) budget check.
  double budget_seconds = 5.0;

  /// Largest Winograd output-tile size enumerated per dimension.
  int max_m = 8;

  /// Numeric-accuracy prune: Winograd candidates whose
  /// winograd_error_bound() exceeds this are never considered. The bound
  /// is a *worst-case* amplification proxy, 2–4 orders of magnitude above
  /// the errors Tbl. 3 actually measures; the default is calibrated on
  /// that proxy scale to admit the paper's validated range — F(6²,3²)
  /// (≈0.19), F(4×6²,3³) (≈35), F(4³,3³) (≈0.8) — and reject the
  /// numerically useless corner — F(8,3)² (≈6e4), F(6³,3³) (≈2e2).
  double max_err_bound = 50.0;

  /// Storage-precision budget: when `plan.precision` is reduced, a
  /// Winograd tile whose winograd_storage_error_bound() exceeds this is
  /// still *enumerated* but executed (and measured) at fp32 — the planner
  /// never selects a budget-violating precision, it demotes instead (see
  /// resolve_storage_precision). Like max_err_bound the value lives on
  /// the worst-case-proxy scale; the default admits bf16 through F(6,3)²
  /// (≈35) and F(4,3)³ (≈54) but demotes F(4×6²,3³) (≈666), F(6,3)³
  /// (≈2350) and every F(8,·); fp16 bounds sit 8× lower (F(4×6²,3³)
  /// lands at ≈83 — still demoted). Ignored when plan.precision is fp32.
  double max_storage_err = 64.0;

  /// Algorithm-class gates (benchmarks/tests force single classes).
  bool allow_direct = true;
  bool allow_fft = true;
  bool allow_winograd = true;

  /// When false, trust the cost model: rank only, measure nothing. The
  /// top-ranked candidate is returned; unmeasured guesses are cheap to
  /// recompute and are not persisted to wisdom.
  bool measure = true;

  /// Bandwidth-aware cost model: when true (the default) the estimates
  /// run on a MachineProfile — stream bandwidth, LLC size and microkernel
  /// FLOP rate — loaded from the wisdom file's "!cal" line or measured
  /// once per process (~0.1 s) and persisted there. When false (and
  /// `profile` is null) the legacy flop-ratio model ranks instead.
  bool calibrate = true;

  /// Explicit profile override (tests, offline what-if analysis). Beats
  /// `calibrate`; must outlive the call.
  const MachineProfile* profile = nullptr;
};

// SelectedConfig lives in select/auto_conv.h (it is the executor's
// construction contract).

/// The precision a Winograd tile actually executes at: `requested` when
/// its storage-error proxy fits the budget, fp32 otherwise. Deterministic
/// in its arguments, so wisdom records persist only the requested
/// precision and re-derive the executed one on every lookup.
Precision resolve_storage_precision(Precision requested, const Dims& tile_m,
                                    const Dims& kernel,
                                    double max_storage_err);

/// Enumerates and cost-ranks every admissible candidate (cheapest first).
/// Winograd tiles are pruned by the accuracy bound, per-dimension
/// m ∈ {2..max_m}, α = m+r-1 ≤ 16 and m ≤ output extent.
std::vector<Candidate> enumerate_candidates(const ConvShape& shape,
                                            const SelectOptions& opts = {});

/// Full selection: wisdom lookup → enumerate → rank → measure top-K →
/// persist. Throws only on invalid shapes (wisdom I/O failures and
/// records a plan would reject degrade to re-measurement).
SelectedConfig select_config(const ConvShape& shape,
                             const SelectOptions& opts = {});

/// One-call entry point: select (or recall) the fastest configuration for
/// `shape` and build its executor. Kernels still need to be provided via
/// AutoConv::set_kernels before execution.
std::unique_ptr<AutoConv> plan_auto(const ConvShape& shape,
                                    const SelectOptions& opts = {});

}  // namespace ondwin::select
