#include "core/tuner.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace ondwin {
namespace {

std::vector<int> blk_divisors(i64 channels) {
  std::vector<int> out;
  for (i64 v = 16; v <= std::min<i64>(channels, 512); v += 16) {
    if (channels % v == 0) out.push_back(static_cast<int>(v));
  }
  return out;
}

}  // namespace

std::vector<Blocking> tuning_candidates(const ConvProblem& p) {
  const i64 nb = p.tiles_total() * p.shape.batch;

  std::vector<int> nblks = {6, 14, 22, 30};
  // Padding-waste minimizer (what the heuristic would pick).
  if (nb <= 30) {
    nblks.push_back(static_cast<int>(nb));
  } else {
    i64 best_waste = -1;
    int best = 30;
    for (int n = 6; n <= 30; ++n) {
      const i64 waste = round_up(nb, n) - nb;
      if (best_waste < 0 || waste <= best_waste) {
        best_waste = waste;
        best = n;
      }
    }
    nblks.push_back(best);
  }
  std::sort(nblks.begin(), nblks.end());
  nblks.erase(std::unique(nblks.begin(), nblks.end()), nblks.end());

  std::vector<Blocking> out;
  for (int cb : blk_divisors(p.shape.in_channels)) {
    for (int cpb : blk_divisors(p.shape.out_channels)) {
      if (static_cast<i64>(cb) * cpb > 128 * 128) continue;
      for (int n : nblks) {
        if (n < 1 || n > 30 || n > nb) continue;
        out.push_back({n, cb, cpb});
      }
    }
  }
  if (out.empty()) {
    // nb smaller than every candidate n_blk — fall back to n_blk = nb.
    for (int cb : blk_divisors(p.shape.in_channels)) {
      for (int cpb : blk_divisors(p.shape.out_channels)) {
        if (static_cast<i64>(cb) * cpb > 128 * 128) continue;
        out.push_back({static_cast<int>(std::min<i64>(nb, 30)), cb, cpb});
      }
    }
  }
  return out;
}

TuneResult auto_tune(const ConvProblem& p, const PlanOptions& base,
                     double budget_seconds) {
  ONDWIN_TRACE_SPAN("auto_tune");
  p.validate();
  const auto candidates = tuning_candidates(p);
  ONDWIN_CHECK(!candidates.empty(), "no tuning candidates for this problem");
  static obs::Counter& candidates_metric =
      obs::MetricsRegistry::global().counter(
          "ondwin_tuner_candidates_total",
          "Blocking candidates measured by auto_tune");

  // Synthetic inputs shared by every candidate.
  const ImageLayout in_l = p.input_layout();
  const ImageLayout out_l = p.output_layout();
  const KernelLayout k_l = p.kernel_layout();
  AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
  AlignedBuffer<float> out(static_cast<std::size_t>(out_l.total_floats()));
  Rng rng(0xC0FFEE);
  for (auto& v : in) v = rng.uniform(-1, 1);
  for (auto& v : w) v = rng.uniform(-1, 1);

  Timer budget;
  TuneResult result;
  double incumbent = 1e300;  // best time seen so far
  for (const Blocking& cand : candidates) {
    ONDWIN_TRACE_SPAN("tune.candidate");
    candidates_metric.inc();
    PlanOptions opts = base;
    opts.n_blk = cand.n_blk;
    opts.c_blk = cand.c_blk;
    opts.cp_blk = cand.cp_blk;

    ConvPlan plan(p, opts);
    plan.set_kernels(w.data());

    // First repetition screens the candidate: one that is already 2×
    // slower than the incumbent cannot win a minimum-of-N contest, so it
    // gets no further repetitions — this is what stops a single slow
    // candidate from overshooting the budget arbitrarily.
    Timer rep;
    plan.execute_pretransformed(in.data(), out.data());
    double best = rep.seconds();
    if (best <= 2.0 * incumbent) {
      // Best-of-N with the budget checked inside the repetition loop
      // (not just between candidates).
      double total = best;
      int iters = 1;
      while ((iters < 2 || total < 0.01) &&
             budget.seconds() <= budget_seconds) {
        rep.restart();
        plan.execute_pretransformed(in.data(), out.data());
        const double s = rep.seconds();
        total += s;
        best = std::min(best, s);
        ++iters;
      }
    }
    result.all.push_back({cand, best});
    incumbent = std::min(incumbent, best);
    if (budget.seconds() > budget_seconds) break;
  }

  std::sort(result.all.begin(), result.all.end(),
            [](const TuneCandidate& a, const TuneCandidate& b) {
              return a.seconds < b.seconds;
            });
  result.best = result.all.front().blocking;
  result.best_seconds = result.all.front().seconds;

  // Fused-block refinement: when the winning blocking executes fused under
  // `base` (explicitly, or because kAuto chose fusion), the tile-block size
  // joins the tuned space — measure a ladder of row-block counts from the
  // default of one and keep the fastest. Staged winners skip this
  // entirely, so small-shape tuning pays nothing.
  {
    PlanOptions opts = base;
    opts.n_blk = result.best.n_blk;
    opts.c_blk = result.best.c_blk;
    opts.cp_blk = result.best.cp_blk;
    opts.fuse_blk = 0;
    ConvPlan probe(p, opts);
    if (probe.fusion_policy().fused && budget.seconds() <= budget_seconds) {
      double best_f_seconds = 1e300;
      int best_f = probe.fusion_policy().f_blk;
      std::vector<int> measured;  // resolved sizes (clamping can collide)
      for (const int f : {1, 2, 4, 8}) {
        if (budget.seconds() > budget_seconds) break;
        ONDWIN_TRACE_SPAN("tune.fuse_blk");
        opts.fuse_blk = f;
        ConvPlan plan(p, opts);
        const int resolved = plan.fusion_policy().f_blk;
        if (std::find(measured.begin(), measured.end(), resolved) !=
            measured.end()) {
          continue;
        }
        measured.push_back(resolved);
        candidates_metric.inc();
        plan.set_kernels(w.data());
        Timer rep;
        plan.execute_pretransformed(in.data(), out.data());
        double best = rep.seconds();
        double total = best;
        int iters = 1;
        while ((iters < 2 || total < 0.01) &&
               budget.seconds() <= budget_seconds) {
          rep.restart();
          plan.execute_pretransformed(in.data(), out.data());
          const double s = rep.seconds();
          total += s;
          best = std::min(best, s);
          ++iters;
        }
        if (best < best_f_seconds) {
          best_f_seconds = best;
          best_f = resolved;
        }
      }
      result.best.f_blk = best_f;
      if (best_f_seconds < result.best_seconds) {
        result.best_seconds = best_f_seconds;
      }
    }
  }
  return result;
}

}  // namespace ondwin
