// Auto-tuning demo (paper §4.3.2).
//
//   $ ./example_autotune
//
// Searches the blocking-parameter space for one layer, prints the ranked
// candidates, and builds a plan on the winner through PlanOptions. The
// search persists nothing; remembering decisions per shape is the
// selection planner's job (see example_plan_auto and its wisdom file).
#include <algorithm>
#include <cstdio>

#include "ondwin/ondwin.h"

using namespace ondwin;

int main() {
  ConvProblem p;
  p.shape.batch = 2;
  p.shape.in_channels = 64;
  p.shape.out_channels = 64;
  p.shape.image = {28, 28};
  p.shape.kernel = {3, 3};
  p.shape.padding = {1, 1};
  p.tile_m = {4, 4};

  std::printf("tuning %s ...\n", wisdom_key(p).c_str());
  const TuneResult r = auto_tune(p, PlanOptions{}, /*budget_seconds=*/8.0);

  std::printf("%-8s %-8s %-8s %12s\n", "n_blk", "c_blk", "cp_blk", "ms");
  const std::size_t show = std::min<std::size_t>(r.all.size(), 10);
  for (std::size_t i = 0; i < show; ++i) {
    const auto& c = r.all[i];
    std::printf("%-8d %-8d %-8d %12.3f%s\n", c.blocking.n_blk,
                c.blocking.c_blk, c.blocking.cp_blk, c.seconds * 1e3,
                i == 0 ? "   <-- best" : "");
  }
  if (r.all.size() > show) {
    std::printf("  ... %zu more candidates measured\n", r.all.size() - show);
  }

  // The winner reaches a plan through the blocking overrides.
  PlanOptions opts;
  opts.n_blk = r.best.n_blk;
  opts.c_blk = r.best.c_blk;
  opts.cp_blk = r.best.cp_blk;
  opts.fuse_blk = r.best.f_blk;
  ConvPlan plan(p, opts);
  std::printf("tuned plan runs n_blk=%d c_blk=%d cp_blk=%d (%s)\n",
              plan.blocking().n_blk, plan.blocking().c_blk,
              plan.blocking().cp_blk,
              plan.fusion_policy().fused ? "fused" : "staged");
  return 0;
}
