// Selection-planner demo (DESIGN.md §9).
//
//   $ ./example_plan_auto [wisdom_file]
//
// Gives the planner a bare layer shape — no algorithm, no tile sizes —
// and lets it enumerate direct/FFT/Winograd F(m, r) candidates, prune
// the numerically useless tiles, rank by the cost model, benchmark the
// short list, and return the fastest configuration. Run it twice with
// the same wisdom file: the second run answers instantly from wisdom v2.
#include <cstdio>
#include <string>

#include "ondwin/ondwin.h"
#include "util/rng.h"

using namespace ondwin;

int main(int argc, char** argv) {
  const std::string wisdom_path =
      argc > 1 ? argv[1] : "/tmp/ondwin_wisdom.txt";

  ConvShape shape;
  shape.batch = 2;
  shape.in_channels = 64;
  shape.out_channels = 64;
  shape.image = {28, 28};
  shape.kernel = {3, 3};
  shape.padding = {1, 1};
  // Note: no tile_m anywhere — picking it is the planner's job.

  select::SelectOptions opts;
  opts.plan.wisdom_path = wisdom_path;
  opts.budget_seconds = 3.0;

  // What the planner is choosing between (cheapest-predicted first).
  const auto cands = select::enumerate_candidates(shape, opts);
  std::printf("%zu admissible candidates; top of the cost ranking:\n",
              cands.size());
  const std::size_t show = std::min<std::size_t>(cands.size(), 5);
  for (std::size_t i = 0; i < show; ++i) {
    const auto& c = cands[i];
    const std::string tile = c.algorithm == select::Algorithm::kWinograd
                                 ? "F" + c.tile_m.to_string()
                                 : "-";
    std::printf("  %-10s %-10s predicted cost %.3g\n",
                select::algorithm_name(c.algorithm), tile.c_str(),
                c.est.cost);
  }

  const select::SelectedConfig sel = select::select_config(shape, opts);
  std::printf("\nselected: %s", select::algorithm_name(sel.algorithm));
  if (sel.algorithm == select::Algorithm::kWinograd) {
    std::printf(" F%s blocking {%d,%d,%d}", sel.tile_m.to_string().c_str(),
                sel.blocking.n_blk, sel.blocking.c_blk, sel.blocking.cp_blk);
  }
  if (sel.from_wisdom) {
    std::printf("  [served from wisdom v2 — no measurements]\n");
  } else {
    std::printf("  [%d configurations benchmarked, best %.3f ms]\n",
                sel.measured, sel.seconds * 1e3);
  }

  // plan_auto wraps the same decision in a ready executor.
  auto conv = select::plan_auto(shape, opts);
  const ImageLayout in_l(shape.batch, shape.in_channels, shape.image);
  const ImageLayout out_l(shape.batch, shape.out_channels, shape.output());
  const KernelLayout k_l{shape.in_channels, shape.out_channels,
                         shape.kernel};
  AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
  AlignedBuffer<float> out(static_cast<std::size_t>(out_l.total_floats()));
  Rng rng(1);
  for (auto& v : in) v = rng.uniform(-1, 1);
  for (auto& v : w) v = rng.gaussian(0.0f, 0.05f);
  conv->set_kernels(w.data());
  conv->execute_pretransformed(in.data(), out.data());
  std::printf("executed: %lld output floats through the selected plan\n",
              static_cast<long long>(out_l.total_floats()));
  std::printf("\nrun again with the same wisdom file (%s) for an instant "
              "answer.\n",
              wisdom_path.c_str());
  return 0;
}
