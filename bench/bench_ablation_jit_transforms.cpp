// Ablation: JIT-compiled whole-tile transform kernels versus the
// interpreting executor (this library's runtime equivalent of the paper's
// compile-time templated codelets — see transform/tile_pipeline.h).
//
// Two views: an L1-resident ns-per-tile line per kernel (one tile
// transformed over and over between compact buffers, so the figure is the
// kernel's dispatch and op cost, not memory traffic), then the input +
// inverse stage time of whole layers.
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "ondwin/ondwin.h"
#include "transform/tile_pipeline.h"
#include "util/rng.h"
#include "util/timer.h"
#include "wincnn/cook_toom.h"

using namespace ondwin;

namespace {

// Best-of-5 mean ns per tile of the F(m, 3) input (Bᵀ) or inverse (Aᵀ)
// pipeline over a compact tile.
double ns_per_tile(const std::vector<int>& m, bool inverse, bool jit) {
  const int rank = static_cast<int>(m.size());
  std::vector<TransformProgram> progs;
  for (int x : m) {
    const WinogradMatrices wm = cook_toom(x, 3);
    progs.push_back(build_transform_program(inverse ? wm.AT : wm.BT));
  }
  const TransformProgram* pp[kMaxNd];
  i64 s_in[kMaxNd], s_out[kMaxNd];
  i64 in_n = kSimdWidth, out_n = kSimdWidth;
  int max_extent = 2;
  for (int d = rank - 1; d >= 0; --d) {
    pp[d] = &progs[static_cast<std::size_t>(d)];
    s_in[d] = in_n;
    s_out[d] = out_n;
    in_n *= pp[d]->in_count;
    out_n *= pp[d]->out_count;
    max_extent = std::max(max_extent, pp[d]->in_count);
  }
  AlignedBuffer<float> in(static_cast<std::size_t>(in_n));
  AlignedBuffer<float> out(static_cast<std::size_t>(out_n));
  Rng rng(5);
  for (auto& v : in) v = rng.uniform(-1, 1);
  TransformScratch scratch(max_extent, rank);
  const TilePipeline pipe(pp, rank, s_in, s_out, false, jit);
  constexpr int kReps = 20000;
  double best = 1e30;
  for (int trial = 0; trial < 5; ++trial) {
    Timer t;
    for (int r = 0; r < kReps; ++r) pipe.run(in.data(), out.data(), scratch);
    best = std::min(best, t.seconds() / kReps);
  }
  return best * 1e9;
}

}  // namespace

int main() {
  std::printf("== ablation: JIT transform kernels vs interpreter ==\n\n");

  std::printf("L1-resident ns per tile (F(m,3), one tile, compact buffers)\n");
  std::printf("%-16s %-8s %12s %12s %9s\n", "tile", "stage", "interp ns",
              "jit ns", "speedup");
  const std::pair<const char*, std::vector<int>> tiles[] = {
      {"2D F(4,3)", {4, 4}}, {"3D F(2x4x4,3)", {2, 4, 4}}};
  for (const auto& [label, m] : tiles) {
    for (const bool inverse : {false, true}) {
      const double interp = ns_per_tile(m, inverse, false);
      const double jit = ns_per_tile(m, inverse, true);
      std::printf("%-16s %-8s %12.1f %12.1f %8.2fx\n", label,
                  inverse ? "inverse" : "input", interp, jit, interp / jit);
    }
  }
  std::printf("\n");

  struct Case {
    const char* label;
    ConvProblem p;
  };
  std::vector<Case> cases;
  {
    ConvProblem p;
    p.shape.batch = 1;
    p.shape.in_channels = 64;
    p.shape.out_channels = 64;
    p.shape.image = {96, 96};
    p.shape.kernel = {3, 3};
    p.shape.padding = {1, 1};
    p.tile_m = {4, 4};
    cases.push_back({"2D F(4,3) 96x96x64", p});
    p.tile_m = {6, 6};
    cases.push_back({"2D F(6,3) 96x96x64", p});
  }
  {
    ConvProblem p;
    p.shape.batch = 1;
    p.shape.in_channels = 32;
    p.shape.out_channels = 32;
    p.shape.image = {18, 20, 20};
    p.shape.kernel = {3, 3, 3};
    p.shape.padding = {1, 1, 1};
    p.tile_m = {2, 2, 2};
    cases.push_back({"3D F(2,3) 18x20x20x32", p});
  }

  std::printf("%-24s %14s %14s %10s\n", "layer", "interp xf ms",
              "jit xf ms", "speedup");
  Rng rng(8);
  for (const Case& c : cases) {
    const ImageLayout in_l = c.p.input_layout();
    const KernelLayout k_l = c.p.kernel_layout();
    const ImageLayout out_l = c.p.output_layout();
    AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
    AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
    AlignedBuffer<float> out(static_cast<std::size_t>(out_l.total_floats()));
    for (auto& v : in) v = rng.uniform(-1, 1);
    for (auto& v : w) v = rng.uniform(-1, 1);

    double xf[2] = {0, 0};
    for (const bool jit : {false, true}) {
      PlanOptions o;
      o.jit_transforms = jit;
      ConvPlan plan(c.p, o);
      plan.set_kernels(w.data());
      double best = 1e30;
      for (int rep = 0; rep < 6; ++rep) {
        plan.execute_pretransformed(in.data(), out.data());
        best = std::min(best, plan.last_stats().input_transform +
                                  plan.last_stats().inverse_transform);
      }
      xf[jit ? 1 : 0] = best;
    }
    std::printf("%-24s %14.3f %14.3f %9.2fx\n", c.label, xf[0] * 1e3,
                xf[1] * 1e3, xf[0] / xf[1]);
  }
  return 0;
}
