// Ablation E6 (paper §4.2.1 / §6): non-temporal streaming stores for
// transform outputs. The paper reports ~25% faster transform stages on
// KNL; the saving comes from skipping the read-for-ownership and keeping
// caches unpolluted, so the margin depends on cache sizes and bandwidth.
#include <cstdio>

#include "ondwin/ondwin.h"
#include "util/rng.h"

using namespace ondwin;

int main() {
  std::printf("== E6: streaming stores for transform outputs ==\n\n");

  // Large-ish activations so transform outputs exceed cache.
  ConvProblem p;
  p.shape.batch = 1;
  p.shape.in_channels = 64;
  p.shape.out_channels = 64;
  p.shape.image = {128, 128};
  p.shape.kernel = {3, 3};
  p.shape.padding = {1, 1};
  p.tile_m = {4, 4};

  const ImageLayout in_l = p.input_layout();
  const KernelLayout k_l = p.kernel_layout();
  const ImageLayout out_l = p.output_layout();
  AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
  AlignedBuffer<float> out(static_cast<std::size_t>(out_l.total_floats()));
  Rng rng(4);
  for (auto& v : in) v = rng.uniform(-1, 1);
  for (auto& v : w) v = rng.uniform(-1, 1);

  std::printf("%-14s %14s %14s %14s %12s\n", "streaming", "input xf ms",
              "inverse xf ms", "total ms", "xf speedup");
  double base_xf = 0;
  for (const bool streaming : {false, true}) {
    PlanOptions o;
    o.streaming_stores = streaming;
    // Streaming stores are a staged-pipeline mechanism: fused plans keep
    // their block scratch cacheable, and kAuto fuses this shape.
    o.fusion = FusionMode::kStaged;
    ConvPlan plan(p, o);
    plan.set_kernels(w.data());
    double bi = 1e30, bo = 1e30, bt = 1e30;
    for (int rep = 0; rep < 6; ++rep) {
      plan.execute_pretransformed(in.data(), out.data());
      const auto& st = plan.last_stats();
      bi = std::min(bi, st.input_transform);
      bo = std::min(bo, st.inverse_transform);
      bt = std::min(bt, st.total());
    }
    const double xf = bi + bo;
    if (!streaming) base_xf = xf;
    std::printf("%-14s %14.3f %14.3f %14.3f %11.2fx\n",
                streaming ? "on" : "off", bi * 1e3, bo * 1e3, bt * 1e3,
                base_xf / xf);
  }
  return 0;
}
