// Benchmark an arbitrary convolutional layer — the equivalent of the
// paper artifact's `do_bench` entry point (Appendix A.7, "Experiment
// customization").
//
//   $ ./example_bench_custom_layer [options]
//     --batch N        batch size                (default 1)
//     --c N / --cp N   input / output channels   (default 64 / 64)
//     --image DxHxW    spatial extents           (default 56x56)
//     --kernel KxKxK   kernel extents            (default 3x3)
//     --pad PxPxP      zero padding              (default 1x1)
//     --m MxMxM        Winograd output tile      (default 4x4)
//     --threads N      0 = hardware              (default 0)
//     --tune           run the blocking search first
//
// Prints ours (training + FX) against the optimized direct baseline.
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "baseline/direct_conv_blocked.h"
#include "ondwin/ondwin.h"
#include "util/rng.h"

using namespace ondwin;

namespace {

Dims parse_dims(const std::string& s) {
  Dims d;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find('x', pos);
    if (next == std::string::npos) next = s.size();
    d.push_back(std::stol(s.substr(pos, next - pos)));
    pos = next + 1;
  }
  return d;
}

double best_of(int reps, const std::function<void()>& fn) {
  fn();
  double best = 1e30;
  for (int i = 0; i < reps; ++i) best = std::min(best, [&] {
    Timer t;
    fn();
    return t.seconds();
  }());
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  ConvProblem p;
  p.shape.batch = 1;
  p.shape.in_channels = 64;
  p.shape.out_channels = 64;
  p.shape.image = {56, 56};
  p.shape.kernel = {3, 3};
  p.shape.padding = {1, 1};
  p.tile_m = {4, 4};
  PlanOptions opts;
  bool tune = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&] { return std::string(argv[++i]); };
    if (a == "--batch") p.shape.batch = std::stol(next());
    else if (a == "--c") p.shape.in_channels = std::stol(next());
    else if (a == "--cp") p.shape.out_channels = std::stol(next());
    else if (a == "--image") p.shape.image = parse_dims(next());
    else if (a == "--kernel") p.shape.kernel = parse_dims(next());
    else if (a == "--pad") p.shape.padding = parse_dims(next());
    else if (a == "--m") p.tile_m = parse_dims(next());
    else if (a == "--threads") opts.threads = std::stoi(next());
    else if (a == "--tune") tune = true;
    else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return 2;
    }
  }
  // Broadcast rank-1 kernel/pad/m specs across the image rank.
  const int rank = p.shape.image.rank();
  for (Dims* d : {&p.shape.kernel, &p.shape.padding, &p.tile_m}) {
    while (d->rank() < rank) d->push_back((*d)[0]);
  }

  try {
    p.validate();
  } catch (const Error& e) {
    std::fprintf(stderr, "invalid layer: %s\n", e.what());
    return 2;
  }

  std::printf("layer: B=%lld C=%lld C'=%lld image=%s kernel=%s pad=%s F%s\n",
              static_cast<long long>(p.shape.batch),
              static_cast<long long>(p.shape.in_channels),
              static_cast<long long>(p.shape.out_channels),
              p.shape.image.to_string().c_str(),
              p.shape.kernel.to_string().c_str(),
              p.shape.padding.to_string().c_str(),
              p.tile_m.to_string().c_str());

  if (tune) {
    std::printf("tuning...\n");
    const TuneResult r = auto_tune(p, opts, 15.0);
    std::printf("  best: n_blk=%d c_blk=%d cp_blk=%d (%.3f ms)\n",
                r.best.n_blk, r.best.c_blk, r.best.cp_blk,
                r.best_seconds * 1e3);
    opts.n_blk = r.best.n_blk;
    opts.c_blk = r.best.c_blk;
    opts.cp_blk = r.best.cp_blk;
  }

  const ImageLayout in_l = p.input_layout();
  const ImageLayout out_l = p.output_layout();
  const KernelLayout k_l = p.kernel_layout();
  AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
  AlignedBuffer<float> out(static_cast<std::size_t>(out_l.total_floats()));
  Rng rng(1);
  for (auto& v : in) v = rng.uniform(-1, 1);
  for (auto& v : w) v = rng.uniform(-0.1f, 0.1f);

  const double dflops = 2.0 * static_cast<double>(p.shape.direct_macs());

  ConvPlan plan(p, opts);
  std::printf("plan: n_blk=%d c_blk=%d cp_blk=%d threads=%d workspace=%.1f MiB\n",
              plan.blocking().n_blk, plan.blocking().c_blk,
              plan.blocking().cp_blk, plan.threads(),
              static_cast<double>(plan.workspace_bytes()) / (1 << 20));

  const double t_train = best_of(3, [&] {
    plan.execute(in.data(), w.data(), out.data());
  });
  plan.set_kernels(w.data());
  const double t_fx = best_of(3, [&] {
    plan.execute_pretransformed(in.data(), out.data());
  });
  DirectConvBlocked direct(p.shape, opts.threads);
  const double t_direct = best_of(3, [&] {
    direct.execute(in.data(), w.data(), out.data());
  });

  const auto& st = plan.last_stats();
  std::printf("\n%-16s %10s %14s\n", "impl", "ms", "GFLOP/s(direct)");
  std::printf("%-16s %10.3f %14.2f\n", "ours", t_train * 1e3,
              dflops / t_train / 1e9);
  std::printf("%-16s %10.3f %14.2f\n", "ours FX", t_fx * 1e3,
              dflops / t_fx / 1e9);
  std::printf("%-16s %10.3f %14.2f\n", "direct", t_direct * 1e3,
              dflops / t_direct / 1e9);
  std::printf(
      "\nstage split (FX run): input %.3f ms | gemm %.3f ms | inverse "
      "%.3f ms\n",
      st.input_transform * 1e3, st.gemm * 1e3, st.inverse_transform * 1e3);
  std::printf("speedup over direct: %.2fx (training), %.2fx (FX)\n",
              t_direct / t_train, t_direct / t_fx);
  return 0;
}
