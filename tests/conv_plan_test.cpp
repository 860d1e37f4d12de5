#include "core/conv_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.h"

namespace ondwin {
namespace {

struct PlanCase {
  ConvProblem problem;
  PlanOptions options;
  double tol = 1e-3;
};

ConvProblem make_problem(i64 b, i64 c, i64 cp, Dims image, Dims kernel,
                         Dims pad, Dims m) {
  ConvProblem p;
  p.shape.batch = b;
  p.shape.in_channels = c;
  p.shape.out_channels = cp;
  p.shape.image = image;
  p.shape.kernel = kernel;
  p.shape.padding = pad;
  p.tile_m = m;
  return p;
}

// Runs the plan on random data and returns the max |plan − naive| over all
// output elements, exercising pack → plan → unpack end to end.
double max_error_vs_naive(const ConvProblem& p, const PlanOptions& opts,
                          u64 seed, int executions = 1) {
  const ImageLayout in_l = p.input_layout();
  const ImageLayout out_l = p.output_layout();
  const KernelLayout k_l = p.kernel_layout();

  Rng rng(seed);
  std::vector<float> in_plain(static_cast<std::size_t>(p.shape.input_floats()));
  std::vector<float> w_plain(
      static_cast<std::size_t>(p.shape.weight_floats()));
  for (auto& v : in_plain) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : w_plain) v = rng.uniform(-0.5f, 0.5f);

  std::vector<float> ref(static_cast<std::size_t>(p.shape.output_floats()));
  naive_conv(p.shape, in_plain.data(), w_plain.data(), ref.data());

  AlignedBuffer<float> in_b(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w_b(static_cast<std::size_t>(k_l.total_floats()));
  AlignedBuffer<float> out_b(static_cast<std::size_t>(out_l.total_floats()));
  pack_image(in_plain.data(), in_b.data(), in_l);
  pack_kernels(w_plain.data(), w_b.data(), k_l);

  ConvPlan plan(p, opts);
  double max_err = 0.0;
  for (int e = 0; e < executions; ++e) {
    out_b.fill_zero();
    if (e == 0) {
      plan.execute(in_b.data(), w_b.data(), out_b.data());
    } else {
      plan.execute_pretransformed(in_b.data(), out_b.data());
    }
    std::vector<float> got(ref.size());
    unpack_image(out_b.data(), got.data(), out_l);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      max_err = std::max(
          max_err, static_cast<double>(std::abs(got[i] - ref[i])));
    }
  }
  return max_err;
}

// --------------------------------------------------------- 2D sweep -------

class ConvPlan2D : public ::testing::TestWithParam<PlanCase> {};

TEST_P(ConvPlan2D, MatchesNaiveConvolution) {
  const auto& c = GetParam();
  EXPECT_LT(max_error_vs_naive(c.problem, c.options, 42), c.tol);
}

PlanOptions threads(int n) {
  PlanOptions o;
  o.threads = n;
  return o;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvPlan2D,
    ::testing::Values(
        // the canonical F(2x2, 3x3) on an even image, no padding
        PlanCase{make_problem(1, 16, 16, {8, 8}, {3, 3}, {0, 0}, {2, 2}),
                 threads(1)},
        // padding = 1 (VGG-style "same")
        PlanCase{make_problem(1, 16, 16, {8, 8}, {3, 3}, {1, 1}, {2, 2}),
                 threads(1)},
        // output not divisible by m: clipped edge tiles
        PlanCase{make_problem(1, 16, 16, {9, 11}, {3, 3}, {1, 1}, {2, 2}),
                 threads(1)},
        // F(4x4, 3x3), multiple channels blocks
        PlanCase{make_problem(2, 32, 32, {12, 12}, {3, 3}, {1, 1}, {4, 4}),
                 threads(1)},
        // F(6x6, 3x3): larger transform, loosen tolerance
        PlanCase{make_problem(1, 16, 32, {14, 14}, {3, 3}, {1, 1}, {6, 6}),
                 threads(1), 2e-2},
        // rectangular tiles F(2x4, 3x3)
        PlanCase{make_problem(1, 16, 16, {10, 12}, {3, 3}, {1, 1}, {2, 4}),
                 threads(1)},
        // non-square kernels F(2x2, 3x5) with asymmetric padding needs
        PlanCase{make_problem(1, 16, 16, {10, 14}, {3, 5}, {1, 2}, {2, 2}),
                 threads(1)},
        // kernel 2x2 (even kernels work too)
        PlanCase{make_problem(1, 16, 16, {8, 8}, {2, 2}, {0, 0}, {3, 3}),
                 threads(1)},
        // multithreaded
        PlanCase{make_problem(2, 32, 32, {12, 12}, {3, 3}, {1, 1}, {4, 4}),
                 threads(4)},
        PlanCase{make_problem(1, 16, 16, {9, 11}, {3, 3}, {1, 1}, {2, 2}),
                 threads(3)},
        // channels larger than one c_blk
        PlanCase{make_problem(1, 48, 48, {8, 8}, {3, 3}, {1, 1}, {2, 2}),
                 threads(2)},
        // batch > 1 with odd tile counts
        PlanCase{make_problem(3, 16, 16, {7, 7}, {3, 3}, {1, 1}, {2, 2}),
                 threads(2)}));

// --------------------------------------------------------- 1D and 3D ------

class ConvPlanNd : public ::testing::TestWithParam<PlanCase> {};

TEST_P(ConvPlanNd, MatchesNaiveConvolution) {
  const auto& c = GetParam();
  EXPECT_LT(max_error_vs_naive(c.problem, c.options, 7), c.tol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvPlanNd,
    ::testing::Values(
        // 1D signals
        PlanCase{make_problem(1, 16, 16, {32}, {3}, {0}, {2}), threads(1)},
        PlanCase{make_problem(2, 16, 16, {33}, {5}, {2}, {4}), threads(2)},
        // 3D volumes (C3D-style)
        PlanCase{make_problem(1, 16, 16, {6, 6, 6}, {3, 3, 3}, {1, 1, 1},
                              {2, 2, 2}),
                 threads(1)},
        PlanCase{make_problem(1, 16, 16, {5, 7, 6}, {3, 3, 3}, {1, 1, 1},
                              {2, 2, 2}),
                 threads(2)},
        // mixed per-dimension tiles F(2x4x4, 3^3) — N-D generality
        PlanCase{make_problem(1, 16, 16, {6, 10, 10}, {3, 3, 3}, {1, 1, 1},
                              {2, 4, 4}),
                 threads(1), 5e-3},
        // 3D with kernel 2 and no padding
        PlanCase{make_problem(1, 16, 16, {6, 6, 6}, {2, 2, 2}, {0, 0, 0},
                              {3, 3, 3}),
                 threads(1)}));

// ------------------------------------------------------- option matrix ----

TEST(ConvPlanOptions, AblationFlagsPreserveCorrectness) {
  const ConvProblem p =
      make_problem(1, 32, 32, {10, 10}, {3, 3}, {1, 1}, {4, 4});
  for (const bool jit : {true, false}) {
    for (const bool stream : {true, false}) {
      for (const bool scatter : {true, false}) {
        for (const bool pairing : {true, false}) {
          PlanOptions o;
          o.threads = 2;
          o.use_jit = jit;
          o.streaming_stores = stream;
          o.scatter_in_gemm = scatter;
          o.codelet_pairing = pairing;
          EXPECT_LT(max_error_vs_naive(p, o, 99), 1e-3)
              << "jit=" << jit << " stream=" << stream
              << " scatter=" << scatter << " pairing=" << pairing;
        }
      }
    }
  }
}

TEST(ConvPlanOptions, JitTransformToggleIsBitIdentical) {
  // JIT-compiled transform codelets must produce the same floats as the
  // interpreting executor, not merely close ones — same op order, same
  // instructions semantically.
  const ConvProblem p =
      make_problem(1, 16, 16, {9, 11}, {3, 3}, {1, 1}, {4, 4});
  const ImageLayout in_l = p.input_layout();
  const ImageLayout out_l = p.output_layout();
  const KernelLayout k_l = p.kernel_layout();
  Rng rng(13);
  AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
  for (auto& v : in) v = rng.uniform(-1, 1);
  for (auto& v : w) v = rng.uniform(-1, 1);

  AlignedBuffer<float> out_jit(
      static_cast<std::size_t>(out_l.total_floats()));
  AlignedBuffer<float> out_interp(out_jit.size());
  for (const bool jit : {false, true}) {
    PlanOptions o;
    o.threads = 2;
    o.jit_transforms = jit;
    ConvPlan plan(p, o);
    plan.execute(in.data(), w.data(),
                 jit ? out_jit.data() : out_interp.data());
  }
  for (std::size_t i = 0; i < out_jit.size(); ++i) {
    ASSERT_EQ(out_jit[i], out_interp[i]) << "element " << i;
  }
}

// The epilogue runs inside the JIT inverse kernel for interior tiles and
// in the staged store for border tiles; with JIT transforms off every
// tile takes the staged store. Both must give the same floats — bias,
// ReLU and the fused max-pool, 1D to 3D, staged and fused execution —
// including −0.0 and NaN lanes.
TEST(ConvPlanOptions, JitEpilogueMatchesInterpreterBitwise) {
  const ConvProblem problems[] = {
      make_problem(1, 16, 16, {34}, {3}, {1}, {4}),
      make_problem(2, 16, 32, {13, 10}, {3, 3}, {1, 1}, {4, 2}),
      make_problem(1, 16, 16, {7, 10, 9}, {3, 3, 3}, {0, 1, 1}, {2, 4, 4})};
  for (const ConvProblem& p : problems) {
    const ImageLayout in_l = p.input_layout();
    const KernelLayout k_l = p.kernel_layout();
    Rng rng(21);
    AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
    AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
    for (auto& v : in) v = rng.uniform(-1, 1);
    for (auto& v : w) v = rng.uniform(-1, 1);
    // One channel lane of the image all −0.0 and one NaN pixel.
    for (std::size_t i = 3; i < in.size(); i += kSimdWidth) in[i] = -0.0f;
    in[5] = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> bias(static_cast<std::size_t>(p.shape.out_channels));
    for (std::size_t c = 0; c < bias.size(); ++c) {
      bias[c] = c % 5 == 0 ? -0.0f : rng.uniform(-0.5f, 0.5f);
    }
    for (const bool with_bias : {false, true}) {
      for (const bool relu : {false, true}) {
        for (const i64 pool : {i64{0}, i64{2}}) {
          Epilogue ep;
          ep.bias = with_bias ? bias.data() : nullptr;
          ep.relu = relu;
          ep.pool_window = pool;
          if (!ep.active()) continue;
          Dims out_sp = p.shape.output();
          for (int d = 0; d < out_sp.rank(); ++d) {
            out_sp[d] /= std::max<i64>(pool, 1);
          }
          const ImageLayout out_l(p.shape.batch, p.shape.out_channels,
                                  out_sp);
          for (const FusionMode mode :
               {FusionMode::kStaged, FusionMode::kFused}) {
            AlignedBuffer<float> outs[2];
            for (const bool jit : {false, true}) {
              PlanOptions o;
              o.threads = 2;
              o.fusion = mode;
              o.jit_transforms = jit;
              ConvPlan plan(p, o);
              AlignedBuffer<float>& out = outs[jit ? 1 : 0];
              out.reset(static_cast<std::size_t>(out_l.total_floats()));
              out.fill_zero();
              plan.execute(in.data(), w.data(), out.data(), ep);
            }
            SCOPED_TRACE("rank " + std::to_string(p.rank()) + " bias " +
                         std::to_string(with_bias) + " relu " +
                         std::to_string(relu) + " pool " +
                         std::to_string(pool) + " fused " +
                         std::to_string(mode == FusionMode::kFused));
            EXPECT_EQ(std::memcmp(outs[0].data(), outs[1].data(),
                                  outs[0].size() * sizeof(float)),
                      0);
          }
        }
      }
    }
  }
}

TEST(ConvPlanOptions, ExplicitBlockingOverrides) {
  const ConvProblem p =
      make_problem(1, 32, 48, {10, 10}, {3, 3}, {1, 1}, {2, 2});
  PlanOptions o;
  o.threads = 2;
  o.n_blk = 7;
  o.c_blk = 16;
  o.cp_blk = 48;
  EXPECT_LT(max_error_vs_naive(p, o, 3), 1e-3);

  ConvPlan plan(p, o);
  EXPECT_EQ(plan.blocking().n_blk, 7);
  EXPECT_EQ(plan.blocking().c_blk, 16);
  EXPECT_EQ(plan.blocking().cp_blk, 48);
}

TEST(ConvPlanOptions, RejectsInvalidBlocking) {
  const ConvProblem p =
      make_problem(1, 32, 32, {10, 10}, {3, 3}, {1, 1}, {2, 2});
  PlanOptions o;
  o.c_blk = 24;  // not a multiple of 16
  EXPECT_THROW(ConvPlan(p, o), Error);
  PlanOptions o2;
  o2.cp_blk = 64;  // does not divide C' = 32
  EXPECT_THROW(ConvPlan(p, o2), Error);
  PlanOptions o3;
  o3.n_blk = 31;
  EXPECT_THROW(ConvPlan(p, o3), Error);
}

TEST(ConvPlan, RejectsInvalidProblems) {
  // C not divisible by 16
  EXPECT_THROW(ConvPlan(make_problem(1, 8, 16, {8, 8}, {3, 3}, {0, 0}, {2, 2})),
               Error);
  // tile too large: m + r - 1 > 16
  EXPECT_THROW(
      ConvPlan(make_problem(1, 16, 16, {32, 32}, {3, 3}, {0, 0}, {15, 15})),
      Error);
  // kernel larger than padded image
  EXPECT_THROW(
      ConvPlan(make_problem(1, 16, 16, {2, 2}, {5, 5}, {0, 0}, {2, 2})),
      Error);
  // rank mismatch
  ConvProblem p = make_problem(1, 16, 16, {8, 8}, {3, 3}, {0, 0}, {2, 2});
  p.tile_m = {2};
  EXPECT_THROW(ConvPlan{p}, Error);
}

// -------------------------------------------------- FX / repeated runs ----

TEST(ConvPlan, PretransformedKernelsGiveIdenticalResults) {
  const ConvProblem p =
      make_problem(2, 16, 16, {9, 9}, {3, 3}, {1, 1}, {2, 2});
  // executions = 3: first via execute(), then twice via the FX path; the
  // helper folds all runs into one max error.
  EXPECT_LT(max_error_vs_naive(p, threads(2), 11, 3), 1e-3);
}

TEST(ConvPlan, PretransformedWithoutKernelsThrows) {
  const ConvProblem p =
      make_problem(1, 16, 16, {8, 8}, {3, 3}, {0, 0}, {2, 2});
  ConvPlan plan(p, threads(1));
  AlignedBuffer<float> in(
      static_cast<std::size_t>(p.input_layout().total_floats()));
  AlignedBuffer<float> out(
      static_cast<std::size_t>(p.output_layout().total_floats()));
  EXPECT_THROW(plan.execute_pretransformed(in.data(), out.data()), Error);
}

TEST(ConvPlan, StatsArePopulated) {
  const ConvProblem p =
      make_problem(1, 16, 16, {8, 8}, {3, 3}, {1, 1}, {2, 2});
  ConvPlan plan(p, threads(1));
  AlignedBuffer<float> in(
      static_cast<std::size_t>(p.input_layout().total_floats()));
  AlignedBuffer<float> w(
      static_cast<std::size_t>(p.kernel_layout().total_floats()));
  AlignedBuffer<float> out(
      static_cast<std::size_t>(p.output_layout().total_floats()));
  plan.execute(in.data(), w.data(), out.data());
  const auto& st = plan.last_stats();
  EXPECT_GT(st.input_transform, 0.0);
  EXPECT_GT(st.kernel_transform, 0.0);
  EXPECT_GT(st.gemm, 0.0);
  EXPECT_GT(st.inverse_transform, 0.0);
  EXPECT_GT(plan.workspace_bytes(), 0);

  // FX mode transforms no kernels, so none is reported and total() is
  // the stages that ran — not the last set_kernels() time on top.
  plan.execute_pretransformed(in.data(), out.data());
  const auto& fx = plan.last_stats();
  EXPECT_EQ(fx.kernel_transform, 0.0);
  EXPECT_DOUBLE_EQ(fx.total(), fx.input_transform + fx.gemm +
                                   fx.scatter_copy + fx.inverse_transform);
}

// --------------------------------------------------- linearity property ----

TEST(ConvPlanProperty, ConvolutionIsLinearInInput) {
  // conv(a·x + y) == a·conv(x) + conv(y) — checked through the full
  // pipeline (transforms, GEMM, inverse) with a fixed kernel bank.
  const ConvProblem p =
      make_problem(1, 16, 16, {8, 8}, {3, 3}, {1, 1}, {4, 4});
  const ImageLayout in_l = p.input_layout();
  const ImageLayout out_l = p.output_layout();
  const KernelLayout k_l = p.kernel_layout();
  Rng rng(123);

  AlignedBuffer<float> x(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> y(x.size()), z(x.size());
  AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
  for (auto& v : x) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : y) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : w) v = rng.uniform(-0.5f, 0.5f);
  const float a = 0.75f;
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = a * x[i] + y[i];

  ConvPlan plan(p, threads(2));
  plan.set_kernels(w.data());
  AlignedBuffer<float> ox(static_cast<std::size_t>(out_l.total_floats()));
  AlignedBuffer<float> oy(ox.size()), oz(ox.size());
  plan.execute_pretransformed(x.data(), ox.data());
  plan.execute_pretransformed(y.data(), oy.data());
  plan.execute_pretransformed(z.data(), oz.data());

  for (std::size_t i = 0; i < oz.size(); ++i) {
    EXPECT_NEAR(oz[i], a * ox[i] + oy[i], 1e-3f);
  }
}

TEST(ConvPlanProperty, ShiftedImpulseShiftsOutput) {
  // A single-pixel impulse through a 3x3 identity-like kernel: moving the
  // impulse by one pixel moves the response by one pixel (within the
  // interior). Catches any tile-origin / padding off-by-one.
  ConvProblem p = make_problem(1, 16, 16, {10, 10}, {3, 3}, {1, 1}, {2, 2});
  const ImageLayout in_l = p.input_layout();
  const ImageLayout out_l = p.output_layout();
  const KernelLayout k_l = p.kernel_layout();

  AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
  // kernel(c'=0, c=0) = delta at center; all other kernels zero
  w[static_cast<std::size_t>(k_l.elem_offset(0, 0, {1, 1}))] = 1.0f;

  ConvPlan plan(p, threads(1));
  plan.set_kernels(w.data());

  for (const i64 pos : {3, 4, 6}) {
    AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
    in[static_cast<std::size_t>(in_l.elem_offset(0, 0, {pos, pos}))] = 2.5f;
    AlignedBuffer<float> out(static_cast<std::size_t>(out_l.total_floats()));
    plan.execute_pretransformed(in.data(), out.data());
    for (i64 y = 0; y < 10; ++y) {
      for (i64 x2 = 0; x2 < 10; ++x2) {
        const float expect = (y == pos && x2 == pos) ? 2.5f : 0.0f;
        EXPECT_NEAR(out[static_cast<std::size_t>(
                        out_l.elem_offset(0, 0, {y, x2}))],
                    expect, 1e-4f)
            << "impulse at " << pos << " response at (" << y << "," << x2
            << ")";
      }
    }
  }
}

}  // namespace
}  // namespace ondwin
