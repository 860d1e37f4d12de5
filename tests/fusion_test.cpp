// Fused-vs-staged execution: the fused cache-resident pipeline must be a
// pure scheduling transformation — same floating-point operations in the
// same order, so the outputs are BITWISE identical, not merely close.
// Any divergence means the fused path reordered or re-associated math.
#include "core/conv_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "select/select.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ondwin {
namespace {

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

// Runs the same convolution through a staged and a fused plan and asserts
// the blocked outputs match bit for bit.
void expect_bitwise_identical(const ConvProblem& p, PlanOptions opts,
                              u64 seed, bool with_epilogue = false) {
  const ImageLayout in_l = p.input_layout();
  const ImageLayout out_l = p.output_layout();
  const KernelLayout k_l = p.kernel_layout();

  Rng rng(seed);
  AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
  for (auto& v : in) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : w) v = rng.uniform(-1.0f, 1.0f);

  std::vector<float> bias(static_cast<std::size_t>(p.shape.out_channels));
  for (auto& v : bias) v = rng.uniform(-0.5f, 0.5f);
  Epilogue ep;
  if (with_epilogue) {
    ep.bias = bias.data();
    ep.relu = true;
  }

  AlignedBuffer<float> out_staged(
      static_cast<std::size_t>(out_l.total_floats()));
  AlignedBuffer<float> out_fused(out_staged.size());
  out_staged.fill_zero();
  out_fused.fill_zero();

  opts.fusion = FusionMode::kStaged;
  ConvPlan staged(p, opts);
  ASSERT_FALSE(staged.fusion_policy().fused);
  staged.execute(in.data(), w.data(), out_staged.data(), ep);

  opts.fusion = FusionMode::kFused;
  ConvPlan fused(p, opts);
  ASSERT_TRUE(fused.fusion_policy().fused);
  ASSERT_GE(fused.fusion_policy().f_blk, 1);
  ASSERT_GE(fused.fusion_policy().blocks, 1);
  fused.execute(in.data(), w.data(), out_fused.data(), ep);

  if (std::memcmp(out_staged.data(), out_fused.data(),
                  out_staged.size() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < out_staged.size(); ++i) {
    ASSERT_EQ(out_staged[i], out_fused[i])
        << "first divergence at blocked output element " << i;
  }
}

struct FusionCase {
  ConvProblem problem;
  int threads;
};

class FusionIdentity : public ::testing::TestWithParam<FusionCase> {};

TEST_P(FusionIdentity, FusedMatchesStagedBitwise) {
  const auto& c = GetParam();
  PlanOptions o;
  o.threads = c.threads;
  expect_bitwise_identical(c.problem, o, 42);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusionIdentity,
    ::testing::Values(
        // 2D, interior-only tiles
        FusionCase{make_problem(1, 16, 16, {8, 8}, {3, 3}, {0, 0}, {2, 2}),
                   1},
        // 2D with clipped border tiles and padding
        FusionCase{make_problem(1, 16, 16, {9, 11}, {3, 3}, {1, 1}, {2, 2}),
                   2},
        // odd channel counts (c_blk = cp_blk = 48: one block, not 16-pow2)
        FusionCase{make_problem(1, 48, 48, {10, 10}, {3, 3}, {1, 1}, {2, 2}),
                   2},
        // multiple channel blocks (kb > 1) with F(4x4)
        FusionCase{make_problem(2, 32, 32, {12, 12}, {3, 3}, {1, 1}, {4, 4}),
                   3},
        // large transform F(6x6), C != C'
        FusionCase{make_problem(1, 16, 32, {14, 14}, {3, 3}, {1, 1}, {6, 6}),
                   2},
        // batch > 1 with odd tile counts (padded row-block tail)
        FusionCase{make_problem(3, 16, 16, {7, 7}, {3, 3}, {1, 1}, {2, 2}),
                   4},
        // 1D signals
        FusionCase{make_problem(1, 16, 16, {32}, {3}, {0}, {2}), 2},
        FusionCase{make_problem(2, 16, 16, {33}, {5}, {2}, {4}), 2},
        // 3D volumes, interior and clipped
        FusionCase{make_problem(1, 16, 16, {6, 6, 6}, {3, 3, 3}, {1, 1, 1},
                                {2, 2, 2}),
                   2},
        FusionCase{make_problem(1, 16, 16, {5, 7, 6}, {3, 3, 3}, {1, 1, 1},
                                {2, 2, 2}),
                   3}));

// Every Winograd tile the selection planner can emit must survive fusion
// bit-for-bit (the selector may hand any of these to a fused plan).
TEST(FusionIdentity, AllSelectableTilesMatchBitwise) {
  ConvShape shape;
  shape.batch = 1;
  shape.in_channels = 16;
  shape.out_channels = 16;
  shape.image = {18, 18};
  shape.kernel = {3, 3};
  shape.padding = {1, 1};

  select::SelectOptions sopts;
  sopts.allow_direct = false;
  sopts.allow_fft = false;
  int winograd_tiles = 0;
  for (const auto& cand : select::enumerate_candidates(shape, sopts)) {
    if (cand.algorithm != select::Algorithm::kWinograd) continue;
    ++winograd_tiles;
    ConvProblem p;
    p.shape = shape;
    p.tile_m = cand.tile_m;
    PlanOptions o;
    o.threads = 2;
    SCOPED_TRACE("tile_m=" + cand.tile_m.to_string());
    expect_bitwise_identical(p, o, 7);
  }
  EXPECT_GT(winograd_tiles, 1);
}

// The epilogue (bias + ReLU) runs inside the inverse transform in both
// modes and must not perturb identity.
TEST(FusionIdentity, EpilogueMatchesBitwise) {
  const ConvProblem p =
      make_problem(2, 32, 32, {11, 13}, {3, 3}, {1, 1}, {4, 4});
  PlanOptions o;
  o.threads = 2;
  expect_bitwise_identical(p, o, 3, /*with_epilogue=*/true);
}

// Option matrix: the fused path must hold identity whether the scatter
// happens inside the GEMM kernel or in the fallback reshape, and with the
// JIT kernels or the portable reference.
TEST(FusionIdentity, OptionMatrixMatchesBitwise) {
  const ConvProblem p =
      make_problem(1, 32, 32, {10, 10}, {3, 3}, {1, 1}, {4, 4});
  for (const bool jit : {true, false}) {
    for (const bool scatter : {true, false}) {
      PlanOptions o;
      o.threads = 2;
      o.use_jit = jit;
      o.scatter_in_gemm = scatter;
      SCOPED_TRACE(std::string("jit=") + (jit ? "1" : "0") +
                   " scatter=" + (scatter ? "1" : "0"));
      expect_bitwise_identical(p, o, 99);
    }
  }
}

// Explicit fuse_blk overrides, including one past the grid size (clamped).
TEST(FusionIdentity, ExplicitBlockSizesMatchBitwise) {
  const ConvProblem p =
      make_problem(2, 16, 16, {13, 13}, {3, 3}, {1, 1}, {2, 2});
  for (const int fb : {1, 2, 1000}) {
    PlanOptions o;
    o.threads = 2;
    o.fuse_blk = fb;
    SCOPED_TRACE("fuse_blk=" + std::to_string(fb));
    expect_bitwise_identical(p, o, 17);
  }
}

// ------------------------------------------------------ partial batches --

// A plan compiled for B samples runs any n ≤ B of them, staged and fused:
// sample i of every n-sample run is bitwise equal to a batch-1 plan's
// output. 30 tiles per sample: with n_blk 8 only n = 4 fills whole row
// blocks (n·30 = 120), with n_blk 30 every n does. n runs from B down, so
// the smaller runs find an earlier run's rows in the padded tail of their
// last row block.
TEST(FusionPartialBatch, AnyBatchUpToCompiledMatchesBatchOneBitwise) {
  constexpr i64 kB = 4;
  const ConvProblem p1 =
      make_problem(1, 16, 32, {9, 11}, {3, 3}, {1, 1}, {2, 2});
  ConvProblem pb = p1;
  pb.shape.batch = kB;
  ASSERT_EQ(p1.tiles_total(), 30);

  Rng rng(0xBA7C);
  AlignedBuffer<float> in(
      static_cast<std::size_t>(pb.input_layout().total_floats()));
  AlignedBuffer<float> w(
      static_cast<std::size_t>(pb.kernel_layout().total_floats()));
  std::vector<float> bias(32);
  for (auto& v : in) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : w) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : bias) v = rng.uniform(-0.5f, 0.5f);
  Epilogue ep;
  ep.bias = bias.data();
  ep.relu = true;
  const std::size_t sin = in.size() / kB;
  const auto sout =
      static_cast<std::size_t>(p1.output_layout().total_floats());

  PlanOptions o;
  o.threads = 2;
  o.fusion = FusionMode::kStaged;
  ConvPlan one(p1, o);
  one.set_kernels(w.data());
  std::vector<float> expected(kB * sout);
  for (std::size_t i = 0; i < kB; ++i) {
    one.execute_pretransformed(in.data() + i * sin,
                               expected.data() + i * sout, ep);
  }

  for (const FusionMode mode : {FusionMode::kStaged, FusionMode::kFused}) {
    for (const int n_blk : {8, 30}) {
      SCOPED_TRACE(std::string(mode == FusionMode::kFused ? "fused" : "staged") +
                   " n_blk " + std::to_string(n_blk));
      o.fusion = mode;
      o.n_blk = n_blk;
      ConvPlan plan(pb, o);
      ASSERT_EQ(plan.fusion_policy().fused, mode == FusionMode::kFused);
      ASSERT_EQ(plan.blocking().n_blk, n_blk);
      plan.set_kernels(w.data());
      for (i64 n = kB; n >= 1; --n) {
        std::vector<float> out(kB * sout, -7.0f);
        plan.execute_pretransformed(in.data(), out.data(), ep, n);
        const std::size_t valid = static_cast<std::size_t>(n) * sout;
        EXPECT_EQ(std::memcmp(out.data(), expected.data(),
                              valid * sizeof(float)),
                  0)
            << "n = " << n;
        EXPECT_EQ(std::count(out.begin() + static_cast<std::ptrdiff_t>(valid),
                             out.end(), -7.0f),
                  static_cast<std::ptrdiff_t>(out.size() - valid))
            << "samples past n = " << n << " written";
        // The transformed-tensor traffic covers the n-sample row blocks.
        EXPECT_EQ(plan.last_stats().u_bytes,
                  ceil_div(n * 30, static_cast<i64>(n_blk)) * n_blk * 16 *
                      16 * static_cast<i64>(sizeof(float)));
      }
      EXPECT_THROW(plan.execute_pretransformed(in.data(), expected.data(), ep,
                                               kB + 1),
                   Error);
    }
  }
}

// ----------------------------------------------------- policy resolution --

TEST(FusionPolicyTest, ModesResolveAsRequested) {
  const ConvProblem p =
      make_problem(1, 16, 16, {10, 10}, {3, 3}, {1, 1}, {2, 2});

  PlanOptions o;
  o.threads = 1;
  o.fusion = FusionMode::kStaged;
  ConvPlan staged(p, o);
  EXPECT_FALSE(staged.fusion_policy().fused);
  EXPECT_EQ(staged.fusion_policy().scratch_floats, 0);
  EXPECT_EQ(staged.fusion_policy().blocks, 0);

  // Override needs a grid with several row blocks; {26,26} has 169 tiles.
  const ConvProblem big =
      make_problem(1, 16, 16, {26, 26}, {3, 3}, {1, 1}, {2, 2});
  o.fusion = FusionMode::kFused;
  o.fuse_blk = 3;
  ConvPlan fused(big, o);
  EXPECT_TRUE(fused.fusion_policy().fused);
  EXPECT_EQ(fused.fusion_policy().f_blk, 3);
  EXPECT_GT(fused.fusion_policy().scratch_floats, 0);

  // kAuto on a CI-sized shape: one row block for one thread, fused
  // (measured 0.024 ms staged vs 0.009 ms fused, fused faster in 21 of 21
  // interleaved rounds).
  PlanOptions a;
  a.threads = 1;
  a.fusion = FusionMode::kAuto;
  ConvPlan auto_plan(p, a);
  EXPECT_TRUE(auto_plan.fusion_policy().fused);
}

// The kAuto rule against layers measured staged vs fused: one ConvPlan per
// mode, 21 interleaved rounds at the layer's batch and thread count (15
// in a second run, second figure after a semicolon), on a 4-vCPU AVX-512
// host (medians staged → fused, and the rounds fused won). Every
// expectation is the measured winner; a tie keeps the rule's pick. The
// rule fuses when one sample fills a row block per thread and V̂ is
// under six row blocks' Û+X̂ (R below: V̂ / one row block's Û+X̂).
TEST(FusionPolicyTest, AutoRuleMatchesMeasuredLayers) {
  struct Layer {
    const char* name;
    ConvProblem p;
    int threads;
    bool fused;
  };
  const Dims k2{3, 3}, k3{3, 3, 3};
  const Layer layers[] = {
      // R 1.1: 6.31 → 4.22 ms, 21/21; 5.53 → 3.43, 15/15
      {"VGG1.2 batch 4", make_problem(4, 64, 64, {56, 56}, k2, {1, 1}, {4, 4}),
       1, true},
      // 2.15 → 1.27 ms, 21/21; 2.25 → 1.27, 15/15
      {"rpc conv1 batch 8",
       make_problem(8, 32, 64, {32, 32}, k2, {1, 1}, {4, 4}), 1, true},
      // 3.46 → 2.35 ms, 21/21; 3.53 → 2.33, 15/15
      {"rpc conv2 batch 8",
       make_problem(8, 64, 64, {32, 32}, k2, {1, 1}, {4, 4}), 1, true},
      // 4.92 → 2.42 ms, 21/21; 4.74 → 2.61, 15/15
      {"unet3d 16->32",
       make_problem(1, 16, 32, {20, 44, 44}, k3, {0, 0, 0}, {2, 4, 4}), 2,
       true},
      // R 8: 2.25 → 2.23 ms, 12/21; 2.73 → 2.75, 7/15: a tie
      {"VGG 3.2", make_problem(2, 256, 256, {14, 14}, k2, {1, 1}, {4, 4}), 1,
       false},
      // R 8: 2.26 → 2.71 ms, 3/21; 2.44 → 2.94, 0/15: staged wins
      {"7x7 F(6x6) batch 4",
       make_problem(4, 256, 256, {7, 7}, k2, {1, 1}, {6, 6}), 1, false},
      // 1.12 → 1.01 ms, 17/21; 1.24 → 1.01, 14/15
      {"unet3d 32->64",
       make_problem(1, 32, 64, {9, 21, 21}, k3, {0, 0, 0}, {2, 4, 4}), 2,
       true},
      // 0.024 → 0.009 ms, 21/21; 0.021 → 0.007, 15/15
      {"ModesResolveAsRequested shape",
       make_problem(1, 16, 16, {10, 10}, k2, {1, 1}, {2, 2}), 1, true},
      // R 4: 0.45 → 0.32 ms, 19/21; 0.37 → 0.24, 15/15: the rpc net's
      // last layer at batch 1
      {"rpc conv4 batch 1",
       make_problem(1, 128, 128, {16, 16}, k2, {1, 1}, {4, 4}), 1, true},
      // R 5.3: 2.36 → 2.16 ms, 17/21; 2.70 → 2.51, 11/15
      {"VGG 128->256 @14 batch 4",
       make_problem(4, 128, 256, {14, 14}, k2, {1, 1}, {4, 4}), 1, true},
      // One row block, two threads: one would idle, stays staged.
      {"ModesResolveAsRequested shape, 2 threads",
       make_problem(1, 16, 16, {10, 10}, k2, {1, 1}, {2, 2}), 2, false},
      // Compiled for 8 samples at 4 threads, one row block per sample: a
      // lone sample runs 0.154 ms staged vs 0.315 fused (0/15). The full
      // batch would fuse faster (0.97 → 0.75 ms, 13/15); a served plan
      // runs both, and the lone request is the latency path.
      {"rpc conv4 batch 8, 4 threads",
       make_problem(8, 128, 128, {16, 16}, k2, {1, 1}, {4, 4}), 4, false},
  };
  for (const Layer& l : layers) {
    SCOPED_TRACE(l.name);
    // The heuristic blocking a plan resolves (a fused plan allocates no
    // full-size intermediates, so probing it is cheap).
    PlanOptions o;
    o.threads = 1;
    o.fusion = FusionMode::kFused;
    const Blocking b = ConvPlan(l.p, o).blocking();
    const FusionPolicy f = ConvPlan::choose_fusion(
        l.p, b, l.threads, FusionMode::kAuto, Precision::kFp32);
    EXPECT_EQ(f.fused, l.fused);
    if (f.fused) {
      EXPECT_GE(f.blocks, l.threads);
      EXPECT_GT(f.scratch_floats, 0);
    } else {
      EXPECT_EQ(f.blocks, 0);
    }
  }
}

// A tile block is one row block unless f_blk is pinned
// (PlanOptions::fuse_blk / wisdom), and a pinned f_blk is clamped to the
// grid.
TEST(FusionPolicyTest, BlockSizeDefaultsToOneRowBlock) {
  const ConvProblem p =
      make_problem(1, 16, 32, {20, 44, 44}, {3, 3, 3}, {0, 0, 0}, {2, 4, 4});
  PlanOptions o;
  o.threads = 1;
  o.fusion = FusionMode::kFused;
  Blocking b = ConvPlan(p, o).blocking();
  const i64 row_blocks =
      ceil_div(p.tiles_total() * p.shape.batch, static_cast<i64>(b.n_blk));
  FusionPolicy f = ConvPlan::choose_fusion(p, b, 1, FusionMode::kAuto,
                                           Precision::kFp32);
  ASSERT_TRUE(f.fused);
  EXPECT_EQ(f.f_blk, 1);
  EXPECT_EQ(f.blocks, row_blocks);
  // Fewer tile blocks than threads: some threads would idle, stay staged.
  EXPECT_FALSE(ConvPlan::choose_fusion(p, b, static_cast<int>(row_blocks) + 1,
                                       FusionMode::kAuto, Precision::kFp32)
                   .fused);

  b.f_blk = 2;
  f = ConvPlan::choose_fusion(p, b, 1, FusionMode::kFused,
                              Precision::kFp32);
  EXPECT_EQ(f.f_blk, 2);
  EXPECT_EQ(f.blocks, ceil_div(row_blocks, 2));
  b.f_blk = 100000;
  f = ConvPlan::choose_fusion(p, b, 1, FusionMode::kFused,
                              Precision::kFp32);
  EXPECT_EQ(f.f_blk, row_blocks);
  EXPECT_EQ(f.blocks, 1);
}

// Fused plans drop the full-tensor intermediates: for a grid with many
// more tile blocks than fit one fused block, the per-thread scratch is
// strictly smaller than the staged I + I' buffers.
TEST(FusionPolicyTest, FusedWorkspaceIsSmaller) {
  const ConvProblem p =
      make_problem(1, 32, 32, {126, 126}, {3, 3}, {1, 1}, {2, 2});
  PlanOptions o;
  o.threads = 2;
  o.fusion = FusionMode::kStaged;
  ConvPlan staged(p, o);
  o.fusion = FusionMode::kFused;
  ConvPlan fused(p, o);
  EXPECT_GT(fused.fusion_policy().blocks, 1);
  EXPECT_LT(fused.workspace_bytes(), staged.workspace_bytes());
}

// ------------------------------------------------------ stage accounting --

// Under fusion the per-stage seconds come from thread-local accumulators;
// their sum must track the execute wall time (no double counting, no
// missing stage). Staged timing already holds this by construction.
TEST(FusionStats, StageTimesSumToWallTime) {
  const ConvProblem p =
      make_problem(2, 32, 32, {64, 64}, {3, 3}, {1, 1}, {4, 4});
  PlanOptions o;
  o.threads = 1;  // single participant: accumulators ≈ wall, tight bound
  o.fusion = FusionMode::kFused;
  ConvPlan plan(p, o);

  const ImageLayout in_l = p.input_layout();
  const ImageLayout out_l = p.output_layout();
  const KernelLayout k_l = p.kernel_layout();
  Rng rng(5);
  AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
  AlignedBuffer<float> out(static_cast<std::size_t>(out_l.total_floats()));
  for (auto& v : in) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : w) v = rng.uniform(-1.0f, 1.0f);

  plan.set_kernels(w.data());
  plan.execute_pretransformed(in.data(), out.data());  // warm-up

  Timer t;
  plan.execute_pretransformed(in.data(), out.data());
  const double wall = t.seconds();

  const ConvPlanStats& st = plan.last_stats();
  EXPECT_TRUE(st.fused);
  EXPECT_GT(st.input_transform, 0.0);
  EXPECT_GT(st.gemm, 0.0);
  EXPECT_GT(st.inverse_transform, 0.0);
  EXPECT_EQ(st.scatter_copy, 0.0);

  const double stage_sum =
      st.input_transform + st.gemm + st.inverse_transform;
  EXPECT_GT(stage_sum, 0.3 * wall);
  EXPECT_LT(stage_sum, 1.15 * wall);

  // Balance figures ride along with the same accumulators.
  EXPECT_GE(st.input_balance.imbalance(), 1.0);
  EXPECT_GE(st.gemm_balance.imbalance(), 1.0);
  EXPECT_GE(st.inverse_balance.imbalance(), 1.0);
}

TEST(FusionStats, StagedRunsReportStagedAccounting) {
  const ConvProblem p =
      make_problem(1, 16, 16, {8, 8}, {3, 3}, {1, 1}, {2, 2});
  PlanOptions o;
  o.threads = 1;
  o.fusion = FusionMode::kStaged;
  ConvPlan plan(p, o);
  AlignedBuffer<float> in(
      static_cast<std::size_t>(p.input_layout().total_floats()));
  AlignedBuffer<float> w(
      static_cast<std::size_t>(p.kernel_layout().total_floats()));
  AlignedBuffer<float> out(
      static_cast<std::size_t>(p.output_layout().total_floats()));
  plan.execute(in.data(), w.data(), out.data());
  EXPECT_FALSE(plan.last_stats().fused);
}

}  // namespace
}  // namespace ondwin
