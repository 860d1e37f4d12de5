// Fused-vs-staged execution: the fused cache-resident pipeline must be a
// pure scheduling transformation — same floating-point operations in the
// same order, so the outputs are BITWISE identical, not merely close.
// Any divergence means the fused path reordered or re-associated math.
#include "core/conv_plan.h"

#include <gtest/gtest.h>

#include <cstring>
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

  // kAuto on a CI-sized shape: intermediates fit the L2, stays staged.
  PlanOptions a;
  a.threads = 1;
  a.fusion = FusionMode::kAuto;
  ConvPlan auto_plan(p, a);
  EXPECT_FALSE(auto_plan.fusion_policy().fused);
}

// The kAuto rule against layers measured staged vs fused (one thread,
// interleaved runs), with a 2 MiB per-core L2. Fused wins where V̂ and a
// row block of Û/X̂ stay L2-resident while the staged tensors do not;
// staged wins where V̂ plus a row block overflows the budget (V̂ would
// re-stream once per tile block) or everything already fits.
TEST(FusionPolicyTest, AutoRuleMatchesMeasuredLayers) {
  constexpr i64 kL2 = i64{2} << 20;
  struct Layer {
    const char* name;
    ConvProblem p;
    int threads;
    bool fused;
  };
  const Dims k2{3, 3}, k3{3, 3, 3};
  const Layer layers[] = {
      {"VGG1.2 batch 4", make_problem(4, 64, 64, {56, 56}, k2, {1, 1}, {4, 4}),
       1, true},
      {"rpc conv1 batch 8",
       make_problem(8, 32, 64, {32, 32}, k2, {1, 1}, {4, 4}), 1, true},
      {"rpc conv2 batch 8",
       make_problem(8, 64, 64, {32, 32}, k2, {1, 1}, {4, 4}), 1, true},
      {"unet3d 16->32",
       make_problem(1, 16, 32, {20, 44, 44}, k3, {0, 0, 0}, {2, 4, 4}), 2,
       true},
      {"VGG 3.2", make_problem(2, 256, 256, {14, 14}, k2, {1, 1}, {4, 4}), 1,
       false},
      {"7x7 F(6x6) batch 4",
       make_problem(4, 256, 256, {7, 7}, k2, {1, 1}, {6, 6}), 1, false},
      {"unet3d 32->64",
       make_problem(1, 32, 64, {9, 21, 21}, k3, {0, 0, 0}, {2, 4, 4}), 2,
       false},
      {"ModesResolveAsRequested shape",
       make_problem(1, 16, 16, {10, 10}, k2, {1, 1}, {2, 2}), 1, false},
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
        l.p, b, l.threads, kL2, FusionMode::kAuto, Precision::kFp32);
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
  constexpr i64 kL2 = i64{2} << 20;
  const ConvProblem p =
      make_problem(1, 16, 32, {20, 44, 44}, {3, 3, 3}, {0, 0, 0}, {2, 4, 4});
  PlanOptions o;
  o.threads = 1;
  o.fusion = FusionMode::kFused;
  Blocking b = ConvPlan(p, o).blocking();
  const i64 row_blocks =
      ceil_div(p.tiles_total() * p.shape.batch, static_cast<i64>(b.n_blk));
  FusionPolicy f = ConvPlan::choose_fusion(p, b, 1, kL2, FusionMode::kAuto,
                                           Precision::kFp32);
  ASSERT_TRUE(f.fused);
  EXPECT_EQ(f.f_blk, 1);
  EXPECT_EQ(f.blocks, row_blocks);
  // Fewer tile blocks than threads: some threads would idle, stay staged.
  EXPECT_FALSE(ConvPlan::choose_fusion(p, b, static_cast<int>(row_blocks) + 1,
                                       kL2, FusionMode::kAuto,
                                       Precision::kFp32)
                   .fused);

  b.f_blk = 2;
  f = ConvPlan::choose_fusion(p, b, 1, kL2, FusionMode::kFused,
                              Precision::kFp32);
  EXPECT_EQ(f.f_blk, 2);
  EXPECT_EQ(f.blocks, ceil_div(row_blocks, 2));
  b.f_blk = 100000;
  f = ConvPlan::choose_fusion(p, b, 1, kL2, FusionMode::kFused,
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
