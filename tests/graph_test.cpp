// ondwin::graph coverage: IR construction, fusion legality, the buffer
// lifetime planner, and the execution contracts: fused graphs are bitwise
// identical to unfused ones under both staged and fused tile-block
// Winograd, 2D and 3D, and every executor output matches the naive
// reference (tests/graph_reference.h) — for Winograd, FFT and direct conv
// nodes alike, standalone and through the serving tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "graph/executor.h"
#include "graph/fusion.h"
#include "graph/ir.h"
#include "graph/memory_planner.h"
#include "graph/ops.h"
#include "graph_reference.h"
#include "net/sequential.h"
#include "serve/server.h"
#include "util/rng.h"

namespace ondwin {
namespace {

using graph::CompileOptions;
using graph::Executor;
using graph::FusionPlan;
using graph::Graph;
using graph::MemoryPlan;
using graph::OpKind;
using graph::Step;
using graph::ValueId;
using oracle::kGraphTolerance;
using oracle::reference_forward;
using oracle::rel_l2_error;

PlanOptions one_thread() {
  PlanOptions o;
  o.threads = 1;
  return o;
}

PlanOptions two_threads(FusionMode mode = FusionMode::kAuto) {
  PlanOptions o;
  o.threads = 2;
  o.fusion = mode;
  return o;
}

void fill_random(AlignedBuffer<float>& buf, std::size_t n, u64 seed) {
  buf.reset(n);
  Rng rng(seed);
  for (auto& v : buf) v = rng.uniform(-0.5f, 0.5f);
}

/// Gives conv layer `layer` random He-scaled weights and a nonzero bias
/// (randomize_weights() leaves biases at zero, so a dropped bias would
/// go unnoticed).
void randomize_layer(Sequential& net, int layer, i64 cin, i64 cout,
                     i64 taps, Rng& rng) {
  std::vector<float> w(static_cast<std::size_t>(cin * cout * taps));
  std::vector<float> b(static_cast<std::size_t>(cout));
  const float stddev = std::sqrt(2.0f / static_cast<float>(cin * taps));
  for (auto& v : w) v = rng.gaussian(0.0f, stddev);
  for (auto& v : b) v = rng.uniform(-0.2f, 0.2f);
  net.set_conv_weights(layer, w.data(), b.data());
}

/// A small VGG-flavored 2D stack: conv+relu pairs with pool-foldable and
/// pool-unfoldable windows mixed in.
std::unique_ptr<Sequential> vgg_ish(const PlanOptions& opts) {
  auto net = std::make_unique<Sequential>(2, 16, Dims{16, 16}, opts);
  Rng rng(0xBEEF);
  randomize_layer(*net, net->add_conv(32, {3, 3}, {1, 1}, {4, 4}), 16, 32,
                  9, rng);
  randomize_layer(*net, net->add_conv(32, {3, 3}, {1, 1}, {4, 4}), 32, 32,
                  9, rng);
  net->add_max_pool(2);  // foldable: 4 % 2 == 0
  randomize_layer(*net, net->add_conv(64, {3, 3}, {1, 1}, {3, 3}), 32, 64,
                  9, rng);
  net->add_max_pool(2);  // NOT foldable: 3 % 2 != 0 — stays standalone
  randomize_layer(*net,
                  net->add_conv(64, {3, 3}, {1, 1}, {2, 2}, /*relu=*/false),
                  64, 64, 9, rng);
  return net;
}

/// A C3D-flavored 3D stack (video-style volumetric convs + 3D pool).
std::unique_ptr<Sequential> c3d_ish(const PlanOptions& opts) {
  auto net = std::make_unique<Sequential>(1, 16, Dims{8, 12, 12}, opts);
  Rng rng(0xC3D);
  randomize_layer(*net, net->add_conv(32, {3, 3, 3}, {1, 1, 1}, {2, 2, 2}),
                  16, 32, 27, rng);
  net->add_max_pool(2);  // foldable in all three dimensions
  randomize_layer(*net, net->add_conv(32, {3, 3, 3}, {1, 1, 1}, {2, 2, 2}),
                  32, 32, 27, rng);
  return net;
}

/// Compiles `net` fused and unfused under `plan` and checks, over two
/// inputs (the second catches state leaking between execute() calls),
/// that the two agree bitwise and that both match the naive reference.
void expect_fused_matches_unfused_and_reference(const Sequential& net,
                                                const PlanOptions& plan) {
  CompileOptions fused;
  fused.plan = plan;
  CompileOptions unfused = fused;
  unfused.fusion = false;
  const Graph oracle = net.to_graph();
  Executor a(net.to_graph(), fused);
  Executor b(net.to_graph(), unfused);
  ASSERT_EQ(a.input_layout().total_floats(),
            net.input_layout().total_floats());
  ASSERT_EQ(a.output_layout().total_floats(),
            net.output_layout().total_floats());
  EXPECT_GT(a.fusion().folded_nodes, 0);
  EXPECT_EQ(b.fusion().folded_nodes, 0);
  EXPECT_LT(a.step_count(), b.step_count());

  const std::size_t sin =
      static_cast<std::size_t>(net.input_layout().total_floats());
  const std::size_t sout =
      static_cast<std::size_t>(net.output_layout().total_floats());
  AlignedBuffer<float> in, ya(sout), yb(sout);
  for (u64 round = 0; round < 2; ++round) {
    fill_random(in, sin, 0x5EED + round);
    a.execute(in.data(), ya.data());
    b.execute(in.data(), yb.data());
    ASSERT_EQ(std::memcmp(ya.data(), yb.data(), sout * sizeof(float)), 0)
        << "round " << round << "\n"
        << a.summary();
    const std::vector<float> want = reference_forward(oracle, in.data());
    EXPECT_LE(rel_l2_error(ya.data(), want.data(), sout), kGraphTolerance)
        << "round " << round;
  }
}

// ----------------------------------------------------------------- IR

TEST(GraphIr, BuildsShapesAndUsers) {
  Graph g(2, 16, {16, 16});
  ValueId v = g.conv(g.input(), 32, {3, 3}, {1, 1}, {4, 4});
  EXPECT_EQ(g.layout(v).channels, 32);
  EXPECT_EQ(g.layout(v).spatial, (Dims{16, 16}));
  v = g.relu(v);
  v = g.max_pool(v, 2);
  EXPECT_EQ(g.layout(v).spatial, (Dims{8, 8}));
  g.mark_output(v);
  EXPECT_EQ(g.output(), v);
  EXPECT_EQ(g.nodes().size(), 3u);
  EXPECT_EQ(g.values().size(), 4u);  // input + three op outputs
  // The conv's output has exactly one user (the relu).
  EXPECT_EQ(g.value(1).users.size(), 1u);
  EXPECT_EQ(g.value(g.input()).def, -1);
  EXPECT_FALSE(g.summary().empty());
}

TEST(GraphIr, MaxPoolFloorSemantics) {
  Graph g(1, 16, {9, 9});
  ValueId v = g.max_pool(g.input(), 2);
  EXPECT_EQ(g.layout(v).spatial, (Dims{4, 4}));  // trailing row dropped
}

TEST(GraphIr, EltwiseAddRequiresMatchingLayouts) {
  Graph g(1, 16, {8, 8});
  ValueId a = g.conv(g.input(), 16, {3, 3}, {1, 1}, {2, 2});
  ValueId b = g.conv(g.input(), 16, {3, 3}, {1, 1}, {2, 2});
  ValueId sum = g.eltwise_add(a, b);
  EXPECT_EQ(g.layout(sum).channels, 16);
  EXPECT_EQ(g.value(g.input()).users.size(), 2u);
}

// -------------------------------------------------------------- fusion

TEST(GraphFusion, FoldsBiasReluPoolChain) {
  Graph g(1, 16, {8, 8});
  std::vector<float> b(32, 0.1f);
  ValueId v = g.conv(g.input(), 32, {3, 3}, {1, 1}, {4, 4});
  v = g.bias(v, b.data());
  v = g.relu(v);
  v = g.max_pool(v, 2);
  g.mark_output(v);

  const FusionPlan plan = graph::fuse(g);
  ASSERT_EQ(plan.steps.size(), 1u);
  const Step& st = plan.steps[0];
  EXPECT_EQ(st.kind, OpKind::kConv);
  EXPECT_NE(st.bias, nullptr);
  EXPECT_TRUE(st.relu);
  EXPECT_EQ(st.pool_window, 2);
  EXPECT_EQ(st.out, v);  // the step produces the LAST folded node's edge
  EXPECT_EQ(plan.folded_nodes, 3);
  EXPECT_EQ(plan.fused_pools, 1);
}

TEST(GraphFusion, PoolStraddlingTilesStaysStandalone) {
  Graph g(1, 16, {9, 9});
  ValueId v = g.conv(g.input(), 16, {3, 3}, {1, 1}, {3, 3});
  v = g.relu(v);
  v = g.max_pool(v, 2);  // 3 % 2 != 0 → windows would straddle tiles
  g.mark_output(v);

  const FusionPlan plan = graph::fuse(g);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_TRUE(plan.steps[0].relu);
  EXPECT_EQ(plan.steps[0].pool_window, 0);
  EXPECT_EQ(plan.steps[1].kind, OpKind::kMaxPool);
  EXPECT_EQ(plan.fused_pools, 0);
}

TEST(GraphFusion, MultiUserEdgeBlocksFolding) {
  Graph g(1, 16, {8, 8});
  ValueId c = g.conv(g.input(), 16, {3, 3}, {1, 1}, {2, 2});
  ValueId r = g.relu(c);       // would fold…
  ValueId other = g.relu(c);   // …but c now has two users
  ValueId sum = g.eltwise_add(r, other);
  g.mark_output(sum);

  const FusionPlan plan = graph::fuse(g);
  ASSERT_EQ(plan.steps.size(), 4u);  // conv, relu, relu, add — nothing folds
  EXPECT_FALSE(plan.steps[0].relu);
}

TEST(GraphFusion, ReluBeforeBiasBlocksBiasFold) {
  Graph g(1, 16, {8, 8});
  std::vector<float> b(16, 0.5f);
  ValueId v = g.conv(g.input(), 16, {3, 3}, {1, 1}, {2, 2});
  v = g.relu(v);
  v = g.bias(v, b.data());  // relu(x) + b ≠ relu(x + b): must NOT fold
  g.mark_output(v);

  const FusionPlan plan = graph::fuse(g);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_TRUE(plan.steps[0].relu);
  EXPECT_EQ(plan.steps[0].bias, nullptr);
  EXPECT_EQ(plan.steps[1].kind, OpKind::kBias);
}

TEST(GraphFusion, DisabledLowersEveryNode) {
  Graph g(1, 16, {8, 8});
  std::vector<float> b(16, 0.1f);
  ValueId v = g.conv(g.input(), 16, {3, 3}, {1, 1}, {2, 2});
  v = g.bias(v, b.data());
  v = g.relu(v);
  g.mark_output(v);

  const FusionPlan plan = graph::fuse(g, /*enable=*/false);
  EXPECT_EQ(plan.steps.size(), 3u);
  EXPECT_EQ(plan.folded_nodes, 0);
}

// ------------------------------------------------------ memory planner

TEST(GraphPlanner, LiveRangesNeverOverlapInTheSlab) {
  Graph g(1, 16, {16, 16});
  ValueId v = g.conv(g.input(), 32, {3, 3}, {1, 1}, {4, 4});
  ValueId branch = g.relu(v);  // keeps v alive past the next conv
  v = g.conv(v, 32, {3, 3}, {1, 1}, {4, 4});
  v = g.eltwise_add(v, branch);
  v = g.max_pool(v, 2);
  g.mark_output(v);

  const FusionPlan fusion = graph::fuse(g);
  const MemoryPlan plan = graph::plan_memory(g, fusion);
  ASSERT_GE(plan.placements.size(), 3u);
  for (const auto& a : plan.placements) {
    EXPECT_EQ(a.offset % static_cast<i64>(kAlignment), 0) << "v" << a.value;
    EXPECT_LE(a.offset + a.bytes, plan.slab_bytes);
    for (const auto& b : plan.placements) {
      if (a.value == b.value) continue;
      const bool lives_overlap =
          a.def_step <= b.last_step && b.def_step <= a.last_step;
      const bool bytes_overlap =
          a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
      EXPECT_FALSE(lives_overlap && bytes_overlap)
          << "v" << a.value << " and v" << b.value << " overlap";
    }
  }
}

TEST(GraphPlanner, DeepChainReusesBuffersPingPongStyle) {
  // A straight chain only ever needs two live buffers, so the planned
  // slab must come in well under one-buffer-per-edge.
  Graph g(1, 16, {16, 16});
  ValueId v = g.input();
  for (int i = 0; i < 6; ++i) v = g.conv(v, 16, {3, 3}, {1, 1}, {4, 4});
  g.mark_output(v);

  const FusionPlan fusion = graph::fuse(g);
  const MemoryPlan plan = graph::plan_memory(g, fusion);
  EXPECT_EQ(plan.placements.size(), 5u);  // output edge is external
  EXPECT_LT(plan.slab_bytes, plan.naive_bytes);
  EXPECT_LE(plan.slab_bytes, 2 * plan.placements[0].bytes);
  EXPECT_LT(graph::plan_memory(g, graph::fuse(g, false)).slab_bytes,
            graph::plan_memory(g, graph::fuse(g, false)).naive_bytes);
}

TEST(GraphPlanner, ExternalEdgesAreNotPlanned) {
  Graph g(1, 16, {8, 8});
  ValueId v = g.conv(g.input(), 16, {3, 3}, {1, 1}, {2, 2});
  g.mark_output(v);
  const MemoryPlan plan = graph::plan_memory(g, graph::fuse(g));
  EXPECT_EQ(plan.offset_of(g.input()), -1);
  EXPECT_EQ(plan.offset_of(v), -1);
  EXPECT_EQ(plan.slab_bytes, 0);
}

// ----------------------------------------- pooled epilogue (ConvPlan)

TEST(GraphEpilogue, PooledConvMatchesConvThenStandalonePool) {
  for (FusionMode mode : {FusionMode::kStaged, FusionMode::kFused}) {
    ConvProblem p;
    p.shape.batch = 2;
    p.shape.in_channels = 16;
    p.shape.out_channels = 32;
    p.shape.image = {12, 12};
    p.shape.kernel = {3, 3};
    p.shape.padding = {1, 1};
    p.tile_m = {4, 4};

    ConvPlan plan(p, two_threads(mode));
    AlignedBuffer<float> w, in;
    fill_random(w, static_cast<std::size_t>(p.kernel_layout().total_floats()),
                7);
    fill_random(in, static_cast<std::size_t>(p.input_layout().total_floats()),
                8);
    plan.set_kernels(w.data());
    AlignedBuffer<float> bias(32);
    Rng rng(9);
    for (auto& v : bias) v = rng.uniform(-0.2f, 0.2f);

    // Reference: conv with bias+relu epilogue, then the standalone pool.
    const ImageLayout out_l = p.output_layout();
    AlignedBuffer<float> full(
        static_cast<std::size_t>(out_l.total_floats()));
    Epilogue ep;
    ep.bias = bias.data();
    ep.relu = true;
    plan.execute_pretransformed(in.data(), full.data(), ep);
    ImageLayout pooled_l(out_l.batch, out_l.channels,
                         {out_l.spatial[0] / 2, out_l.spatial[1] / 2});
    AlignedBuffer<float> want(
        static_cast<std::size_t>(pooled_l.total_floats()));
    graph::max_pool_blocked(out_l, 2, full.data(), want.data());

    // Fused: the pool runs inside the inverse-transform epilogue.
    AlignedBuffer<float> got(want.size());
    ep.pool_window = 2;
    plan.execute_pretransformed(in.data(), got.data(), ep);
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << "mode " << static_cast<int>(mode);
  }
}

// --------------------------------------------------- executor identity

TEST(GraphExecutor, VggIshStagedMatchesUnfusedAndReference) {
  const PlanOptions plan = two_threads(FusionMode::kStaged);
  expect_fused_matches_unfused_and_reference(*vgg_ish(plan), plan);
}

TEST(GraphExecutor, VggIshFusedTileMatchesUnfusedAndReference) {
  const PlanOptions plan = two_threads(FusionMode::kFused);
  expect_fused_matches_unfused_and_reference(*vgg_ish(plan), plan);
}

TEST(GraphExecutor, C3dIshStagedAndFusedTileMatchUnfusedAndReference) {
  for (FusionMode mode : {FusionMode::kStaged, FusionMode::kFused}) {
    const PlanOptions plan = two_threads(mode);
    expect_fused_matches_unfused_and_reference(*c3d_ish(plan), plan);
  }
}

TEST(GraphExecutor, ResidualAddRunsAndMatchesManualReference) {
  Graph g(1, 16, {8, 8});
  std::vector<float> bias(16, 0.05f);
  ValueId c1 = g.conv(g.input(), 16, {3, 3}, {1, 1}, {2, 2});
  ValueId b1 = g.bias(c1, bias.data());
  ValueId r1 = g.relu(b1);
  ValueId c2 = g.conv(r1, 16, {3, 3}, {1, 1}, {2, 2});
  ValueId sum = g.eltwise_add(c2, r1);  // r1 has two users: no folding past it
  ValueId out = g.relu(sum);
  g.mark_output(out);

  // Capture the weights before the graph moves into the executor.
  AlignedBuffer<float> w1(g.nodes()[0].weights.size());
  AlignedBuffer<float> w2(g.nodes()[3].weights.size());
  std::memcpy(w1.data(), g.nodes()[0].weights.data(),
              w1.size() * sizeof(float));
  std::memcpy(w2.data(), g.nodes()[3].weights.data(),
              w2.size() * sizeof(float));
  const ConvProblem p1 = g.nodes()[0].problem;
  const ConvProblem p2 = g.nodes()[3].problem;

  CompileOptions copts;
  copts.plan = one_thread();
  Executor exec(std::move(g), copts);

  const ImageLayout l = exec.input_layout();
  const std::size_t n = static_cast<std::size_t>(l.total_floats());
  AlignedBuffer<float> in;
  fill_random(in, n, 0xADD);

  // Manual layer-at-a-time reference through the same standalone ops.
  ConvPlan plan1(p1, one_thread()), plan2(p2, one_thread());
  plan1.set_kernels(w1.data());
  plan2.set_kernels(w2.data());
  AlignedBuffer<float> t1(n), t2(n), t3(n), want(n);
  plan1.execute_pretransformed(in.data(), t1.data());
  graph::bias_blocked(l, bias.data(), t1.data(), t2.data());
  graph::relu_blocked(l, t2.data(), t1.data());  // t1 = r1
  plan2.execute_pretransformed(t1.data(), t2.data());
  graph::eltwise_add_blocked(l, t2.data(), t1.data(), t3.data());
  graph::relu_blocked(l, t3.data(), want.data());

  AlignedBuffer<float> got(n);
  exec.execute(in.data(), got.data());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0);
}

TEST(GraphExecutor, BlockingOverridesMatchExplicitPlanOptions) {
  // A node config's blocking must reproduce a ConvPlan built with the
  // same options (that is how auto-selected layers keep their bits).
  select::SelectedConfig config;
  config.tile_m = {4, 4};
  config.blocking.n_blk = 2;
  config.blocking.c_blk = 16;
  Graph g(2, 32, {12, 12});
  ValueId v = g.conv(g.input(), 32, {3, 3}, {1, 1}, config);
  g.mark_output(v);
  AlignedBuffer<float> w(g.nodes()[0].weights.size());
  std::memcpy(w.data(), g.nodes()[0].weights.data(),
              w.size() * sizeof(float));
  const ConvProblem p = g.nodes()[0].problem;

  CompileOptions copts;
  copts.plan = two_threads();
  Executor exec(std::move(g), copts);

  PlanOptions expect = two_threads();
  expect.n_blk = 2;
  expect.c_blk = 16;
  ConvPlan ref(p, expect);
  ref.set_kernels(w.data());

  const std::size_t sin =
      static_cast<std::size_t>(p.input_layout().total_floats());
  const std::size_t sout =
      static_cast<std::size_t>(p.output_layout().total_floats());
  AlignedBuffer<float> in, want(sout), got(sout);
  fill_random(in, sin, 0xB10C);
  ref.execute_pretransformed(in.data(), want.data());
  exec.execute(in.data(), got.data());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), sout * sizeof(float)), 0);
}

/// The kernel's thread count of this process (/proc/self/status), or -1.
int process_threads() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(GraphExecutor, ExecutorSharesOnePool) {
  // Every conv step forks and joins the executor's one pool: four conv
  // steps at three threads add two workers to the process, not 4 x 2.
  Graph g(1, 16, {12, 12});
  ValueId v = g.input();
  for (int i = 0; i < 4; ++i) v = g.conv(v, 16, {3, 3}, {1, 1}, Dims{4, 4});
  g.mark_output(v);
  const std::size_t sin =
      static_cast<std::size_t>(g.input_layout().total_floats());
  const std::size_t sout =
      static_cast<std::size_t>(g.output_layout().total_floats());

  CompileOptions copts;
  copts.plan.threads = 3;
  const int before = process_threads();
  ASSERT_GT(before, 0);
  Executor exec(std::move(g), copts);
  EXPECT_EQ(exec.step_count(), 4u);
  EXPECT_EQ(process_threads() - before, 2);

  AlignedBuffer<float> in, out(sout);
  fill_random(in, sin, 0x9001);
  exec.execute(in.data(), out.data());
  EXPECT_EQ(process_threads() - before, 2);
}

// ------------------------------------------------------- mixed backends

// Auto layers forced onto FFT and direct lower, fold their bias and relu,
// keep their pools standalone (only the Winograd epilogue pools per
// tile), match the naive reference, and serve.
TEST(GraphMixedBackend, FftAndDirectLayersLowerFuseAndServe) {
  select::SelectOptions fft_only;
  fft_only.allow_winograd = false;
  fft_only.allow_direct = false;
  fft_only.measure = false;
  select::SelectOptions direct_only = fft_only;
  direct_only.allow_fft = false;
  direct_only.allow_direct = true;

  auto net = std::make_shared<Sequential>(1, 16, Dims{16, 16}, one_thread());
  Rng rng(0x3B1D);
  randomize_layer(*net,
                  net->add_conv_auto(32, {5, 5}, {2, 2}, /*relu=*/true,
                                     fft_only),
                  16, 32, 25, rng);
  net->add_max_pool(2);
  randomize_layer(*net,
                  net->add_conv_auto(32, {3, 3}, {1, 1}, /*relu=*/true,
                                     direct_only),
                  32, 32, 9, rng);
  net->add_max_pool(2);
  ASSERT_EQ(net->selected_config(0).algorithm, select::Algorithm::kFft);
  ASSERT_EQ(net->selected_config(2).algorithm, select::Algorithm::kDirect);

  const Graph oracle = net->to_graph();
  std::vector<select::Algorithm> lowered;
  for (const graph::Node& n : oracle.nodes()) {
    if (n.kind == OpKind::kConv) lowered.push_back(n.config.algorithm);
  }
  ASSERT_EQ(lowered, (std::vector<select::Algorithm>{
                         select::Algorithm::kFft, select::Algorithm::kDirect}));

  CompileOptions copts;
  copts.plan = one_thread();
  Executor exec(net->to_graph(), copts);
  int conv_steps = 0, pool_steps = 0;
  for (const Step& st : exec.fusion().steps) {
    if (st.kind == OpKind::kConv) {
      ++conv_steps;
      EXPECT_NE(st.bias, nullptr);
      EXPECT_TRUE(st.relu);
      EXPECT_EQ(st.pool_window, 0);
    } else if (st.kind == OpKind::kMaxPool) {
      ++pool_steps;
    }
  }
  EXPECT_EQ(conv_steps, 2);
  EXPECT_EQ(pool_steps, 2);
  EXPECT_EQ(exec.fusion().fused_pools, 0);
  EXPECT_EQ(exec.fusion().folded_nodes, 4);  // bias + relu, twice

  const std::size_t sin =
      static_cast<std::size_t>(net->input_layout().total_floats());
  const std::size_t sout =
      static_cast<std::size_t>(net->output_layout().total_floats());
  constexpr int kSamples = 4;
  std::vector<AlignedBuffer<float>> inputs(kSamples);
  std::vector<std::vector<float>> refs;
  AlignedBuffer<float> got(sout);
  for (int s = 0; s < kSamples; ++s) {
    AlignedBuffer<float>& in = inputs[static_cast<std::size_t>(s)];
    fill_random(in, sin, 0x41C0 + static_cast<u64>(s));
    refs.push_back(reference_forward(oracle, in.data()));
    exec.execute(in.data(), got.data());
    EXPECT_LE(rel_l2_error(got.data(), refs.back().data(), sout),
              kGraphTolerance)
        << "sample " << s;
  }

  serve::InferenceServer server;
  serve::ModelConfig config;
  config.batching.max_batch = 4;
  config.batching.max_delay_ms = 0.5;
  config.plan = one_thread();
  server.register_network("mixed", net, config);
  std::vector<serve::ResultFuture> futures;
  for (int s = 0; s < kSamples; ++s) {
    futures.push_back(
        server.submit("mixed", inputs[static_cast<std::size_t>(s)].data()));
  }
  for (int s = 0; s < kSamples; ++s) {
    serve::InferenceResult r = futures[static_cast<std::size_t>(s)].get();
    ASSERT_EQ(r.output.size(), sout);
    EXPECT_LE(rel_l2_error(r.output.data(),
                           refs[static_cast<std::size_t>(s)].data(), sout),
              kGraphTolerance)
        << "served sample " << s;
  }
}

// ------------------------------------------------------ partial batches

/// One network at `batch` samples, `backend` picking its convolutions:
/// "fft", "direct", or "mixed" (Winograd with a folded bias/relu, FFT, a
/// residual add, direct, and a standalone pool). Conv weights are
/// deterministic in the node id, so every batch gets the same ones.
Graph partial_batch_net(i64 batch, const std::string& backend) {
  select::SelectedConfig fft, direct, wino;
  fft.algorithm = select::Algorithm::kFft;
  direct.algorithm = select::Algorithm::kDirect;
  wino.tile_m = {4, 4};
  const auto pick = [&](const select::SelectedConfig& mixed) {
    return backend == "fft" ? fft : backend == "direct" ? direct : mixed;
  };
  std::vector<float> bias(32);
  for (std::size_t i = 0; i < bias.size(); ++i) {
    bias[i] = 0.01f * static_cast<float>(i) - 0.1f;
  }
  Graph g(batch, 16, {12, 12});
  ValueId v = g.conv(g.input(), 32, {3, 3}, {1, 1}, pick(wino));
  v = g.relu(g.bias(v, bias.data()));
  const ValueId skip = v;
  v = g.conv(v, 32, {5, 5}, {2, 2}, pick(fft));
  v = g.eltwise_add(v, skip);
  v = g.conv(v, 16, {3, 3}, {1, 1}, pick(direct));
  v = g.relu(g.max_pool(v, 2));
  g.mark_output(v);
  return g;
}

// An executor compiled for B samples runs any n ≤ B of them: sample i of
// every n-sample run is bitwise equal to a batch-1 executor's output, on
// FFT, direct and mixed networks.
TEST(GraphPartialBatch, AnyBatchUpToCompiledMatchesBatchOneBitwise) {
  constexpr i64 kB = 3;
  for (const std::string backend : {"fft", "direct", "mixed"}) {
    SCOPED_TRACE(backend);
    CompileOptions copts;
    copts.plan = two_threads();
    Executor one(partial_batch_net(1, backend), copts);
    Executor exec(partial_batch_net(kB, backend), copts);
    ASSERT_EQ(exec.batch(), kB);
    const auto sin = static_cast<std::size_t>(one.input_layout().total_floats());
    const auto sout =
        static_cast<std::size_t>(one.output_layout().total_floats());
    AlignedBuffer<float> in;
    fill_random(in, kB * sin, 0x9A27);
    std::vector<float> expected(kB * sout);
    for (std::size_t i = 0; i < kB; ++i) {
      one.execute(in.data() + i * sin, expected.data() + i * sout);
    }
    for (i64 n = kB; n >= 1; --n) {
      std::vector<float> out(kB * sout, -7.0f);
      exec.execute(in.data(), out.data(), n);
      const std::size_t valid = static_cast<std::size_t>(n) * sout;
      EXPECT_EQ(
          std::memcmp(out.data(), expected.data(), valid * sizeof(float)), 0)
          << "n = " << n;
      EXPECT_EQ(std::count(out.begin() + static_cast<std::ptrdiff_t>(valid),
                           out.end(), -7.0f),
                static_cast<std::ptrdiff_t>(out.size() - valid))
          << "samples past n = " << n << " written";
    }
    EXPECT_THROW(exec.execute(in.data(), expected.data(), kB + 1), Error);
  }
}

// Attribution counts the samples an execution ran, not the compiled
// batch: half the samples, half the conv flops and activation bytes; the
// weight bytes stay.
TEST(GraphPartialBatch, AttributionScalesWithExecutedSamples) {
  Graph g(4, 16, {8, 8});
  g.mark_output(g.conv(g.input(), 32, {3, 3}, {1, 1}, Dims{2, 2}));
  const double weight_bytes =
      static_cast<double>(g.nodes()[0].problem.kernel_layout().total_floats()) *
      sizeof(float);
  CompileOptions copts;
  copts.plan = one_thread();
  Executor exec(std::move(g), copts);
  AlignedBuffer<float> in, out(
      static_cast<std::size_t>(exec.output_layout().total_floats()));
  fill_random(in, static_cast<std::size_t>(exec.input_layout().total_floats()),
              0xA77);

  exec.execute(in.data(), out.data(), 4);
  const std::vector<Executor::NodeAttr> full = exec.attribution();
  exec.execute(in.data(), out.data(), 2);
  const std::vector<Executor::NodeAttr> half = exec.attribution();
  ASSERT_EQ(full.size(), 1u);
  ASSERT_EQ(half.size(), 1u);
  EXPECT_EQ(full[0].flops, 2.0 * 4 * 16 * 32 * 64 * 9);
  EXPECT_EQ(half[0].flops, full[0].flops / 2);
  EXPECT_EQ(half[0].bytes - weight_bytes, (full[0].bytes - weight_bytes) / 2);
}

}  // namespace
}  // namespace ondwin
