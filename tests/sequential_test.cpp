#include "net/sequential.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "baseline/direct_conv.h"
#include "graph/executor.h"
#include "util/rng.h"

namespace ondwin {
namespace {

PlanOptions two_threads() {
  PlanOptions o;
  o.threads = 2;
  return o;
}

/// Runs `net` once through a graph::Executor compiled from to_graph().
std::vector<float> run(const Sequential& net, const float* input) {
  graph::CompileOptions copts;
  copts.plan = net.plan_options();
  graph::Executor exec(net.to_graph(), copts);
  std::vector<float> out(
      static_cast<std::size_t>(net.output_layout().total_floats()));
  exec.execute(input, out.data());
  return out;
}

TEST(Sequential, SingleConvMatchesNaivePlusEpilogue) {
  Sequential net(1, 16, {10, 10}, two_threads());
  net.add_conv(32, {3, 3}, {1, 1}, {2, 2}, /*relu=*/true);

  Rng rng(3);
  ConvShape s;
  s.batch = 1;
  s.in_channels = 16;
  s.out_channels = 32;
  s.image = {10, 10};
  s.kernel = {3, 3};
  s.padding = {1, 1};
  std::vector<float> in_plain(static_cast<std::size_t>(s.input_floats()));
  std::vector<float> w_plain(static_cast<std::size_t>(s.weight_floats()));
  std::vector<float> bias(32);
  for (auto& v : in_plain) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : w_plain) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : bias) v = rng.uniform(-0.2f, 0.2f);
  net.set_conv_weights(0, w_plain.data(), bias.data());

  AlignedBuffer<float> in_b(
      static_cast<std::size_t>(net.input_layout().total_floats()));
  pack_image(in_plain.data(), in_b.data(), net.input_layout());
  const std::vector<float> out_b = run(net, in_b.data());

  std::vector<float> ref(static_cast<std::size_t>(s.output_floats()));
  naive_conv(s, in_plain.data(), w_plain.data(), ref.data());
  std::vector<float> got(ref.size());
  unpack_image(out_b.data(), got.data(), net.output_layout());

  const i64 opx = s.output().product();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const i64 cp = static_cast<i64>(i) / opx % 32;
    const float want =
        std::max(ref[i] + bias[static_cast<std::size_t>(cp)], 0.0f);
    EXPECT_NEAR(got[i], want, 1e-3f) << i;
  }
}

TEST(Sequential, ShapesPropagateThroughConvAndPool) {
  Sequential net(2, 16, {32, 32}, two_threads());
  net.add_conv(32, {3, 3}, {1, 1}, {4, 4});
  net.add_max_pool(2);
  net.add_conv(64, {3, 3}, {1, 1}, {4, 4});
  net.add_max_pool(2);
  ASSERT_EQ(net.layer_count(), 4);
  EXPECT_EQ(net.output_layout().spatial, (Dims{8, 8}));
  EXPECT_EQ(net.output_layout().channels, 64);
  EXPECT_EQ(net.output_layout().batch, 2);
  EXPECT_FALSE(net.summary().empty());
}

TEST(Sequential, MaxPoolIsCorrectOnBlockedLayout) {
  Sequential net(1, 16, {4, 4}, two_threads());
  net.add_max_pool(2);

  const ImageLayout in_l = net.input_layout();
  AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
  Rng rng(5);
  std::vector<float> plain(in.size());
  for (auto& v : plain) v = rng.uniform(-1, 1);
  pack_image(plain.data(), in.data(), in_l);

  const std::vector<float> out = run(net, in.data());
  std::vector<float> got(out.size());
  unpack_image(out.data(), got.data(), net.output_layout());

  for (i64 c = 0; c < 16; ++c) {
    for (i64 y = 0; y < 2; ++y) {
      for (i64 x = 0; x < 2; ++x) {
        float want = -1e30f;
        for (i64 dy = 0; dy < 2; ++dy) {
          for (i64 dx = 0; dx < 2; ++dx) {
            want = std::max(
                want, plain[static_cast<std::size_t>(
                          c * 16 + (2 * y + dy) * 4 + (2 * x + dx))]);
          }
        }
        EXPECT_FLOAT_EQ(got[static_cast<std::size_t>(c * 4 + y * 2 + x)],
                        want);
      }
    }
  }
}

TEST(Sequential, LoweredNetIsDeterministic) {
  Sequential net(1, 16, {12, 12}, two_threads());
  net.add_conv(16, {3, 3}, {1, 1}, {2, 2});
  net.add_conv(16, {3, 3}, {1, 1}, {2, 2});
  Rng rng(9);
  net.randomize_weights(rng);

  AlignedBuffer<float> in(
      static_cast<std::size_t>(net.input_layout().total_floats()));
  Rng irng(10);
  for (auto& v : in) v = irng.uniform(-1, 1);

  graph::CompileOptions copts;
  copts.plan = net.plan_options();
  graph::Executor exec(net.to_graph(), copts);
  const std::size_t n =
      static_cast<std::size_t>(net.output_layout().total_floats());
  std::vector<float> first(n), second(n);
  exec.execute(in.data(), first.data());
  exec.execute(in.data(), second.data());
  EXPECT_EQ(std::memcmp(first.data(), second.data(), n * sizeof(float)), 0);
  // Two lowerings of one builder carry the same weights.
  EXPECT_EQ(run(net, in.data()), first);
  EXPECT_GT(exec.last_execute_seconds(), 0.0);
  EXPECT_GT(exec.step_seconds(0), 0.0);
  EXPECT_GT(exec.arena_bytes(), 0);
}

TEST(Sequential, ThreeDimensionalStack) {
  Sequential net(1, 16, {8, 8, 8}, two_threads());
  net.add_conv(16, {3, 3, 3}, {1, 1, 1}, {2, 2, 2});
  net.add_max_pool(2);
  EXPECT_EQ(net.output_layout().spatial, (Dims{4, 4, 4}));
  Rng rng(2);
  net.randomize_weights(rng);
  AlignedBuffer<float> in(
      static_cast<std::size_t>(net.input_layout().total_floats()));
  for (auto& v : in) v = rng.uniform(-1, 1);
  // ReLU output must be non-negative everywhere after a conv+relu layer,
  // and max-pool preserves that.
  for (float v : run(net, in.data())) EXPECT_GE(v, 0.0f);
}

TEST(Sequential, ToGraphCarriesWeightsBiasAndRelu) {
  Sequential net(1, 16, {8, 8}, two_threads());
  net.add_conv(16, {3, 3}, {1, 1}, {2, 2}, /*relu=*/false);
  net.add_max_pool(2);
  std::vector<float> w(16 * 16 * 9), b(16);
  Rng rng(4);
  for (auto& v : w) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  net.set_conv_weights(0, w.data(), b.data());

  const graph::Graph g = net.to_graph();
  ASSERT_EQ(g.nodes().size(), 3u);  // conv → bias → pool: no relu node
  const graph::Node& conv = g.nodes()[0];
  ASSERT_EQ(conv.kind, graph::OpKind::kConv);
  EXPECT_EQ(conv.config.algorithm, select::Algorithm::kWinograd);
  EXPECT_EQ(conv.problem.tile_m, (Dims{2, 2}));
  AlignedBuffer<float> packed(conv.weights.size());
  pack_kernels(w.data(), packed.data(), conv.problem.kernel_layout());
  EXPECT_EQ(std::memcmp(packed.data(), conv.weights.data(),
                        packed.size() * sizeof(float)),
            0);
  ASSERT_EQ(g.nodes()[1].kind, graph::OpKind::kBias);
  EXPECT_EQ(std::memcmp(g.nodes()[1].bias.data(), b.data(),
                        b.size() * sizeof(float)),
            0);
  EXPECT_EQ(g.nodes()[2].kind, graph::OpKind::kMaxPool);
  EXPECT_EQ(g.output_layout().total_floats(),
            net.output_layout().total_floats());
}

TEST(Sequential, ToGraphAtBatchMatchesBatchOneBitwise) {
  // A batch-2 lowering carrying the builder's weights must produce, for
  // each sample, exactly the bits the batch-1 lowering produces (blocked
  // layouts are batch-major, so sample s is a contiguous slab).
  Sequential base(1, 16, {8, 8}, two_threads());
  base.add_conv(16, {3, 3}, {1, 1}, {2, 2});
  base.add_conv(16, {3, 3}, {1, 1}, {2, 2}, /*relu=*/false);
  Rng rng(7);
  base.randomize_weights(rng);

  const i64 sin = base.input_layout().total_floats();
  const i64 sout = base.output_layout().total_floats();
  graph::CompileOptions copts;
  copts.plan = base.plan_options();
  graph::Executor two(base.to_graph(2, base.plan_options()), copts);
  ASSERT_EQ(two.input_layout().total_floats(), 2 * sin);

  AlignedBuffer<float> in2(static_cast<std::size_t>(2 * sin));
  Rng irng(8);
  for (auto& v : in2) v = irng.uniform(-1, 1);
  AlignedBuffer<float> out2(static_cast<std::size_t>(2 * sout));
  two.execute(in2.data(), out2.data());

  for (i64 s = 0; s < 2; ++s) {
    const std::vector<float> one = run(base, in2.data() + s * sin);
    EXPECT_EQ(std::memcmp(one.data(), out2.data() + s * sout,
                          static_cast<std::size_t>(sout) * sizeof(float)),
              0)
        << "sample " << s;
  }
}

TEST(Sequential, Validation) {
  Sequential net(1, 16, {8, 8}, two_threads());
  EXPECT_THROW(net.to_graph(), Error);  // no layers
  EXPECT_THROW(net.output_layout(), Error);
  net.add_conv(16, {3, 3}, {1, 1}, {2, 2});
  EXPECT_THROW(net.set_conv_weights(5, nullptr, nullptr), std::exception);
  EXPECT_THROW(net.add_max_pool(0), Error);
  EXPECT_THROW(net.add_max_pool(100), Error);  // window > dims
  EXPECT_THROW(net.add_conv(16, {3, 3}, {1, 1}, {15, 15}), Error);  // α > 16
  EXPECT_EQ(net.layer_count(), 1);  // failed appends leave no layer behind
  EXPECT_THROW(net.to_graph(0, net.plan_options()), Error);
}

}  // namespace
}  // namespace ondwin
