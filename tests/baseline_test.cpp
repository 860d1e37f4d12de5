#include <gtest/gtest.h>

#include <cmath>

#include "baseline/direct_conv_blocked.h"
#include "baseline/simple_winograd.h"
#include "gemm/baseline_gemms.h"
#include "tensor/layout.h"
#include "util/rng.h"

namespace ondwin {
namespace {

ConvShape make_shape(i64 b, i64 c, i64 cp, Dims image, Dims kernel,
                     Dims pad) {
  ConvShape s;
  s.batch = b;
  s.in_channels = c;
  s.out_channels = cp;
  s.image = image;
  s.kernel = kernel;
  s.padding = pad;
  return s;
}

struct Workload {
  std::vector<float> in, w, ref;
};

Workload make_workload(const ConvShape& s, u64 seed) {
  Workload wl;
  Rng rng(seed);
  wl.in.resize(static_cast<std::size_t>(s.input_floats()));
  wl.w.resize(static_cast<std::size_t>(s.weight_floats()));
  wl.ref.resize(static_cast<std::size_t>(s.output_floats()));
  for (auto& v : wl.in) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : wl.w) v = rng.uniform(-0.5f, 0.5f);
  naive_conv(s, wl.in.data(), wl.w.data(), wl.ref.data());
  return wl;
}

double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, static_cast<double>(std::abs(a[i] - b[i])));
  }
  return m;
}

// -------------------------------------------------------- naive oracle ----

TEST(NaiveConv, HandChecked1D) {
  // in = [1,2,3,4], w = [1,0,-1], no padding → out = [1-3, 2-4] = [-2,-2]
  const ConvShape s = make_shape(1, 1, 1, {4}, {3}, {0});
  const float in[] = {1, 2, 3, 4};
  const float w[] = {1, 0, -1};
  float out[2];
  naive_conv(s, in, w, out);
  EXPECT_FLOAT_EQ(out[0], -2.0f);
  EXPECT_FLOAT_EQ(out[1], -2.0f);
}

TEST(NaiveConv, PaddingExtendsWithZeros) {
  // in = [5], w = [1,2,3], pad 1 → out[k] over window positions:
  // out has length 1+2-3+1 = 1: 0·1 + 5·2 + 0·3 = 10
  const ConvShape s = make_shape(1, 1, 1, {1}, {3}, {1});
  const float in[] = {5};
  const float w[] = {1, 2, 3};
  float out[1];
  naive_conv(s, in, w, out);
  EXPECT_FLOAT_EQ(out[0], 10.0f);
}

TEST(NaiveConv, ChannelsSumIntoOutputs) {
  // 2 input channels, kernel = identity taps: output = sum of channels.
  const ConvShape s = make_shape(1, 2, 1, {3}, {1}, {0});
  const float in[] = {1, 2, 3, 10, 20, 30};
  const float w[] = {1, 1};
  float out[3];
  naive_conv(s, in, w, out);
  EXPECT_FLOAT_EQ(out[0], 11.0f);
  EXPECT_FLOAT_EQ(out[1], 22.0f);
  EXPECT_FLOAT_EQ(out[2], 33.0f);
}

TEST(NaiveConv, LongDoubleMatchesFloatClosely) {
  const ConvShape s = make_shape(1, 4, 2, {6, 6}, {3, 3}, {1, 1});
  const Workload wl = make_workload(s, 1);
  const auto ld = naive_conv_longdouble(s, wl.in.data(), wl.w.data());
  for (std::size_t i = 0; i < wl.ref.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(ld[i]), wl.ref[i], 1e-4);
  }
}

TEST(NaiveConv, InvalidShapesThrow) {
  EXPECT_THROW(make_shape(1, 1, 1, {2}, {5}, {0}).validate(), Error);
  EXPECT_THROW(make_shape(0, 1, 1, {4}, {3}, {0}).validate(), Error);
  EXPECT_THROW(make_shape(1, 1, 1, {4, 4}, {3}, {0}).validate(), Error);
}

// ----------------------------------------------------- blocked direct ----

struct ShapeCase {
  ConvShape shape;
  int threads;
};

class DirectBlocked : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(DirectBlocked, MatchesNaive) {
  const auto& p = GetParam();
  const Workload wl = make_workload(p.shape, 17);
  const ImageLayout in_l{p.shape.batch, p.shape.in_channels, p.shape.image};
  const ImageLayout out_l{p.shape.batch, p.shape.out_channels,
                          p.shape.output()};
  const KernelLayout k_l{p.shape.in_channels, p.shape.out_channels,
                         p.shape.kernel};
  AlignedBuffer<float> in_b(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w_b(static_cast<std::size_t>(k_l.total_floats()));
  AlignedBuffer<float> out_b(static_cast<std::size_t>(out_l.total_floats()));
  pack_image(wl.in.data(), in_b.data(), in_l);
  pack_kernels(wl.w.data(), w_b.data(), k_l);

  DirectConvBlocked conv(p.shape, p.threads);
  conv.execute(in_b.data(), w_b.data(), out_b.data());

  std::vector<float> got(wl.ref.size());
  unpack_image(out_b.data(), got.data(), out_l);
  EXPECT_LT(max_abs_diff(got, wl.ref), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DirectBlocked,
    ::testing::Values(
        ShapeCase{make_shape(1, 16, 16, {8, 8}, {3, 3}, {1, 1}), 1},
        ShapeCase{make_shape(2, 16, 32, {9, 7}, {3, 3}, {1, 1}), 2},
        ShapeCase{make_shape(1, 32, 16, {10, 10}, {5, 5}, {2, 2}), 1},
        ShapeCase{make_shape(1, 16, 16, {12}, {3}, {1}), 1},
        ShapeCase{make_shape(1, 16, 16, {6, 6, 6}, {3, 3, 3}, {1, 1, 1}), 2},
        ShapeCase{make_shape(1, 16, 16, {8, 8}, {2, 2}, {0, 0}), 1}));

// ---------------------------------------------------- simple winograd ----

class SimpleWino : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(SimpleWino, MatchesNaive) {
  const auto& p = GetParam();
  ConvProblem prob;
  prob.shape = p.shape;
  prob.tile_m = Dims::filled(p.shape.image.rank(), 2);
  const Workload wl = make_workload(p.shape, 23);

  std::vector<float> got(wl.ref.size());
  SimpleWinograd wino(prob, p.threads);
  wino.execute(wl.in.data(), wl.w.data(), got.data());
  EXPECT_LT(max_abs_diff(got, wl.ref), 2e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SimpleWino,
    ::testing::Values(
        ShapeCase{make_shape(1, 4, 4, {8, 8}, {3, 3}, {1, 1}), 1},
        ShapeCase{make_shape(2, 8, 8, {9, 7}, {3, 3}, {1, 1}), 2},
        ShapeCase{make_shape(1, 4, 8, {12}, {3}, {1}), 1},
        ShapeCase{make_shape(1, 4, 4, {6, 6, 6}, {3, 3, 3}, {1, 1, 1}), 2}));

TEST(SimpleWino, LargerTileF44) {
  ConvProblem prob;
  prob.shape = make_shape(1, 8, 8, {10, 10}, {3, 3}, {1, 1});
  prob.tile_m = {4, 4};
  const Workload wl = make_workload(prob.shape, 29);
  std::vector<float> got(wl.ref.size());
  SimpleWinograd wino(prob, 1);
  wino.execute(wl.in.data(), wl.w.data(), got.data());
  EXPECT_LT(max_abs_diff(got, wl.ref), 5e-3);
}

// ------------------------------------------------------ baseline GEMMs ----

TEST(BaselineGemms, Fixed16MatchesGeneric) {
  Rng rng(37);
  const BlockedGemmShape shape{64, 64, 96, 16, 32, 32};
  std::vector<float> a(static_cast<std::size_t>(shape.u_floats()));
  std::vector<float> b(static_cast<std::size_t>(shape.v_floats()));
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);

  std::vector<float> c_ref(static_cast<std::size_t>(shape.x_floats()));
  generic_gemm(shape.rows, shape.cp, shape.c, a.data(), b.data(),
               c_ref.data());

  AlignedBuffer<float> ub(a.size()), vb(b.size()), xb(c_ref.size());
  pack_u_blocks(a.data(), ub.data(), shape.rows, shape.c, shape.n_blk,
                shape.c_blk);
  pack_v_blocks(b.data(), vb.data(), shape.c, shape.cp, shape.c_blk,
                shape.cp_blk);
  fixed16_batched_gemm(shape, ub.data(), vb.data(), xb.data());

  std::vector<float> got(c_ref.size());
  unpack_x_blocks(xb.data(), got.data(), shape.rows, shape.cp, shape.n_blk,
                  shape.cp_blk);
  EXPECT_LT(max_abs_diff(got, c_ref), 1e-3);
}

TEST(BaselineGemms, Fixed16RejectsOtherRowBlocks) {
  const BlockedGemmShape shape{60, 64, 96, 30, 32, 32};
  EXPECT_THROW(fixed16_batched_gemm(shape, nullptr, nullptr, nullptr), Error);
}

TEST(BaselineGemms, GenericGemmSmallIdentity) {
  // A·I == A
  const i64 n = 8;
  std::vector<float> a(n * n), eye(n * n, 0.0f), c(n * n);
  Rng rng(41);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (i64 i = 0; i < n; ++i) eye[static_cast<std::size_t>(i * n + i)] = 1.0f;
  generic_gemm(n, n, n, a.data(), eye.data(), c.data());
  EXPECT_LT(max_abs_diff(c, a), 1e-6);
}

}  // namespace
}  // namespace ondwin
