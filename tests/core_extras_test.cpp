// Tests for the engine extensions: fused epilogues (bias / ReLU).
#include <gtest/gtest.h>

#include <cmath>

#include "core/conv_plan.h"
#include "util/rng.h"

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

struct PlanIo {
  ConvProblem p;
  std::vector<float> in_plain, w_plain;
  AlignedBuffer<float> in_b, w_b, out_b;

  explicit PlanIo(const ConvProblem& prob, u64 seed) : p(prob) {
    Rng rng(seed);
    in_plain.resize(static_cast<std::size_t>(p.shape.input_floats()));
    w_plain.resize(static_cast<std::size_t>(p.shape.weight_floats()));
    for (auto& v : in_plain) v = rng.uniform(-0.5f, 0.5f);
    for (auto& v : w_plain) v = rng.uniform(-0.5f, 0.5f);
    in_b.reset(static_cast<std::size_t>(p.input_layout().total_floats()));
    w_b.reset(static_cast<std::size_t>(p.kernel_layout().total_floats()));
    out_b.reset(static_cast<std::size_t>(p.output_layout().total_floats()));
    pack_image(in_plain.data(), in_b.data(), p.input_layout());
    pack_kernels(w_plain.data(), w_b.data(), p.kernel_layout());
  }

  std::vector<float> run(const PlanOptions& o, const Epilogue& ep = {}) {
    ConvPlan plan(p, o);
    plan.execute(in_b.data(), w_b.data(), out_b.data(), ep);
    std::vector<float> got(
        static_cast<std::size_t>(p.shape.output_floats()));
    unpack_image(out_b.data(), got.data(), p.output_layout());
    return got;
  }
};

// ------------------------------------------------------------ epilogue ----

TEST(Epilogue, BiasAndReluMatchReference) {
  const ConvProblem p =
      make_problem(1, 16, 32, {9, 11}, {3, 3}, {1, 1}, {2, 2});
  PlanIo io(p, 5);

  std::vector<float> ref(static_cast<std::size_t>(p.shape.output_floats()));
  naive_conv(p.shape, io.in_plain.data(), io.w_plain.data(), ref.data());

  Rng rng(6);
  std::vector<float> bias(static_cast<std::size_t>(p.shape.out_channels));
  for (auto& b : bias) b = rng.uniform(-0.3f, 0.3f);

  const i64 opx = p.shape.output().product();
  PlanOptions o;
  o.threads = 2;

  // bias only
  {
    Epilogue ep;
    ep.bias = bias.data();
    const auto got = io.run(o, ep);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const i64 cp = (static_cast<i64>(i) / opx) % p.shape.out_channels;
      EXPECT_NEAR(got[i], ref[i] + bias[static_cast<std::size_t>(cp)], 1e-3f)
          << i;
    }
  }
  // relu only
  {
    Epilogue ep;
    ep.relu = true;
    const auto got = io.run(o, ep);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(got[i], std::max(ref[i], 0.0f), 1e-3f) << i;
    }
  }
  // both
  {
    Epilogue ep;
    ep.bias = bias.data();
    ep.relu = true;
    const auto got = io.run(o, ep);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const i64 cp = (static_cast<i64>(i) / opx) % p.shape.out_channels;
      EXPECT_NEAR(got[i],
                  std::max(ref[i] + bias[static_cast<std::size_t>(cp)], 0.0f),
                  1e-3f)
          << i;
    }
  }
}

TEST(Epilogue, InactiveEpilogueIsIdentical) {
  const ConvProblem p =
      make_problem(1, 16, 16, {8, 8}, {3, 3}, {1, 1}, {4, 4});
  PlanIo io(p, 7);
  PlanOptions o;
  o.threads = 1;
  const auto base = io.run(o);
  const auto with_default = io.run(o, Epilogue{});
  EXPECT_EQ(base, with_default);
}

TEST(Epilogue, Works3D) {
  const ConvProblem p =
      make_problem(1, 16, 16, {5, 6, 7}, {3, 3, 3}, {1, 1, 1}, {2, 2, 2});
  PlanIo io(p, 8);
  std::vector<float> ref(static_cast<std::size_t>(p.shape.output_floats()));
  naive_conv(p.shape, io.in_plain.data(), io.w_plain.data(), ref.data());

  Epilogue ep;
  ep.relu = true;
  PlanOptions o;
  o.threads = 2;
  const auto got = io.run(o, ep);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], std::max(ref[i], 0.0f), 1e-3f);
  }
}

}  // namespace
}  // namespace ondwin
