// Tests for ondwin::select — candidate enumeration, the accuracy prune,
// selection + wisdom-v2 caching (a second call must do zero
// measurement), the AutoConv uniform executor, and the Sequential /
// serving integration. Measurement budgets are kept tiny: correctness of
// the machinery, not quality of the choices, is what CI asserts.
#include "select/select.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "baseline/direct_conv.h"
#include "graph/executor.h"
#include "net/sequential.h"
#include "serve/server.h"
#include "tensor/layout.h"
#include "util/rng.h"

namespace ondwin {
namespace {

ConvShape small_shape() {
  ConvShape s;
  s.batch = 1;
  s.in_channels = 16;
  s.out_channels = 16;
  s.image = {12, 12};
  s.kernel = {3, 3};
  s.padding = {1, 1};
  return s;
}

class TempFile {
 public:
  TempFile() {
    char tmpl[] = "/tmp/ondwin_select_XXXXXX";
    const int fd = mkstemp(tmpl);
    if (fd >= 0) close(fd);
    path_ = tmpl;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ------------------------------------------------------- enumeration -----

TEST(SelectEnumerate, CoversAllClassesSortedByCost) {
  const ConvShape s = small_shape();
  select::SelectOptions opts;
  const auto cands = select::enumerate_candidates(s, opts);
  ASSERT_FALSE(cands.empty());
  bool direct = false, fft = false, wino = false;
  for (const auto& c : cands) {
    direct |= c.algorithm == select::Algorithm::kDirect;
    fft |= c.algorithm == select::Algorithm::kFft;
    wino |= c.algorithm == select::Algorithm::kWinograd;
    if (c.algorithm == select::Algorithm::kWinograd) {
      ASSERT_EQ(c.tile_m.rank(), 2);
      for (int d = 0; d < 2; ++d) {
        EXPECT_GE(c.tile_m[d], 2);
        EXPECT_LE(c.tile_m[d], opts.max_m);
        EXPECT_LE(c.tile_m[d] + s.kernel[d] - 1, 16);
      }
    }
  }
  EXPECT_TRUE(direct);
  EXPECT_TRUE(fft);
  EXPECT_TRUE(wino);
  for (std::size_t i = 1; i < cands.size(); ++i) {
    EXPECT_LE(cands[i - 1].est.cost, cands[i].est.cost);
  }
}

TEST(SelectEnumerate, ClassGatesAndAccuracyPrune) {
  const ConvShape s = small_shape();
  select::SelectOptions opts;
  opts.allow_direct = false;
  opts.allow_fft = false;
  for (const auto& c : select::enumerate_candidates(s, opts)) {
    EXPECT_EQ(c.algorithm, select::Algorithm::kWinograd);
  }
  // A zero accuracy budget rejects every Winograd tile (the bound is
  // strictly positive); the baseline classes remain.
  select::SelectOptions strict;
  strict.max_err_bound = 0.0;
  for (const auto& c : select::enumerate_candidates(s, strict)) {
    EXPECT_NE(c.algorithm, select::Algorithm::kWinograd);
  }
}

TEST(SelectEnumerate, ErrorBoundGrowsWithTileSize) {
  const Dims kernel = Dims{3, 3};
  double prev = 0;
  for (i64 m = 2; m <= 8; m += 2) {
    const double bound =
        select::winograd_error_bound(Dims::filled(2, m), kernel);
    EXPECT_GT(bound, prev);
    prev = bound;
  }
}

// --------------------------------------------------- selection caching ---

TEST(SelectConfig, SecondCallServedFromWisdomWithoutMeasurement) {
  TempFile f;
  const ConvShape s = small_shape();
  select::SelectOptions opts;
  opts.plan.wisdom_path = f.path();
  opts.plan.threads = 1;
  opts.budget_seconds = 0.2;
  opts.top_k = 2;

  const select::SelectedConfig first = select::select_config(s, opts);
  EXPECT_FALSE(first.from_wisdom);
  EXPECT_GT(first.measured, 0);
  EXPECT_GT(first.seconds, 0.0);

  const select::SelectedConfig second = select::select_config(s, opts);
  EXPECT_TRUE(second.from_wisdom);
  EXPECT_EQ(second.measured, 0);  // the acceptance criterion: no re-bench
  EXPECT_EQ(second.algorithm, first.algorithm);
  EXPECT_EQ(second.tile_m, first.tile_m);
  EXPECT_EQ(second.blocking.n_blk, first.blocking.n_blk);
  EXPECT_EQ(second.blocking.c_blk, first.blocking.c_blk);
  EXPECT_EQ(second.blocking.cp_blk, first.blocking.cp_blk);
}

TEST(SelectConfig, ModelOnlyModeMeasuresNothingAndIsNotPersisted) {
  TempFile f;
  const ConvShape s = small_shape();
  select::SelectOptions opts;
  opts.plan.wisdom_path = f.path();
  opts.measure = false;
  const select::SelectedConfig sel = select::select_config(s, opts);
  EXPECT_EQ(sel.measured, 0);
  EXPECT_FALSE(sel.from_wisdom);
  // Unmeasured guesses must not poison the wisdom cache.
  select::WisdomV2Store store(f.path());
  EXPECT_EQ(store.size(), 0u);
}

TEST(SelectConfig, RejectsUnblockedChannelCounts) {
  ConvShape s = small_shape();
  s.in_channels = 8;
  EXPECT_THROW(select::select_config(s), Error);
}

// ------------------------------------------------------------ AutoConv ---

// All three backends must compute the same cross-correlation (with fused
// bias/ReLU) on the same blocked layouts. The direct backend is the
// reference: it is a plain loop nest with no transform error.
TEST(AutoConv, BackendsAgreeIncludingEpilogue) {
  ConvShape s = small_shape();
  s.batch = 2;
  const ImageLayout in_l(s.batch, s.in_channels, s.image);
  const ImageLayout out_l(s.batch, s.out_channels, s.output());
  const KernelLayout k_l{s.in_channels, s.out_channels, s.kernel};

  AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
  AlignedBuffer<float> bias(static_cast<std::size_t>(s.out_channels));
  Rng rng(42);
  for (auto& v : in) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : w) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : bias) v = rng.uniform(-0.2f, 0.2f);
  Epilogue ep;
  ep.bias = bias.data();
  ep.relu = true;

  PlanOptions po;
  po.threads = 1;

  auto run = [&](select::Algorithm algo, Dims tile_m) {
    select::SelectedConfig cfg;
    cfg.algorithm = algo;
    cfg.tile_m = tile_m;
    select::AutoConv conv(s, cfg, po);
    EXPECT_FALSE(conv.kernels_ready());
    conv.set_kernels(w.data());
    EXPECT_TRUE(conv.kernels_ready());
    std::vector<float> out(static_cast<std::size_t>(out_l.total_floats()));
    conv.execute_pretransformed(in.data(), out.data(), ep);
    return out;
  };

  const auto ref = run(select::Algorithm::kDirect, {});
  const auto fft = run(select::Algorithm::kFft, {});
  const auto wino = run(select::Algorithm::kWinograd, Dims{4, 4});
  double fft_diff = 0, wino_diff = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    fft_diff = std::max(
        fft_diff, static_cast<double>(std::abs(ref[i] - fft[i])));
    wino_diff = std::max(
        wino_diff, static_cast<double>(std::abs(ref[i] - wino[i])));
  }
  EXPECT_LT(fft_diff, 1e-3);
  EXPECT_LT(wino_diff, 1e-3);
}

TEST(AutoConv, PlanAutoExecutesCorrectly) {
  TempFile f;
  const ConvShape s = small_shape();
  select::SelectOptions opts;
  opts.plan.wisdom_path = f.path();
  opts.plan.threads = 1;
  opts.budget_seconds = 0.1;
  opts.top_k = 1;

  auto conv = select::plan_auto(s, opts);
  ASSERT_NE(conv, nullptr);

  // Reference through the plain-layout naive oracle.
  std::vector<float> in_p(static_cast<std::size_t>(s.input_floats()));
  std::vector<float> w_p(static_cast<std::size_t>(s.weight_floats()));
  std::vector<float> ref(static_cast<std::size_t>(s.output_floats()));
  Rng rng(7);
  for (auto& v : in_p) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : w_p) v = rng.uniform(-0.5f, 0.5f);
  naive_conv(s, in_p.data(), w_p.data(), ref.data());

  const ImageLayout in_l(s.batch, s.in_channels, s.image);
  const ImageLayout out_l(s.batch, s.out_channels, s.output());
  const KernelLayout k_l{s.in_channels, s.out_channels, s.kernel};
  AlignedBuffer<float> in_b(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w_b(static_cast<std::size_t>(k_l.total_floats()));
  AlignedBuffer<float> out_b(static_cast<std::size_t>(out_l.total_floats()));
  pack_image(in_p.data(), in_b.data(), in_l);
  pack_kernels(w_p.data(), w_b.data(), k_l);
  conv->set_kernels(w_b.data());
  conv->execute_pretransformed(in_b.data(), out_b.data());
  std::vector<float> got(static_cast<std::size_t>(s.output_floats()));
  unpack_image(out_b.data(), got.data(), out_l);

  double diff = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    diff = std::max(diff, static_cast<double>(std::abs(ref[i] - got[i])));
  }
  EXPECT_LT(diff, 1e-3);
}

// ---------------------------------------------------------- Sequential ---

TEST(SelectSequential, AutoLayerMatchesFixedLayer) {
  TempFile f;
  PlanOptions po;
  po.threads = 1;
  po.wisdom_path = f.path();
  const Dims img = Dims{10, 10};
  const Dims k3 = Dims::filled(2, 3), p1 = Dims::filled(2, 1);

  Sequential fixed(1, 16, img, po);
  fixed.add_conv(16, k3, p1, Dims::filled(2, 2));
  Sequential autod(1, 16, img, po);
  select::SelectOptions sopts;
  sopts.budget_seconds = 0.1;
  sopts.top_k = 1;
  autod.add_conv_auto(16, k3, p1, /*relu=*/true, sopts);
  EXPECT_NE(autod.summary().find("auto["), std::string::npos);

  // Identical plain weights into both networks.
  std::vector<float> w(16 * 16 * 9);
  std::vector<float> b(16);
  Rng rng(11);
  for (auto& v : w) v = rng.uniform(-0.3f, 0.3f);
  for (auto& v : b) v = rng.uniform(-0.1f, 0.1f);
  fixed.set_conv_weights(0, w.data(), b.data());
  autod.set_conv_weights(0, w.data(), b.data());

  // The lowered conv node carries the planner's decision.
  const graph::Graph lowered = autod.to_graph();
  EXPECT_EQ(lowered.nodes()[0].config.algorithm,
            autod.selected_config(0).algorithm);

  graph::CompileOptions copts;
  copts.plan = po;
  graph::Executor fixed_exec(fixed.to_graph(), copts);
  graph::Executor auto_exec(autod.to_graph(), copts);
  const i64 sample = fixed.input_layout().total_floats();
  const i64 out_sample = fixed.output_layout().total_floats();
  AlignedBuffer<float> in(static_cast<std::size_t>(sample));
  for (auto& v : in) v = rng.uniform(-0.5f, 0.5f);
  std::vector<float> fixed_out(static_cast<std::size_t>(out_sample));
  std::vector<float> auto_out(fixed_out.size());
  fixed_exec.execute(in.data(), fixed_out.data());
  auto_exec.execute(in.data(), auto_out.data());

  double diff = 0;
  for (std::size_t i = 0; i < fixed_out.size(); ++i) {
    diff = std::max(diff,
                    static_cast<double>(std::abs(fixed_out[i] - auto_out[i])));
  }
  EXPECT_LT(diff, 1e-3);

  // A lowering at batch 2 re-selects at that batch size (the served
  // traffic path) and still carries the same weights.
  graph::Executor rep(autod.to_graph(2, po), copts);
  AlignedBuffer<float> in2(static_cast<std::size_t>(2 * sample));
  std::memcpy(in2.data(), in.data(),
              static_cast<std::size_t>(sample) * sizeof(float));
  std::memcpy(in2.data() + sample, in.data(),
              static_cast<std::size_t>(sample) * sizeof(float));
  std::vector<float> o2(2 * fixed_out.size());
  rep.execute(in2.data(), o2.data());
  double rep_diff = 0;
  for (std::size_t i = 0; i < fixed_out.size(); ++i) {
    rep_diff = std::max(
        {rep_diff, static_cast<double>(std::abs(fixed_out[i] - o2[i])),
         static_cast<double>(
             std::abs(fixed_out[i] - o2[fixed_out.size() + i]))});
  }
  EXPECT_LT(rep_diff, 1e-3);
}

// ------------------------------------------------------------- serving ---

// A planner-chosen conv model is a one-layer add_conv_auto network:
// served with register_network, it selects once, at max_batch, for the
// model's one executor and must agree with the fixed Winograd conv model
// on the same weights.
TEST(SelectServe, AutoSelectModelMatchesFixedModel) {
  TempFile f;
  ConvProblem p;
  p.shape = small_shape();
  p.tile_m = {2, 2};

  const KernelLayout k_l = p.kernel_layout();
  AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
  AlignedBuffer<float> sample(
      static_cast<std::size_t>(p.input_layout().total_floats()));
  Rng rng(3);
  for (auto& v : w) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : sample) v = rng.uniform(-0.5f, 0.5f);

  serve::InferenceServer server;
  serve::ModelConfig fixed;
  fixed.plan.threads = 1;
  serve::ModelConfig autod = fixed;
  autod.plan.wisdom_path = f.path();
  select::SelectOptions sopts;
  sopts.budget_seconds = 0.1;
  sopts.top_k = 1;
  auto net = std::make_shared<Sequential>(1, p.shape.in_channels,
                                          p.shape.image, autod.plan);
  net->add_conv_auto(p.shape.out_channels, p.shape.kernel, p.shape.padding,
                     /*relu=*/false, sopts);
  AlignedBuffer<float> plain(w.size());
  unpack_kernels(w.data(), plain.data(), k_l);
  net->set_conv_weights(0, plain.data(), nullptr);
  server.register_conv("fixed", p, w.data(), fixed);
  server.register_network("auto", net, autod);

  serve::ResultFuture ff = server.submit("fixed", sample.data());
  serve::ResultFuture fa = server.submit("auto", sample.data());
  const serve::InferenceResult rf = ff.get();
  const serve::InferenceResult ra = fa.get();
  ASSERT_EQ(rf.output.size(), ra.output.size());
  double diff = 0;
  for (std::size_t i = 0; i < rf.output.size(); ++i) {
    diff = std::max(diff, static_cast<double>(
                              std::abs(rf.output[i] - ra.output[i])));
  }
  EXPECT_LT(diff, 1e-3);
  server.shutdown();

  // The decision is in wisdom v2: a re-registered server serves the same
  // shape without re-measurement (the short-circuit itself is covered by
  // SelectConfig.SecondCallServedFromWisdomWithoutMeasurement; here we
  // just confirm the record exists for the served max_batch shape).
  select::WisdomV2Store store(f.path());
  EXPECT_GE(store.size(), 1u);
}

}  // namespace
}  // namespace ondwin
