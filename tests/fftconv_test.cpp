// Tests for ondwin::fftconv — the first-class FFT convolution engine —
// and the calibration plumbing that makes the planner's cost model
// bandwidth-aware: geometry (overlap-save tiling), oracle agreement on
// the Tbl.-3-representative shapes, fused epilogues, partial batches on
// a plan compiled for more samples, the AutoConv backend, machine-profile
// measurement and its "!cal" wisdom persistence.
#include "fftconv/fftconv_plan.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <fstream>
#include <vector>

#include "baseline/direct_conv.h"
#include "select/machine_profile.h"
#include "select/select.h"
#include "tensor/layout.h"
#include "util/rng.h"

namespace ondwin {
namespace {

class TempFile {
 public:
  TempFile() {
    char tmpl[] = "/tmp/ondwin_fftconv_XXXXXX";
    const int fd = mkstemp(tmpl);
    if (fd >= 0) close(fd);
    path_ = tmpl;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

ConvShape make_shape(i64 batch, i64 c, i64 cp, const Dims& image,
                     const Dims& kernel, const Dims& padding) {
  ConvShape s;
  s.batch = batch;
  s.in_channels = c;
  s.out_channels = cp;
  s.image = image;
  s.kernel = kernel;
  s.padding = padding;
  return s;
}

// Runs the engine on random data and returns the max abs deviation from
// the plain-layout naive oracle.
double engine_vs_oracle(const ConvShape& s, const Epilogue& ep = {},
                        const float* bias_plain = nullptr) {
  std::vector<float> in_p(static_cast<std::size_t>(s.input_floats()));
  std::vector<float> w_p(static_cast<std::size_t>(s.weight_floats()));
  std::vector<float> ref(static_cast<std::size_t>(s.output_floats()));
  Rng rng(0xF7C0);
  for (auto& v : in_p) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : w_p) v = rng.uniform(-0.5f, 0.5f);
  naive_conv(s, in_p.data(), w_p.data(), ref.data());
  if (ep.active()) {
    // Oracle epilogue: bias then ReLU per output channel.
    const ImageLayout out_l(s.batch, s.out_channels, s.output());
    const i64 px = out_l.pixels();
    for (i64 b = 0; b < s.batch; ++b) {
      for (i64 ch = 0; ch < s.out_channels; ++ch) {
        for (i64 p = 0; p < px; ++p) {
          float& v = ref[static_cast<std::size_t>((b * s.out_channels + ch) *
                                                      px +
                                                  p)];
          if (bias_plain != nullptr) v += bias_plain[ch];
          if (ep.relu) v = std::max(v, 0.0f);
        }
      }
    }
  }

  const ImageLayout in_l(s.batch, s.in_channels, s.image);
  const ImageLayout out_l(s.batch, s.out_channels, s.output());
  const KernelLayout k_l{s.in_channels, s.out_channels, s.kernel};
  AlignedBuffer<float> in_b(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w_b(static_cast<std::size_t>(k_l.total_floats()));
  AlignedBuffer<float> out_b(static_cast<std::size_t>(out_l.total_floats()));
  pack_image(in_p.data(), in_b.data(), in_l);
  pack_kernels(w_p.data(), w_b.data(), k_l);

  PlanOptions po;
  po.threads = 2;
  fftconv::FftConvPlan plan(s, po);
  EXPECT_FALSE(plan.kernels_ready());
  plan.set_kernels(w_b.data());
  EXPECT_TRUE(plan.kernels_ready());
  plan.execute_pretransformed(in_b.data(), out_b.data(), ep);

  std::vector<float> got(static_cast<std::size_t>(s.output_floats()));
  unpack_image(out_b.data(), got.data(), out_l);
  double diff = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    diff = std::max(diff, static_cast<double>(std::abs(ref[i] - got[i])));
  }
  return diff;
}

// ---------------------------------------------------------- geometry ----

TEST(FftGeometry, SmallImagesGetOneTile) {
  const ConvShape s = make_shape(2, 32, 32, {24, 24}, {3, 3}, {1, 1});
  const auto g = fftconv::fft_conv_geometry(s);
  // need = 24 + 2 + 2 = 28 → grid 32, one tile per dimension.
  EXPECT_EQ(g.grid[0], 32);
  EXPECT_EQ(g.grid[1], 32);
  EXPECT_EQ(g.tiles[0], 1);
  EXPECT_EQ(g.tiles[1], 1);
  EXPECT_EQ(g.bins, 32 * 17);  // Hermitian last dimension
  EXPECT_EQ(g.rows, 2);
}

TEST(FftGeometry, LargeImagesOverlapSaveTile) {
  const ConvShape s = make_shape(1, 16, 16, {56, 56}, {5, 5}, {2, 2});
  const auto g = fftconv::fft_conv_geometry(s);
  // need = 56 + 4 + 4 = 64 > 32 → capped grid 32, tile_out 28, 2 tiles.
  EXPECT_EQ(g.grid[0], 32);
  EXPECT_EQ(g.tile_out[0], 28);
  EXPECT_EQ(g.tiles[0], 2);
  EXPECT_EQ(g.rows, 4);
}

// ------------------------------------------------ oracle agreement ------

TEST(FftConvPlan, Matches2dOracle) {
  // The CI Table-3 accuracy shape.
  const ConvShape s = make_shape(2, 32, 32, {24, 24}, {3, 3}, {1, 1});
  EXPECT_LT(engine_vs_oracle(s), 1e-3);
}

TEST(FftConvPlan, Matches3dOracle) {
  const ConvShape s =
      make_shape(1, 32, 32, {10, 12, 12}, {3, 3, 3}, {1, 1, 1});
  EXPECT_LT(engine_vs_oracle(s), 1e-3);
}

TEST(FftConvPlan, MatchesDirectOnTable3Shapes) {
  // The exact shape set bench_table3_accuracy runs (CI defaults): the
  // VGG-representative 2D layer and the C3D-representative 3D layer.
  // The FFT path must agree with the direct reference within the same
  // max-abs tolerance the Winograd oracle checks use; this test carries
  // the tsan label and runs in the asan full suite, so the agreement is
  // verified under both sanitizers.
  const ConvShape table3[] = {
      make_shape(1, 32, 32, {24, 24}, {3, 3}, {1, 1}),
      make_shape(1, 32, 32, {10, 12, 12}, {3, 3, 3}, {1, 1, 1}),
  };
  for (const ConvShape& s : table3) {
    EXPECT_LT(engine_vs_oracle(s), 1e-3) << s.image.to_string();
  }
}

TEST(FftConvPlan, Matches1dOracle) {
  const ConvShape s = make_shape(3, 16, 32, {40}, {5}, {2});
  EXPECT_LT(engine_vs_oracle(s), 1e-3);
}

TEST(FftConvPlan, MatchesOracleAcrossOverlapSaveTiles) {
  // 56² forces the capped grid: 2×2 tiles of 28 valid outputs each.
  const ConvShape s = make_shape(1, 16, 16, {56, 56}, {5, 5}, {2, 2});
  EXPECT_LT(engine_vs_oracle(s), 1e-3);
}

TEST(FftConvPlan, MatchesOracleUnpaddedAndAsymmetric) {
  const ConvShape s = make_shape(1, 16, 16, {17, 26}, {5, 3}, {0, 2});
  EXPECT_LT(engine_vs_oracle(s), 1e-3);
}

TEST(FftConvPlan, FusedBiasReluMatchesOraclePostPass) {
  const ConvShape s = make_shape(1, 16, 16, {12, 12}, {3, 3}, {1, 1});
  std::vector<float> bias(static_cast<std::size_t>(s.out_channels));
  Rng rng(0xB1A5);
  for (auto& v : bias) v = rng.uniform(-0.2f, 0.2f);
  Epilogue ep;
  ep.bias = bias.data();
  ep.relu = true;
  EXPECT_LT(engine_vs_oracle(s, ep, bias.data()), 1e-3);
}

TEST(FftConvPlan, BlockingOverridesAccepted) {
  const ConvShape s = make_shape(4, 64, 64, {12, 12}, {3, 3}, {1, 1});
  PlanOptions po;
  po.threads = 1;
  Blocking b{2, 32, 32, 0};
  fftconv::FftConvPlan plan(s, po, b);
  EXPECT_EQ(plan.blocking().n_blk, 2);
  EXPECT_EQ(plan.blocking().c_blk, 32);
  EXPECT_EQ(plan.blocking().cp_blk, 32);
  // Invalid overrides fall back to heuristics instead of throwing.
  Blocking bad{99, 24, 1000, 0};
  fftconv::FftConvPlan plan2(s, po, bad);
  EXPECT_EQ(plan2.blocking().c_blk, 64);
  EXPECT_EQ(plan2.blocking().cp_blk, 64);
}

// ------------------------------------------------ partial batches ------

// A plan compiled for B samples runs any n ≤ B of them: sample i of every
// n-sample run is bitwise equal to a batch-1 plan's output for it, with
// one overlap-save tile per sample and with several (so n · tiles is a
// multiple of the row block for some n and not for others).
TEST(FftConvPlan, AnyBatchUpToCompiledMatchesBatchOneBitwise) {
  for (const Dims img : {Dims{12, 12}, Dims{40, 23}}) {
    constexpr i64 kB = 4;
    const Dims k3 = {3, 3}, p1 = {1, 1};
    SCOPED_TRACE("image " + img.to_string());
    const ConvShape s1 = make_shape(1, 16, 32, img, k3, p1);
    const ConvShape sb = make_shape(kB, 16, 32, img, k3, p1);
    const KernelLayout k_l{16, 32, k3};
    const ImageLayout in_l(kB, 16, img), out_l(kB, 32, s1.output());
    AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
    AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
    Rng rng(0xADB7);
    for (auto& v : w) v = rng.uniform(-0.5f, 0.5f);
    for (auto& v : in) v = rng.uniform(-0.5f, 0.5f);
    const std::size_t sin = in.size() / kB;
    const auto sout = static_cast<std::size_t>(out_l.total_floats() / kB);

    PlanOptions po;
    po.threads = 2;
    fftconv::FftConvPlan one(s1, po);
    one.set_kernels(w.data());
    std::vector<float> expected(kB * sout);
    for (std::size_t i = 0; i < kB; ++i) {
      one.execute_pretransformed(in.data() + i * sin,
                                 expected.data() + i * sout);
    }
    fftconv::FftConvPlan plan(sb, po);
    plan.set_kernels(w.data());
    for (i64 n = kB; n >= 1; --n) {
      std::vector<float> out(kB * sout, -1.0f);
      plan.execute_pretransformed(in.data(), out.data(), {}, n);
      const std::size_t valid = static_cast<std::size_t>(n) * sout;
      EXPECT_EQ(std::memcmp(out.data(), expected.data(),
                            valid * sizeof(float)),
                0)
          << "n = " << n;
      // Samples past n are not written.
      EXPECT_EQ(std::count(out.begin() + static_cast<std::ptrdiff_t>(valid),
                           out.end(), -1.0f),
                static_cast<std::ptrdiff_t>(out.size() - valid))
          << "n = " << n;
    }
  }
}

// ------------------------------------------------------ observability ---

TEST(FftConvPlan, TotalsAndStatuszTrackActivity) {
  const auto before = fftconv::fftconv_totals();
  const ConvShape s = make_shape(1, 16, 16, {8, 8}, {3, 3}, {1, 1});
  PlanOptions po;
  po.threads = 1;
  fftconv::FftConvPlan plan(s, po);
  const KernelLayout k_l{16, 16, s.kernel};
  AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
  plan.set_kernels(w.data());
  const ImageLayout io(1, 16, s.image);
  AlignedBuffer<float> buf(static_cast<std::size_t>(io.total_floats()));
  AlignedBuffer<float> out(static_cast<std::size_t>(io.total_floats()));
  plan.execute_pretransformed(buf.data(), out.data());

  const auto after = fftconv::fftconv_totals();
  EXPECT_EQ(after.plans, before.plans + 1);
  EXPECT_EQ(after.executes, before.executes + 1);
  EXPECT_GT(after.workspace_bytes, 0);
  EXPECT_GT(plan.workspace_bytes(), 0);

  fftconv::note_selection("fft");
  fftconv::note_selection("winograd");
  const auto sel = fftconv::fftconv_totals();
  EXPECT_EQ(sel.selected_fft, after.selected_fft + 1);
  EXPECT_EQ(sel.selected_other, after.selected_other + 1);

  const std::string report = fftconv::statusz_report();
  EXPECT_NE(report.find("fftconv:"), std::string::npos);
  EXPECT_NE(report.find("fft_tables_cached"), std::string::npos);
}

// ------------------------------------------------------- AutoConv -------

TEST(FftConvAutoConv, BackendMatchesDirect) {
  const ConvShape s = make_shape(2, 16, 16, {14, 14}, {5, 5}, {2, 2});
  const ImageLayout in_l(s.batch, s.in_channels, s.image);
  const ImageLayout out_l(s.batch, s.out_channels, s.output());
  const KernelLayout k_l{s.in_channels, s.out_channels, s.kernel};
  AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
  Rng rng(0xAC0);
  for (auto& v : in) v = rng.uniform(-0.5f, 0.5f);
  for (auto& v : w) v = rng.uniform(-0.5f, 0.5f);
  PlanOptions po;
  po.threads = 1;

  auto run = [&](select::Algorithm algo) {
    select::SelectedConfig cfg;
    cfg.algorithm = algo;
    select::AutoConv conv(s, cfg, po);
    conv.set_kernels(w.data());
    std::vector<float> out(static_cast<std::size_t>(out_l.total_floats()));
    conv.execute_pretransformed(in.data(), out.data());
    return out;
  };
  const auto ref = run(select::Algorithm::kDirect);
  const auto fft = run(select::Algorithm::kFft);
  double diff = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    diff = std::max(diff, static_cast<double>(std::abs(ref[i] - fft[i])));
  }
  EXPECT_LT(diff, 1e-3);

  select::SelectedConfig cfg;
  cfg.algorithm = select::Algorithm::kFft;
  select::AutoConv a(s, cfg, po);
  EXPECT_FALSE(a.kernels_ready());
  a.set_kernels(w.data());
  EXPECT_TRUE(a.kernels_ready());
  EXPECT_GT(a.workspace_bytes(), 0);
}

// --------------------------------------- machine profile / calibration --

TEST(MachineProfile, MeasuredProfileIsSane) {
  const select::MachineProfile& p = select::measured_machine_profile();
  EXPECT_TRUE(p.measured);
  EXPECT_GT(p.stream_gbps, 0.0);
  EXPECT_GT(p.llc_bytes, 0.0);
  EXPECT_GT(p.gemm_gflops, 0.0);
  // Second call returns the cached object — no re-measurement.
  EXPECT_EQ(&p, &select::measured_machine_profile());
}

TEST(MachineProfile, PersistsAndReloadsCalibration) {
  TempFile f;
  const select::MachineProfile first = select::machine_profile(f.path());
  EXPECT_TRUE(first.measured);

  // The wisdom file now carries a !cal line other stores preserve.
  select::WisdomV2Store store(f.path());
  const auto cal = store.calibration();
  ASSERT_TRUE(cal.has_value());
  EXPECT_NEAR(cal->stream_gbps, first.stream_gbps,
              1e-4 * first.stream_gbps);
  EXPECT_NEAR(cal->gemm_gflops, first.gemm_gflops,
              1e-4 * first.gemm_gflops);

  // A selection store() rewrite keeps the calibration.
  select::SelectionRecord rec;
  rec.algorithm = select::Algorithm::kFft;
  rec.blocking = {4, 16, 16, 0};
  ASSERT_TRUE(store.store("some_shape_key", rec));
  select::WisdomV2Store reread(f.path());
  EXPECT_TRUE(reread.calibration().has_value());
  EXPECT_TRUE(reread.lookup("some_shape_key").has_value());
}

TEST(MachineProfile, MalformedCalibrationIsIgnored) {
  TempFile f;
  {
    std::ofstream out(f.path());
    out << "!cal 1 -3.0 bogus 1.0\n";
    out << "!cal 7 1.0 2.0 3.0\n";  // future version
  }
  select::WisdomV2Store store(f.path());
  EXPECT_FALSE(store.calibration().has_value());
}

TEST(CostModel, CalibratedEstimatesPredictSeconds) {
  const ConvShape s = make_shape(1, 64, 64, {56, 56}, {3, 3}, {1, 1});
  select::MachineProfile prof;  // defaults, no measurement needed
  const auto wino =
      select::estimate_winograd(s, Dims{4, 4}, &prof);
  const auto fft = select::estimate_fft(s, &prof);
  const auto direct = select::estimate_direct(s, &prof);
  for (const auto* e : {&wino, &fft, &direct}) {
    EXPECT_GT(e->seconds, 0.0);
    EXPECT_NEAR(e->cost, e->seconds * 1e9, 1e-3 * e->cost);
    EXPECT_GT(e->flops, 0.0);
    EXPECT_GT(e->bytes, 0.0);
  }
  // Uncalibrated estimates keep the legacy scale and no wall-time claim.
  const auto legacy = select::estimate_winograd(s, Dims{4, 4});
  EXPECT_EQ(legacy.seconds, 0.0);

  // 3×3 at this size is Winograd's home turf under any sane profile.
  EXPECT_LT(wino.cost, fft.cost);

  // A 7³ kernel flips the ratio towards FFT: transform flops are
  // kernel-independent while Winograd's admissible tiles shrink.
  const ConvShape big =
      make_shape(1, 64, 64, {36, 36, 36}, {7, 7, 7}, {3, 3, 3});
  const auto wino_big = select::estimate_winograd(big, Dims{2, 2, 2}, &prof);
  const auto fft_big = select::estimate_fft(big, &prof);
  EXPECT_LT(fft_big.cost, wino_big.cost);
}

TEST(SelectIntegration, PlannerUsesFftEngineAndCountsSelections) {
  TempFile f;
  const ConvShape s = make_shape(1, 16, 16, {12, 12}, {5, 5}, {2, 2});
  select::SelectOptions opts;
  opts.plan.wisdom_path = f.path();
  opts.plan.threads = 1;
  opts.budget_seconds = 0.2;
  opts.top_k = 2;
  opts.allow_winograd = false;
  opts.allow_direct = false;  // force the FFT class end-to-end

  const auto before = fftconv::fftconv_totals();
  auto conv = select::plan_auto(s, opts);
  ASSERT_NE(conv, nullptr);
  EXPECT_EQ(conv->config().algorithm, select::Algorithm::kFft);
  const auto after = fftconv::fftconv_totals();
  EXPECT_EQ(after.selected_fft, before.selected_fft + 1);
  EXPECT_GT(after.plans, before.plans);  // measurement built real plans

  // The decision (and the calibration) persisted: a second call is a
  // wisdom hit that still counts a selection.
  const auto sel2 = select::select_config(s, opts);
  EXPECT_TRUE(sel2.from_wisdom);
  EXPECT_EQ(fftconv::fftconv_totals().selected_fft, after.selected_fft + 1);
  EXPECT_TRUE(select::WisdomV2Store(f.path()).calibration().has_value());
}

}  // namespace
}  // namespace ondwin
