// Reduced-precision pipeline coverage (DESIGN.md §15):
//
//   * the convert layer — round-to-nearest-even ties, denormal/Inf/NaN
//     handling pinned to the AVX-512 instruction semantics, and bitwise
//     parity of the scalar, emulated, and native tiers;
//   * conv execution — staged==fused and JIT==reference bitwise under
//     bf16/fp16 storage, run-to-run determinism, and measured error
//     within the planner's storage-error proxy;
//   * planning — resolve_storage_precision admit/demote, select_config
//     never emitting a budget-violating precision, and the wisdom v2
//     `prec=` token
//     (round-trip, optional/malformed parsing, v1-store preservation,
//     stale-precision fallback to re-selection).
#include "util/precision.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/direct_conv.h"
#include "core/conv_plan.h"
#include "core/plan_options.h"
#include "graph/executor.h"
#include "net/sequential.h"
#include "select/cost_model.h"
#include "select/select.h"
#include "select/wisdom2.h"
#include "tensor/layout.h"
#include "util/rng.h"

namespace ondwin {
namespace {

u32 f2u(float f) {
  u32 u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

float u2f(u32 u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// ------------------------------------------------------ convert layer ---

TEST(Convert, Bf16RoundNearestEvenTies) {
  // Exactly representable values pass through.
  EXPECT_EQ(fp32_to_bf16(1.0f), 0x3F80);
  EXPECT_EQ(fp32_to_bf16(-2.5f), 0xC020);
  EXPECT_EQ(fp32_to_bf16(0.0f), 0x0000);
  EXPECT_EQ(fp32_to_bf16(-0.0f), 0x8000);

  // Ties (dropped mantissa exactly 0x8000) round to the even bf16 word:
  // between 0x3F80 and 0x3F81 → 0x3F80; between 0x3F81 and 0x3F82 →
  // 0x3F82. One ulp above the tie rounds up.
  EXPECT_EQ(fp32_to_bf16(u2f(0x3F808000)), 0x3F80);
  EXPECT_EQ(fp32_to_bf16(u2f(0x3F818000)), 0x3F82);
  EXPECT_EQ(fp32_to_bf16(u2f(0x3F808001)), 0x3F81);
  EXPECT_EQ(fp32_to_bf16(u2f(0x3F817FFF)), 0x3F81);
}

TEST(Convert, Bf16SpecialValues) {
  // DAZ: fp32 denormal inputs flush to signed zero (vcvtneps2bf16
  // semantics — MXCSR.DAZ is architecturally forced for this pipeline).
  EXPECT_EQ(fp32_to_bf16(u2f(0x00000001)), 0x0000);
  EXPECT_EQ(fp32_to_bf16(u2f(0x007FFFFF)), 0x0000);
  EXPECT_EQ(fp32_to_bf16(u2f(0x80000001)), 0x8000);
  EXPECT_EQ(fp32_to_bf16(u2f(0x807FFFFF)), 0x8000);

  // Infinities survive; NaNs are truncated and quieted ((u>>16) | 0x40).
  EXPECT_EQ(fp32_to_bf16(u2f(0x7F800000)), 0x7F80);
  EXPECT_EQ(fp32_to_bf16(u2f(0xFF800000)), 0xFF80);
  EXPECT_EQ(fp32_to_bf16(u2f(0x7FC00000)), 0x7FC0);
  EXPECT_EQ(fp32_to_bf16(u2f(0x7F800001)), 0x7FC0);  // sNaN quieted
  EXPECT_EQ(fp32_to_bf16(u2f(0xFFAB1234)), 0xFFEB);
}

TEST(Convert, Bf16WidenIsBitShift) {
  // Widening a bf16 word is exact: the fp32 pattern is the word shifted
  // into the high half. Exhaustive over all 2^16 patterns (NaNs checked
  // by property — payload propagation is the same shift).
  for (u32 h = 0; h < 0x10000; ++h) {
    const float f = bf16_to_fp32(static_cast<u16>(h));
    const u32 exp = (h >> 7) & 0xFF;
    const u32 man = h & 0x7F;
    if (exp == 0xFF && man != 0) {
      EXPECT_TRUE(std::isnan(f)) << "h=" << h;
    } else {
      EXPECT_EQ(f2u(f), h << 16) << "h=" << h;
    }
  }
}

TEST(Convert, Fp16KnownValues) {
  EXPECT_EQ(fp32_to_fp16(1.0f), 0x3C00);
  EXPECT_EQ(fp32_to_fp16(0.5f), 0x3800);
  EXPECT_EQ(fp32_to_fp16(-2.5f), 0xC100);
  EXPECT_EQ(fp32_to_fp16(65504.0f), 0x7BFF);  // fp16 max finite
  EXPECT_EQ(fp32_to_fp16(-0.0f), 0x8000);

  // Overflow → infinity (vcvtps2ph with RNE).
  EXPECT_EQ(fp32_to_fp16(65536.0f), 0x7C00);
  EXPECT_EQ(fp32_to_fp16(1e30f), 0x7C00);
  EXPECT_EQ(fp32_to_fp16(-1e30f), 0xFC00);

  // Denormal *outputs* are produced (unlike the bf16 DAZ input rule):
  // 2^-24 is the smallest fp16 denormal; 2^-25 ties down to zero (even),
  // 1.5·2^-24 ties up to 0x0002 (even); 2^-14 is the smallest normal.
  EXPECT_EQ(fp32_to_fp16(std::ldexp(1.0f, -24)), 0x0001);
  EXPECT_EQ(fp32_to_fp16(std::ldexp(1.0f, -25)), 0x0000);
  EXPECT_EQ(fp32_to_fp16(std::ldexp(3.0f, -25)), 0x0002);
  EXPECT_EQ(fp32_to_fp16(std::ldexp(1.0f, -14)), 0x0400);

  // NaN narrows to a quiet NaN (exponent all-ones, quiet bit set) and
  // widens back to a NaN.
  const u16 qnan = fp32_to_fp16(u2f(0x7FC00001));
  EXPECT_EQ(qnan & 0x7C00, 0x7C00);
  EXPECT_NE(qnan & 0x0200, 0);
  EXPECT_TRUE(std::isnan(fp16_to_fp32(qnan)));
  EXPECT_TRUE(std::isnan(fp16_to_fp32(fp32_to_fp16(u2f(0x7F800001)))));
}

TEST(Convert, Fp16TiesToEven) {
  // fp16 keeps 10 mantissa bits of the fp32 23; a tie is dropped bits ==
  // 0x1000. 1 + 2^-11 ties down to 1.0 (even), 1 + 3·2^-11 ties up to
  // 0x3C02 (even), one ulp above a tie rounds up.
  EXPECT_EQ(fp32_to_fp16(u2f(0x3F801000)), 0x3C00);
  EXPECT_EQ(fp32_to_fp16(u2f(0x3F803000)), 0x3C02);
  EXPECT_EQ(fp32_to_fp16(u2f(0x3F801001)), 0x3C01);
}

TEST(Convert, Fp16RoundTripExact) {
  // Widening is exact, so narrow(widen(h)) == h for every non-NaN fp16
  // pattern — including denormals, infinities, and both zeros.
  for (u32 h = 0; h < 0x10000; ++h) {
    const u32 exp = (h >> 10) & 0x1F;
    const u32 man = h & 0x3FF;
    if (exp == 0x1F && man != 0) continue;  // NaN payloads may quieten
    const float f = fp16_to_fp32(static_cast<u16>(h));
    EXPECT_EQ(fp32_to_fp16(f), h) << "h=" << h;
  }
}

// Random fp32 data with the interesting corners injected: specials, tie
// patterns, denormals, and values around the fp16 overflow threshold.
std::vector<float> corner_laden_buffer(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<float> buf(n);
  for (auto& v : buf) v = rng.uniform(-4.0f, 4.0f);
  const u32 corners[] = {0x7F800000, 0xFF800000, 0x7FC00000, 0x7F800001,
                         0x00000001, 0x807FFFFF, 0x3F808000, 0x3F818000,
                         0x3F801000, 0x3F803000, 0x00000000, 0x80000000,
                         0x477FE000, 0x47800000, 0x33800000, 0x33000000};
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_double() < 0.1) {
      buf[i] = u2f(corners[static_cast<std::size_t>(rng.next_u64() %
                                                    std::size(corners))]);
    }
  }
  return buf;
}

TEST(Convert, TierParityNarrow) {
  // Every available tier must narrow bitwise identically to the scalar
  // reference — on every length (vector body + masked tail) and on the
  // special values. This is the "emulated fallback identical to the
  // AVX-512 path" acceptance invariant at the convert layer.
  for (const Precision prec : {Precision::kBf16, Precision::kFp16}) {
    for (const std::size_t n : {1u, 7u, 16u, 33u, 255u, 1024u, 1037u}) {
      const std::vector<float> src = corner_laden_buffer(n, 0xC0DE + n);
      std::vector<u16> want(n, 0xABAB);
      convert_fp32_to_storage_tier(prec, ConvertTier::kScalar, src.data(),
                                   want.data(), static_cast<i64>(n));
      for (const ConvertTier tier :
           {ConvertTier::kAvx512Emul, ConvertTier::kNative}) {
        if (!convert_tier_available(prec, tier)) continue;
        std::vector<u16> got(n, 0xCDCD);
        convert_fp32_to_storage_tier(prec, tier, src.data(), got.data(),
                                     static_cast<i64>(n));
        ASSERT_EQ(std::memcmp(want.data(), got.data(), n * sizeof(u16)), 0)
            << precision_name(prec) << " tier " << static_cast<int>(tier)
            << " n=" << n;
      }
      // The dispatching bulk entry point resolves to one of the tiers and
      // must agree with all of them.
      std::vector<u16> dispatched(n, 0xEFEF);
      convert_fp32_to_storage(prec, src.data(), dispatched.data(),
                              static_cast<i64>(n));
      ASSERT_EQ(
          std::memcmp(want.data(), dispatched.data(), n * sizeof(u16)), 0);
    }
  }
}

TEST(Convert, TierParityWiden) {
  for (const Precision prec : {Precision::kBf16, Precision::kFp16}) {
    for (const std::size_t n : {1u, 7u, 16u, 33u, 255u, 1024u, 1037u}) {
      // Drive the widen tiers with narrowed real data plus raw random
      // words (covers denormal and special storage patterns).
      const std::vector<float> src = corner_laden_buffer(n, 0xF00D + n);
      std::vector<u16> words(n);
      convert_fp32_to_storage(prec, src.data(), words.data(),
                              static_cast<i64>(n));
      Rng rng(0xBEEF + n);
      for (std::size_t i = 0; i + 1 < n; i += 2) {
        words[i + 1] = static_cast<u16>(rng.next_u64());
      }
      std::vector<float> want(n, -123.0f);
      convert_storage_to_fp32_tier(prec, ConvertTier::kScalar, words.data(),
                                   want.data(), static_cast<i64>(n));
      for (const ConvertTier tier :
           {ConvertTier::kAvx512Emul, ConvertTier::kNative}) {
        if (!convert_tier_available(prec, tier)) continue;
        std::vector<float> got(n, 123.0f);
        convert_storage_to_fp32_tier(prec, tier, words.data(), got.data(),
                                     static_cast<i64>(n));
        ASSERT_EQ(std::memcmp(want.data(), got.data(), n * sizeof(float)),
                  0)
            << precision_name(prec) << " tier " << static_cast<int>(tier)
            << " n=" << n;
      }
      std::vector<float> dispatched(n);
      convert_storage_to_fp32(prec, words.data(), dispatched.data(),
                              static_cast<i64>(n));
      ASSERT_EQ(
          std::memcmp(want.data(), dispatched.data(), n * sizeof(float)),
          0);
    }
  }
}

TEST(Convert, NameParseRoundTrip) {
  for (const Precision p :
       {Precision::kFp32, Precision::kBf16, Precision::kFp16}) {
    Precision back;
    ASSERT_TRUE(parse_precision(precision_name(p), &back));
    EXPECT_EQ(back, p);
  }
  Precision p;
  EXPECT_FALSE(parse_precision("fp64", &p));
  EXPECT_FALSE(parse_precision("", &p));
  EXPECT_EQ(precision_bytes(Precision::kFp32), 4);
  EXPECT_EQ(precision_bytes(Precision::kBf16), 2);
  EXPECT_EQ(precision_bytes(Precision::kFp16), 2);
}

// -------------------------------------------------- conv execution ------

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

struct ConvData {
  AlignedBuffer<float> in, w;
  std::vector<float> bias;
  ImageLayout in_l, out_l;
  KernelLayout k_l;
};

ConvData make_data(const ConvProblem& p, u64 seed) {
  ConvData d;
  d.in_l = p.input_layout();
  d.out_l = p.output_layout();
  d.k_l = p.kernel_layout();
  d.in.reset(static_cast<std::size_t>(d.in_l.total_floats()));
  d.w.reset(static_cast<std::size_t>(d.k_l.total_floats()));
  Rng rng(seed);
  for (auto& v : d.in) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : d.w) v = rng.uniform(-1.0f, 1.0f);
  d.bias.resize(static_cast<std::size_t>(p.shape.out_channels));
  for (auto& v : d.bias) v = rng.uniform(-0.5f, 0.5f);
  return d;
}

AlignedBuffer<float> run_plan(const ConvProblem& p, const ConvData& d,
                              const PlanOptions& opts,
                              bool with_epilogue = false) {
  AlignedBuffer<float> out(static_cast<std::size_t>(d.out_l.total_floats()));
  out.fill_zero();
  Epilogue ep;
  if (with_epilogue) {
    ep.bias = d.bias.data();
    ep.relu = true;
  }
  ConvPlan plan(p, opts);
  plan.execute(d.in.data(), d.w.data(), out.data(), ep);
  return out;
}

TEST(ConvPrecision, StagedEqualsFusedBitwise) {
  // The fused pipeline must stay a pure scheduling transformation under
  // reduced storage: same converts, same dot products, same order —
  // bitwise identity, with and without the fused epilogue, with and
  // without the in-GEMM scatter.
  const ConvProblem p =
      make_problem(2, 32, 48, {12, 12}, {3, 3}, {1, 1}, {4, 4});
  for (const Precision prec : {Precision::kBf16, Precision::kFp16}) {
    for (const bool jit : {true, false}) {
      for (const bool scatter : {true, false}) {
        const ConvData d = make_data(p, 0x5EED);
        PlanOptions o;
        o.threads = 3;
        o.precision = prec;
        o.use_jit = jit;
        o.scatter_in_gemm = scatter;

        o.fusion = FusionMode::kStaged;
        const AlignedBuffer<float> staged = run_plan(p, d, o, true);
        o.fusion = FusionMode::kFused;
        const AlignedBuffer<float> fused = run_plan(p, d, o, true);
        ASSERT_EQ(std::memcmp(staged.data(), fused.data(),
                              staged.size() * sizeof(float)),
                  0)
            << precision_name(prec) << " jit=" << jit
            << " scatter=" << scatter;
      }
    }
  }
}

TEST(ConvPrecision, JitMatchesReferenceBitwise) {
  // Under reduced storage every bf16/fp16 product is exact in fp32, so
  // the JIT microkernel (vdpbf16ps / widen+FMA) and the portable
  // reference kernel compute identical sums — the emulated fallback is
  // bitwise indistinguishable from the AVX-512 path end to end.
  const ConvProblem p =
      make_problem(2, 32, 48, {12, 12}, {3, 3}, {1, 1}, {4, 4});
  for (const Precision prec : {Precision::kBf16, Precision::kFp16}) {
    for (const FusionMode fm : {FusionMode::kStaged, FusionMode::kFused}) {
      const ConvData d = make_data(p, 0x71C0);
      PlanOptions o;
      o.threads = 3;
      o.precision = prec;
      o.fusion = fm;

      o.use_jit = true;
      const AlignedBuffer<float> jit = run_plan(p, d, o);
      o.use_jit = false;
      const AlignedBuffer<float> ref = run_plan(p, d, o);
      ASSERT_EQ(
          std::memcmp(jit.data(), ref.data(), jit.size() * sizeof(float)),
          0)
          << precision_name(prec) << " fused=" << (fm == FusionMode::kFused);
    }
  }
}

TEST(ConvPrecision, RunToRunDeterministic) {
  const ConvProblem p =
      make_problem(1, 32, 32, {10, 10}, {3, 3}, {1, 1}, {4, 4});
  const ConvData d = make_data(p, 0xD373);
  PlanOptions o;
  o.threads = 3;
  o.precision = Precision::kBf16;
  const AlignedBuffer<float> a = run_plan(p, d, o, true);
  const AlignedBuffer<float> b = run_plan(p, d, o, true);
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(ConvPrecision, ErrorWithinPlannerBound) {
  // The measured max relative error of a reduced-precision execution must
  // sit below the planner's worst-case storage-error proxy for that tile
  // — the bound select_config admits or demotes by. fp32 must stay orders
  // of magnitude tighter (proves reduced storage was actually engaged).
  ConvProblem p = make_problem(1, 32, 32, {12, 12}, {3, 3}, {1, 1}, {4, 4});
  const ImageLayout in_l = p.input_layout();
  const ImageLayout out_l = p.output_layout();
  const KernelLayout k_l = p.kernel_layout();

  std::vector<float> in_plain(
      static_cast<std::size_t>(p.shape.input_floats()));
  std::vector<float> w_plain(
      static_cast<std::size_t>(p.shape.weight_floats()));
  Rng rng(0x9A9A);
  for (auto& v : in_plain) v = rng.uniform(-0.1f, 0.1f);
  for (auto& v : w_plain) v = rng.uniform(-0.1f, 0.1f);
  AlignedBuffer<float> in_b(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w_b(static_cast<std::size_t>(k_l.total_floats()));
  pack_image(in_plain.data(), in_b.data(), in_l);
  pack_kernels(w_plain.data(), w_b.data(), k_l);

  const auto gt =
      naive_conv_longdouble(p.shape, in_plain.data(), w_plain.data());
  long double gt_max = 0;
  for (const long double v : gt) gt_max = std::max(gt_max, std::abs(v));
  ASSERT_GT(static_cast<double>(gt_max), 0.0);

  std::vector<float> got(gt.size());
  double rel[3] = {0, 0, 0};
  for (const Precision prec :
       {Precision::kFp32, Precision::kBf16, Precision::kFp16}) {
    PlanOptions o;
    o.threads = 2;
    o.precision = prec;
    ConvPlan plan(p, o);
    AlignedBuffer<float> out(
        static_cast<std::size_t>(out_l.total_floats()));
    plan.execute(in_b.data(), w_b.data(), out.data());
    EXPECT_EQ(plan.precision(), prec);
    unpack_image(out.data(), got.data(), out_l);
    long double worst = 0;
    for (std::size_t i = 0; i < gt.size(); ++i) {
      worst = std::max(worst,
                       std::abs(static_cast<long double>(got[i]) - gt[i]));
    }
    rel[static_cast<int>(prec)] = static_cast<double>(worst / gt_max);
    if (prec != Precision::kFp32) {
      const double bound = select::winograd_storage_error_bound(
          prec, p.tile_m, p.shape.kernel);
      EXPECT_LT(rel[static_cast<int>(prec)], bound)
          << precision_name(prec);
    }
  }
  // Reduced storage is really in the loop: bf16 error far above fp32's,
  // fp16 between fp32 and bf16 (three more mantissa bits than bf16).
  EXPECT_GT(rel[1], 100.0 * rel[0]);
  EXPECT_GT(rel[2], rel[0]);
  EXPECT_LT(rel[2], rel[1]);
}

TEST(ConvPrecision, StatsReportHalvedStorageBytes) {
  const ConvProblem p =
      make_problem(1, 32, 32, {12, 12}, {3, 3}, {1, 1}, {4, 4});
  const ConvData d = make_data(p, 0xB17E);

  auto stats_for = [&](Precision prec) {
    PlanOptions o;
    o.threads = 2;
    o.precision = prec;
    ConvPlan plan(p, o);
    AlignedBuffer<float> out(
        static_cast<std::size_t>(d.out_l.total_floats()));
    plan.execute(d.in.data(), d.w.data(), out.data());
    return plan.last_stats();
  };

  const ConvPlanStats f32 = stats_for(Precision::kFp32);
  const ConvPlanStats b16 = stats_for(Precision::kBf16);
  EXPECT_EQ(f32.precision, Precision::kFp32);
  EXPECT_EQ(b16.precision, Precision::kBf16);
  ASSERT_GT(f32.u_bytes, 0);
  ASSERT_GT(f32.w_bytes, 0);
  ASSERT_GT(f32.iout_bytes, 0);
  EXPECT_EQ(b16.u_bytes * 2, f32.u_bytes);
  EXPECT_EQ(b16.w_bytes * 2, f32.w_bytes);
  EXPECT_EQ(b16.iout_bytes * 2, f32.iout_bytes);
}

// ------------------------------------------------------- planning -------

TEST(Planning, StorageErrorBound) {
  // fp32 storage is lossless — the bound is identically zero.
  EXPECT_EQ(select::winograd_storage_error_bound(Precision::kFp32, {6, 6},
                                                 {3, 3}),
            0.0);

  // F(2,3): ‖Aᵀ‖₁ = 3 exactly, so the 2-D bf16 bound is
  // 2 · 2^-8 · 3² = 0.0703125 — and fp16 sits exactly 8× lower
  // (2^-11 vs 2^-8 unit roundoff), same amplification.
  const double b2 = select::winograd_storage_error_bound(Precision::kBf16,
                                                         {2, 2}, {3, 3});
  EXPECT_NEAR(b2, 0.0703125, 1e-12);
  const double f2 = select::winograd_storage_error_bound(Precision::kFp16,
                                                         {2, 2}, {3, 3});
  EXPECT_NEAR(b2 / f2, 8.0, 1e-9);

  // Monotone in tile size; F(8,3)² blows far past any sane budget.
  const double b4 = select::winograd_storage_error_bound(Precision::kBf16,
                                                         {4, 4}, {3, 3});
  const double b6 = select::winograd_storage_error_bound(Precision::kBf16,
                                                         {6, 6}, {3, 3});
  const double b8 = select::winograd_storage_error_bound(Precision::kBf16,
                                                         {8, 8}, {3, 3});
  EXPECT_LT(b2, b4);
  EXPECT_LT(b4, b6);
  EXPECT_LT(b6, b8);
  EXPECT_GT(b8, 1e4);
}

TEST(Planning, ResolveStoragePrecision) {
  const select::SelectOptions defaults;
  const double budget = defaults.max_storage_err;

  // fp32 requests are never touched.
  EXPECT_EQ(select::resolve_storage_precision(Precision::kFp32, {8, 8},
                                              {3, 3}, budget),
            Precision::kFp32);

  // Calibrated admit/demote table at the default budget (select.h doc):
  // bf16 holds through F(6,3)² (≈35) and F(4,3)³ (≈54), demotes F(6,3)³
  // (≈2350) and F(8,3)²; fp16 bounds are 8× lower but F(4×6²,3³) (≈83)
  // still exceeds the budget — both reduced precisions demote there.
  EXPECT_EQ(select::resolve_storage_precision(Precision::kBf16, {4, 4},
                                              {3, 3}, budget),
            Precision::kBf16);
  EXPECT_EQ(select::resolve_storage_precision(Precision::kBf16, {6, 6},
                                              {3, 3}, budget),
            Precision::kBf16);
  EXPECT_EQ(select::resolve_storage_precision(Precision::kBf16, {4, 4, 4},
                                              {3, 3, 3}, budget),
            Precision::kBf16);
  EXPECT_EQ(select::resolve_storage_precision(Precision::kBf16, {8, 8},
                                              {3, 3}, budget),
            Precision::kFp32);
  EXPECT_EQ(select::resolve_storage_precision(Precision::kBf16, {6, 6, 6},
                                              {3, 3, 3}, budget),
            Precision::kFp32);
  EXPECT_EQ(select::resolve_storage_precision(Precision::kFp16, {4, 4, 4},
                                              {3, 3, 3}, budget),
            Precision::kFp16);
  EXPECT_EQ(select::resolve_storage_precision(Precision::kFp16, {4, 6, 6},
                                              {3, 3, 3}, budget),
            Precision::kFp32);
  EXPECT_EQ(select::resolve_storage_precision(Precision::kBf16, {4, 6, 6},
                                              {3, 3, 3}, budget),
            Precision::kFp32);

  // A zero budget demotes every reduced request.
  EXPECT_EQ(select::resolve_storage_precision(Precision::kBf16, {2, 2},
                                              {3, 3}, 0.0),
            Precision::kFp32);
}

TEST(Planning, SelectNeverEmitsBudgetViolatingPrecision) {
  ConvShape s;
  s.batch = 1;
  s.in_channels = 16;
  s.out_channels = 16;
  s.image = {24, 24};
  s.kernel = {3, 3};
  s.padding = {1, 1};

  select::SelectOptions o;
  o.measure = false;
  o.allow_direct = false;
  o.allow_fft = false;
  o.plan.threads = 2;
  o.plan.precision = Precision::kBf16;

  const select::SelectedConfig sel = select::select_config(s, o);
  ASSERT_EQ(sel.algorithm, select::Algorithm::kWinograd);
  // Whatever tile the cost model ranked first, the emitted precision is
  // exactly what the budget allows for that tile.
  EXPECT_EQ(sel.precision,
            select::resolve_storage_precision(Precision::kBf16, sel.tile_m,
                                              s.kernel, o.max_storage_err));

  // A zero budget forces fp32 regardless of the tile.
  o.max_storage_err = 0.0;
  const select::SelectedConfig demoted = select::select_config(s, o);
  EXPECT_EQ(demoted.precision, Precision::kFp32);
}

// ------------------------------------------------------ wisdom v2 -------

class TempFile {
 public:
  TempFile() {
    char tmpl[] = "/tmp/ondwin_prec_XXXXXX";
    const int fd = mkstemp(tmpl);
    if (fd >= 0) close(fd);
    path_ = tmpl;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(WisdomPrecision, TokenRoundTrip) {
  TempFile f;
  {
    select::WisdomV2Store store(f.path());
    select::SelectionRecord r;
    r.algorithm = select::Algorithm::kWinograd;
    r.tile_m = {4, 4};
    r.blocking = {14, 16, 16, 0};
    r.precision = Precision::kBf16;
    ASSERT_TRUE(store.store("shape_bf16", r));
    r.precision = Precision::kFp16;
    ASSERT_TRUE(store.store("shape_fp16", r));
    r.precision = Precision::kFp32;
    ASSERT_TRUE(store.store("shape_fp32", r));
  }
  select::WisdomV2Store reloaded(f.path());
  ASSERT_EQ(reloaded.size(), 3u);
  ASSERT_TRUE(reloaded.lookup("shape_bf16", Precision::kBf16).has_value());
  ASSERT_TRUE(reloaded.lookup("shape_fp16", Precision::kFp16).has_value());
  ASSERT_TRUE(reloaded.lookup("shape_fp32").has_value());
  EXPECT_FALSE(reloaded.lookup("shape_bf16").has_value());

  // fp32 records carry no token at all — pre-precision files and files
  // written by pre-precision builds stay byte-identical.
  const std::string text = slurp(f.path());
  EXPECT_NE(text.find("prec=bf16"), std::string::npos);
  EXPECT_NE(text.find("prec=fp16"), std::string::npos);
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("shape_fp32") != std::string::npos) {
      EXPECT_EQ(line.find("prec="), std::string::npos) << line;
    }
  }
}

TEST(WisdomPrecision, OptionalAndMalformedTokens) {
  TempFile f;
  {
    std::ofstream out(f.path(), std::ios::trunc);
    // Token absent → fp32; present after f_blk → parsed; present without
    // f_blk → parsed with f_blk 0; malformed → whole line skipped.
    out << "!v2 plain winograd 4x4 14 16 16\n";
    out << "!v2 with_fblk winograd 4x4 14 16 16 3 prec=bf16\n";
    out << "!v2 no_fblk winograd 4x4 14 16 16 prec=fp16\n";
    out << "!v2 bad_name winograd 4x4 14 16 16 precision=bf16\n";
    out << "!v2 bad_value winograd 4x4 14 16 16 prec=fp64\n";
  }
  select::WisdomV2Store store(f.path());
  EXPECT_EQ(store.size(), 3u);
  ASSERT_TRUE(store.lookup("plain").has_value());
  EXPECT_EQ(store.lookup("plain")->precision, Precision::kFp32);
  const auto with_fblk = store.lookup("with_fblk", Precision::kBf16);
  ASSERT_TRUE(with_fblk.has_value());
  EXPECT_EQ(with_fblk->precision, Precision::kBf16);
  EXPECT_EQ(with_fblk->blocking.f_blk, 3);
  const auto no_fblk = store.lookup("no_fblk", Precision::kFp16);
  ASSERT_TRUE(no_fblk.has_value());
  EXPECT_EQ(no_fblk->precision, Precision::kFp16);
  EXPECT_EQ(no_fblk->blocking.f_blk, 0);
  for (Precision p : {Precision::kFp32, Precision::kBf16, Precision::kFp16}) {
    EXPECT_FALSE(store.lookup("bad_name", p).has_value());
    EXPECT_FALSE(store.lookup("bad_value", p).has_value());
  }
}

TEST(WisdomPrecision, StalePrecisionEntryIsAMiss) {
  // A persisted selection requested under another precision must not be
  // served: its timings were measured under different kernels. The lookup
  // misses and the planner re-selects.
  ConvShape s;
  s.batch = 1;
  s.in_channels = 16;
  s.out_channels = 16;
  s.image = {16, 16};
  s.kernel = {3, 3};
  s.padding = {1, 1};

  TempFile f;
  {
    // Hand-plant a record for this exact shape key, requested under bf16.
    select::WisdomV2Store store(f.path());
    select::SelectionRecord r;
    r.algorithm = select::Algorithm::kWinograd;
    r.tile_m = {4, 4};
    r.blocking = {14, 16, 16, 0};
    r.precision = Precision::kBf16;
    ASSERT_TRUE(store.store(select::shape_key(s), r));
  }

  select::SelectOptions o;
  o.measure = false;  // lookup still runs; a miss falls to the cost model
  o.allow_direct = false;
  o.allow_fft = false;
  o.plan.threads = 2;
  o.plan.wisdom_path = f.path();

  // Matching request (bf16) → served from wisdom.
  o.plan.precision = Precision::kBf16;
  const select::SelectedConfig hit = select::select_config(s, o);
  EXPECT_TRUE(hit.from_wisdom);
  EXPECT_EQ(hit.tile_m, Dims({4, 4}));
  // Executed precision re-derived from the request and the tile's budget.
  EXPECT_EQ(hit.precision,
            select::resolve_storage_precision(Precision::kBf16, hit.tile_m,
                                              s.kernel, o.max_storage_err));

  // Mismatched request (fp32) → miss, cost-model re-selection.
  o.plan.precision = Precision::kFp32;
  const select::SelectedConfig miss = select::select_config(s, o);
  EXPECT_FALSE(miss.from_wisdom);
  EXPECT_EQ(miss.precision, Precision::kFp32);
}

// --------------------------------------------- end-to-end integration ---

TEST(AutoPlanPrecision, PlanAutoExecutesReduced) {
  ConvShape s;
  s.batch = 1;
  s.in_channels = 16;
  s.out_channels = 16;
  s.image = {12, 12};
  s.kernel = {3, 3};
  s.padding = {1, 1};

  select::SelectOptions o;
  o.measure = false;
  o.allow_direct = false;
  o.allow_fft = false;
  o.plan.threads = 2;
  o.plan.precision = Precision::kBf16;

  const auto conv = select::plan_auto(s, o);
  ASSERT_NE(conv->winograd_plan(), nullptr);
  // The executor runs at the planner's resolved precision — a demotion
  // in select_config cannot be resurrected by PlanOptions fall-through.
  EXPECT_EQ(conv->winograd_plan()->precision(), conv->config().precision);
  EXPECT_EQ(conv->config().precision,
            select::resolve_storage_precision(
                Precision::kBf16, conv->config().tile_m, s.kernel,
                o.max_storage_err));

  ConvProblem p;
  p.shape = s;
  p.tile_m = conv->config().tile_m;
  const ImageLayout in_l = p.input_layout();
  const ImageLayout out_l = p.output_layout();
  const KernelLayout k_l = p.kernel_layout();

  std::vector<float> in_plain(static_cast<std::size_t>(s.input_floats()));
  std::vector<float> w_plain(static_cast<std::size_t>(s.weight_floats()));
  Rng rng(0xA170);
  for (auto& v : in_plain) v = rng.uniform(-0.1f, 0.1f);
  for (auto& v : w_plain) v = rng.uniform(-0.1f, 0.1f);
  AlignedBuffer<float> in_b(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w_b(static_cast<std::size_t>(k_l.total_floats()));
  AlignedBuffer<float> out_b(
      static_cast<std::size_t>(out_l.total_floats()));
  pack_image(in_plain.data(), in_b.data(), in_l);
  pack_kernels(w_plain.data(), w_b.data(), k_l);

  conv->set_kernels(w_b.data());
  conv->execute_pretransformed(in_b.data(), out_b.data());

  const auto gt =
      naive_conv_longdouble(s, in_plain.data(), w_plain.data());
  long double gt_max = 0;
  for (const long double v : gt) gt_max = std::max(gt_max, std::abs(v));
  std::vector<float> got(gt.size());
  unpack_image(out_b.data(), got.data(), out_l);
  long double worst = 0;
  for (std::size_t i = 0; i < gt.size(); ++i) {
    worst = std::max(worst,
                     std::abs(static_cast<long double>(got[i]) - gt[i]));
  }
  if (conv->config().precision == Precision::kBf16) {
    const double bound = select::winograd_storage_error_bound(
        Precision::kBf16, conv->config().tile_m, s.kernel);
    EXPECT_LT(static_cast<double>(worst / gt_max), bound);
  }
}

TEST(AutoPlanPrecision, EnvOverrideAtEntryPoint) {
  // ONDWIN_PREC flips plan_auto's requested precision without touching
  // the caller's options (applied at API entry, never inside ConvPlan).
  ConvShape s;
  s.batch = 1;
  s.in_channels = 16;
  s.out_channels = 16;
  s.image = {12, 12};
  s.kernel = {3, 3};
  s.padding = {1, 1};

  select::SelectOptions o;
  o.measure = false;
  o.allow_direct = false;
  o.allow_fft = false;
  o.plan.threads = 1;

  ASSERT_EQ(setenv("ONDWIN_PREC", "bf16", 1), 0);
  const auto conv = select::plan_auto(s, o);
  ASSERT_EQ(unsetenv("ONDWIN_PREC"), 0);
  ASSERT_NE(conv->winograd_plan(), nullptr);
  EXPECT_EQ(conv->config().precision,
            select::resolve_storage_precision(
                Precision::kBf16, conv->config().tile_m, s.kernel,
                o.max_storage_err));

  // An unparsable value is ignored, not fatal.
  ASSERT_EQ(setenv("ONDWIN_PREC", "fp64", 1), 0);
  const auto conv32 = select::plan_auto(s, o);
  ASSERT_EQ(unsetenv("ONDWIN_PREC"), 0);
  EXPECT_EQ(conv32->config().precision, Precision::kFp32);
}

TEST(GraphPrecision, StagedEqualsFusedThroughExecutor) {
  // Reduced precision through the graph tier: compile the same net twice
  // (staged vs fused conv plans) under bf16 — outputs stay bitwise
  // identical, same as the fp32 contract.
  auto build = [] {
    PlanOptions o;
    o.threads = 2;
    auto net = std::make_unique<Sequential>(1, 16, Dims{12, 12}, o);
    net->add_conv(32, {3, 3}, {1, 1}, {4, 4}, /*relu=*/true);
    net->add_conv(16, {3, 3}, {1, 1}, {4, 4}, /*relu=*/false);
    Rng rng(0x6EAF);
    net->randomize_weights(rng);
    return net;
  };

  auto run = [&](FusionMode fm, std::vector<float>* out) {
    auto net = build();
    graph::CompileOptions copts;
    copts.plan.threads = 2;
    copts.plan.precision = Precision::kBf16;
    copts.plan.fusion = fm;
    graph::Executor exec(net->to_graph(), copts);
    const std::size_t sin =
        static_cast<std::size_t>(exec.input_layout().total_floats());
    const std::size_t sout =
        static_cast<std::size_t>(exec.output_layout().total_floats());
    AlignedBuffer<float> in(sin);
    Rng rng(0x16A4);
    for (auto& v : in) v = rng.uniform(-0.5f, 0.5f);
    out->assign(sout, 0.0f);
    exec.execute(in.data(), out->data());
  };

  std::vector<float> staged, fused;
  run(FusionMode::kStaged, &staged);
  run(FusionMode::kFused, &fused);
  ASSERT_EQ(staged.size(), fused.size());
  ASSERT_EQ(std::memcmp(staged.data(), fused.data(),
                        staged.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace ondwin
