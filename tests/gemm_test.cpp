#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "gemm/batched_gemm.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace ondwin {
namespace {

// Plain row-major reference: C = A(MxK) · B(KxN), accumulated in double.
void naive_gemm(i64 m, i64 n, i64 k, const float* a, const float* b,
                float* c) {
  for (i64 i = 0; i < m; ++i) {
    for (i64 j = 0; j < n; ++j) {
      double acc = 0.0;
      for (i64 p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) *
               static_cast<double>(b[p * n + j]);
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

void fill_random(float* p, i64 n, Rng& rng, float lo = -1.0f,
                 float hi = 1.0f) {
  for (i64 i = 0; i < n; ++i) p[i] = rng.uniform(lo, hi);
}

// ------------------------------------------------------- spec validation ----

TEST(MicrokernelSpec, Validation) {
  EXPECT_NO_THROW(validate_microkernel_spec({6, 64, 64, false,
                                             StoreMode::kAccumulate}));
  EXPECT_THROW(validate_microkernel_spec({0, 64, 64, false,
                                          StoreMode::kAccumulate}),
               Error);
  EXPECT_THROW(validate_microkernel_spec({31, 64, 64, false,
                                          StoreMode::kAccumulate}),
               Error);
  EXPECT_THROW(validate_microkernel_spec({8, 60, 64, false,
                                          StoreMode::kAccumulate}),
               Error);
  EXPECT_THROW(validate_microkernel_spec({8, 64, 0, false,
                                          StoreMode::kAccumulate}),
               Error);
}

// ------------------------------------------------- microkernel vs naive ----

struct KernelCase {
  int n_blk, c_blk, cp_blk;
  bool beta;
  StoreMode store;
};

std::string kernel_case_name(
    const ::testing::TestParamInfo<KernelCase>& info) {
  const auto& p = info.param;
  std::string s = "n" + std::to_string(p.n_blk) + "c" +
                  std::to_string(p.c_blk) + "x" + std::to_string(p.cp_blk);
  s += p.beta ? "_beta1" : "_beta0";
  switch (p.store) {
    case StoreMode::kAccumulate: s += "_acc"; break;
    case StoreMode::kStream: s += "_stream"; break;
    case StoreMode::kScatter: s += "_scatter"; break;
  }
  return s;
}

class MicrokernelMath : public ::testing::TestWithParam<KernelCase> {};

TEST_P(MicrokernelMath, JitMatchesNaive) {
  if (!microkernel_jit_supported()) GTEST_SKIP() << "host lacks AVX-512";
  const auto& p = GetParam();
  const MicrokernelSpec spec{p.n_blk, p.c_blk, p.cp_blk, p.beta, p.store};
  const Microkernel kernel(spec);

  Rng rng(static_cast<u64>(p.n_blk * 1000003 + p.c_blk * 31 + p.cp_blk));
  AlignedBuffer<float> u(static_cast<std::size_t>(p.n_blk * p.c_blk));
  AlignedBuffer<float> v(static_cast<std::size_t>(p.c_blk * p.cp_blk));
  AlignedBuffer<float> x(static_cast<std::size_t>(p.n_blk * p.cp_blk));
  AlignedBuffer<float> scatter_area(
      static_cast<std::size_t>(p.n_blk * p.cp_blk));
  fill_random(u.data(), static_cast<i64>(u.size()), rng);
  fill_random(v.data(), static_cast<i64>(v.size()), rng);
  fill_random(x.data(), static_cast<i64>(x.size()), rng);

  // Expected = beta*x + u·v, in plain arithmetic.
  std::vector<float> expect(x.size());
  naive_gemm(p.n_blk, p.cp_blk, p.c_blk, u.data(), v.data(), expect.data());
  if (p.beta) {
    for (std::size_t i = 0; i < expect.size(); ++i) expect[i] += x[i];
  }

  // Scatter rows with an artificial column stride (two S-groups apart) to
  // prove the stride is honoured; here we use a compact stride of one row.
  std::vector<float*> rows(static_cast<std::size_t>(p.n_blk));
  for (int j = 0; j < p.n_blk; ++j) {
    rows[static_cast<std::size_t>(j)] =
        scatter_area.data() + static_cast<i64>(j) * p.cp_blk;
  }

  MicrokernelArgs args;
  args.u = u.data();
  args.v = v.data();
  args.x = x.data();
  args.u_next = u.data();
  args.x_next = x.data();
  args.v_next = v.data();
  args.scatter_rows = rows.data();
  args.scatter_col_stride_bytes = kSimdWidth * sizeof(float);
  kernel.run(args);

  const float* got =
      (p.store == StoreMode::kScatter) ? scatter_area.data() : x.data();
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_NEAR(got[i], expect[i], 1e-4f * (1.0f + std::abs(expect[i])))
        << "at " << i;
  }
}

TEST_P(MicrokernelMath, ReferenceMatchesNaive) {
  const auto& p = GetParam();
  const MicrokernelSpec spec{p.n_blk, p.c_blk, p.cp_blk, p.beta, p.store};

  Rng rng(7u + static_cast<u64>(p.n_blk));
  AlignedBuffer<float> u(static_cast<std::size_t>(p.n_blk * p.c_blk));
  AlignedBuffer<float> v(static_cast<std::size_t>(p.c_blk * p.cp_blk));
  AlignedBuffer<float> x(static_cast<std::size_t>(p.n_blk * p.cp_blk));
  AlignedBuffer<float> scatter_area(
      static_cast<std::size_t>(p.n_blk * p.cp_blk));
  fill_random(u.data(), static_cast<i64>(u.size()), rng);
  fill_random(v.data(), static_cast<i64>(v.size()), rng);
  fill_random(x.data(), static_cast<i64>(x.size()), rng);

  std::vector<float> expect(x.size());
  naive_gemm(p.n_blk, p.cp_blk, p.c_blk, u.data(), v.data(), expect.data());
  if (p.beta) {
    for (std::size_t i = 0; i < expect.size(); ++i) expect[i] += x[i];
  }

  std::vector<float*> rows(static_cast<std::size_t>(p.n_blk));
  for (int j = 0; j < p.n_blk; ++j) {
    rows[static_cast<std::size_t>(j)] =
        scatter_area.data() + static_cast<i64>(j) * p.cp_blk;
  }
  MicrokernelArgs args;
  args.u = u.data();
  args.v = v.data();
  args.x = x.data();
  args.u_next = u.data();
  args.x_next = x.data();
  args.v_next = v.data();
  args.scatter_rows = rows.data();
  args.scatter_col_stride_bytes = kSimdWidth * sizeof(float);
  run_microkernel_reference(spec, args);

  const float* got =
      (p.store == StoreMode::kScatter) ? scatter_area.data() : x.data();
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_NEAR(got[i], expect[i], 1e-4f * (1.0f + std::abs(expect[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MicrokernelMath,
    ::testing::Values(
        KernelCase{1, 16, 16, false, StoreMode::kAccumulate},
        KernelCase{6, 32, 32, false, StoreMode::kAccumulate},
        KernelCase{6, 32, 32, true, StoreMode::kAccumulate},
        KernelCase{8, 64, 64, false, StoreMode::kAccumulate},
        KernelCase{8, 64, 64, true, StoreMode::kStream},
        KernelCase{14, 128, 128, true, StoreMode::kAccumulate},
        KernelCase{16, 48, 80, false, StoreMode::kStream},
        KernelCase{24, 16, 112, true, StoreMode::kAccumulate},
        KernelCase{30, 128, 128, true, StoreMode::kStream},
        KernelCase{30, 16, 16, false, StoreMode::kAccumulate},
        KernelCase{10, 64, 64, true, StoreMode::kScatter},
        KernelCase{30, 128, 128, true, StoreMode::kScatter},
        KernelCase{5, 32, 16, false, StoreMode::kScatter},
        KernelCase{29, 112, 96, true, StoreMode::kStream},
        KernelCase{17, 256, 64, true, StoreMode::kAccumulate},
        KernelCase{12, 64, 256, false, StoreMode::kStream}),
    kernel_case_name);

// ------------------------------------------------- next-block prefetches ----

// Prefetches are hints: the next-Û/V̂/X̂ prefetches must leave every result
// bit unchanged, in every input precision, whether the hint pointers name
// the call's own operands or unrelated blocks.
TEST(MicrokernelPrefetch, HintsLeaveResultsBitwise) {
  if (!microkernel_jit_supported()) GTEST_SKIP() << "host lacks AVX-512";
  struct Case {
    int n_blk, c_blk, cp_blk;
    bool beta;
    StoreMode store;
  };
  const Case cases[] = {{1, 16, 16, false, StoreMode::kAccumulate},
                        {6, 32, 64, true, StoreMode::kAccumulate},
                        {29, 128, 128, true, StoreMode::kStream},
                        {12, 256, 16, false, StoreMode::kAccumulate}};
  for (Precision prec :
       {Precision::kFp32, Precision::kBf16, Precision::kFp16}) {
    for (const Case& c : cases) {
      MicrokernelSpec spec{c.n_blk, c.c_blk, c.cp_blk, c.beta, c.store};
      spec.in_prec = prec;
      if (!microkernel_jit_supported(spec)) continue;
      const Microkernel kernel(spec);

      // Random fp32 values narrowed to the storage format; the u/v
      // buffers are sized in floats either way.
      Rng rng(static_cast<u64>(c.n_blk * 131 + c.c_blk + c.cp_blk));
      const auto operand = [&](i64 floats) {
        AlignedBuffer<float> buf(static_cast<std::size_t>(floats));
        fill_random(buf.data(), floats, rng);
        if (prec != Precision::kFp32) {
          std::vector<float> src(buf.data(), buf.data() + floats);
          convert_fp32_to_storage(prec, src.data(),
                                  reinterpret_cast<u16*>(buf.data()), floats);
        }
        return buf;
      };
      const i64 uf = static_cast<i64>(c.n_blk) * c.c_blk;
      const i64 vf = static_cast<i64>(c.c_blk) * c.cp_blk;
      const i64 xf = static_cast<i64>(c.n_blk) * c.cp_blk;
      AlignedBuffer<float> u = operand(uf), v = operand(vf);
      AlignedBuffer<float> u_next = operand(uf), v_next = operand(vf);
      AlignedBuffer<float> x0(static_cast<std::size_t>(xf));
      fill_random(x0.data(), xf, rng);
      AlignedBuffer<float> x_own(static_cast<std::size_t>(xf));
      AlignedBuffer<float> x_other(static_cast<std::size_t>(xf));
      std::memcpy(x_own.data(), x0.data(), sizeof(float) * x0.size());
      std::memcpy(x_other.data(), x0.data(), sizeof(float) * x0.size());

      MicrokernelArgs args;
      args.u = u.data();
      args.v = v.data();
      args.x = x_own.data();
      args.u_next = u.data();
      args.x_next = x_own.data();
      args.v_next = v.data();
      kernel.run(args);
      args.x = x_other.data();
      args.u_next = u_next.data();
      args.x_next = x0.data();
      args.v_next = v_next.data();
      kernel.run(args);
      EXPECT_EQ(std::memcmp(x_own.data(), x_other.data(),
                            sizeof(float) * x_own.size()),
                0)
          << precision_name(prec) << " n" << c.n_blk << " c" << c.c_blk
          << "x" << c.cp_blk;
    }
  }
}

// ----------------------------------------------- scatter stride honouring ----

TEST(MicrokernelScatter, NonContiguousColumnStride) {
  if (!microkernel_jit_supported()) GTEST_SKIP() << "host lacks AVX-512";
  // cp_blk = 32 → two S-groups per row, placed 5 S-groups apart at the
  // destination (as stage 3's I' layout does between channel groups).
  const MicrokernelSpec spec{4, 16, 32, false, StoreMode::kScatter};
  const Microkernel kernel(spec);

  Rng rng(42);
  AlignedBuffer<float> u(4 * 16), v(16 * 32), x(4 * 32);
  fill_random(u.data(), static_cast<i64>(u.size()), rng);
  fill_random(v.data(), static_cast<i64>(v.size()), rng);

  const i64 group_stride = 5 * kSimdWidth;
  AlignedBuffer<float> area(static_cast<std::size_t>(4 * 2 * group_stride));
  std::vector<float*> rows(4);
  for (int j = 0; j < 4; ++j) rows[static_cast<std::size_t>(j)] =
      area.data() + static_cast<i64>(j) * 2 * group_stride;

  MicrokernelArgs args;
  args.u = u.data();
  args.v = v.data();
  args.x = x.data();
  args.u_next = u.data();
  args.x_next = x.data();
  args.v_next = v.data();
  args.scatter_rows = rows.data();
  args.scatter_col_stride_bytes = group_stride * sizeof(float);
  kernel.run(args);

  std::vector<float> expect(4 * 32);
  naive_gemm(4, 32, 16, u.data(), v.data(), expect.data());
  for (int j = 0; j < 4; ++j) {
    for (int q = 0; q < 2; ++q) {
      for (int s = 0; s < kSimdWidth; ++s) {
        EXPECT_NEAR(rows[static_cast<std::size_t>(j)][q * group_stride + s],
                    expect[static_cast<std::size_t>(j * 32 + q * 16 + s)],
                    1e-4f)
            << "row " << j << " group " << q << " lane " << s;
      }
    }
  }
}

// --------------------------------------------------------- blocked GEMM ----

struct GemmCase {
  i64 rows, c, cp;
  int n_blk, c_blk, cp_blk;
  bool jit;
};

class BlockedGemmMath : public ::testing::TestWithParam<GemmCase> {};

TEST_P(BlockedGemmMath, MatchesNaiveGemm) {
  const auto& p = GetParam();
  if (p.jit && !microkernel_jit_supported()) {
    GTEST_SKIP() << "host lacks AVX-512";
  }
  BlockedGemmShape shape{p.rows, p.c, p.cp, p.n_blk, p.c_blk, p.cp_blk};
  const BlockedGemm gemm(shape, p.jit);

  Rng rng(static_cast<u64>(p.rows * 7 + p.c * 3 + p.cp));
  std::vector<float> a(static_cast<std::size_t>(p.rows * p.c));
  std::vector<float> b(static_cast<std::size_t>(p.c * p.cp));
  std::vector<float> c_ref(static_cast<std::size_t>(p.rows * p.cp));
  fill_random(a.data(), static_cast<i64>(a.size()), rng);
  fill_random(b.data(), static_cast<i64>(b.size()), rng);
  naive_gemm(p.rows, p.cp, p.c, a.data(), b.data(), c_ref.data());

  AlignedBuffer<float> ub(a.size()), vb(b.size()), xb(c_ref.size());
  pack_u_blocks(a.data(), ub.data(), p.rows, p.c, p.n_blk, p.c_blk);
  pack_v_blocks(b.data(), vb.data(), p.c, p.cp, p.c_blk, p.cp_blk);
  gemm.run(ub.data(), vb.data(), xb.data());

  std::vector<float> got(c_ref.size());
  unpack_x_blocks(xb.data(), got.data(), p.rows, p.cp, p.n_blk, p.cp_blk);
  double max_err = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    max_err = std::max(max_err, static_cast<double>(std::abs(
                                    got[i] - c_ref[i])));
  }
  // K ≤ 256 accumulations of O(1) values: 1e-3 absolute is generous but
  // catches any indexing error outright.
  EXPECT_LT(max_err, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedGemmMath,
    ::testing::Values(GemmCase{12, 32, 32, 6, 32, 32, true},
                      GemmCase{60, 64, 64, 6, 32, 32, true},
                      GemmCase{60, 64, 64, 6, 32, 32, false},
                      GemmCase{90, 128, 128, 30, 128, 128, true},
                      GemmCase{56, 96, 112, 14, 32, 16, true},
                      GemmCase{84, 256, 64, 28, 64, 64, true},
                      GemmCase{30, 48, 48, 10, 48, 48, true},
                      GemmCase{64, 128, 256, 8, 128, 128, true},
                      GemmCase{64, 128, 256, 8, 128, 128, false}));

TEST(BlockedGemm, ValidatesShapes) {
  EXPECT_THROW(BlockedGemm({13, 32, 32, 6, 32, 32}, false), Error);
  EXPECT_THROW(BlockedGemm({12, 33, 32, 6, 32, 32}, false), Error);
  EXPECT_THROW(BlockedGemm({12, 32, 40, 6, 32, 32}, false), Error);
  EXPECT_THROW(
      BlockedGemm({12, 32, 32, 6, 32, 32}, false, StoreMode::kScatter),
      Error);
}

TEST(KernelSet, RunStepSelectsRoles) {
  // With a 1-step k loop, run_step must use the "only" kernel (β=0 + final
  // store). We verify behaviourally: β=1 kernels would read garbage X.
  const int n = 4, cb = 16, cpb = 16;
  KernelSet set(n, cb, cpb, StoreMode::kAccumulate, false);
  Rng rng(5);
  AlignedBuffer<float> u(n * cb), v(cb * cpb), x(n * cpb);
  fill_random(u.data(), static_cast<i64>(u.size()), rng);
  fill_random(v.data(), static_cast<i64>(v.size()), rng);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 1e30f;  // poison

  MicrokernelArgs args;
  args.u = u.data();
  args.v = v.data();
  args.x = x.data();
  args.u_next = u.data();
  args.x_next = x.data();
  args.v_next = v.data();
  set.run_step(0, 1, args);

  std::vector<float> expect(x.size());
  naive_gemm(n, cpb, cb, u.data(), v.data(), expect.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], expect[i], 1e-4f) << "poison leaked: β=1 kernel used";
  }
}

}  // namespace
}  // namespace ondwin
