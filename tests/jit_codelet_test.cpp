// Whole-tile JIT transform kernels (TilePipeline) against the interpreter:
// every pass and fiber of a tile runs in one compiled function, which must
// produce the interpreter's floats bit for bit — and, with the epilogue
// inside, the staged store_tile / store_tile_pooled results bit for bit.
#include "transform/tile_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "transform/epilogue.h"
#include "util/cpu.h"
#include "util/rng.h"
#include "wincnn/cook_toom.h"

namespace ondwin {
namespace {

constexpr int kR = 3;  // kernel extent of the epilogue and fixed-shape cases

const RatMatrix& pick(const WinogradMatrices& wm, int which) {
  return which == 0 ? wm.BT : (which == 1 ? wm.G : wm.AT);
}

// Row-major strides (floats) of a tile with `ext` vectors per dimension,
// `gap` extra vectors at the end of every innermost row.
std::vector<i64> strides_of(const std::vector<i64>& ext, i64 gap) {
  std::vector<i64> s(ext.size());
  i64 acc = kSimdWidth;
  for (int d = static_cast<int>(ext.size()) - 1; d >= 0; --d) {
    s[static_cast<std::size_t>(d)] = acc;
    acc *= ext[static_cast<std::size_t>(d)] +
           (d == static_cast<int>(ext.size()) - 1 ? gap : 0);
  }
  return s;
}

i64 span_floats(const std::vector<i64>& ext, const std::vector<i64>& s) {
  i64 last = 0;
  for (std::size_t d = 0; d < ext.size(); ++d) last += (ext[d] - 1) * s[d];
  return last + kSimdWidth;
}

// Random lanes plus the values an epilogue must carry exactly: lane 0 all
// −0.0, lane 1 one NaN, lane 2 all negative.
void fill_special(AlignedBuffer<float>& buf, Rng& rng) {
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const std::size_t lane = i % kSimdWidth;
    if (lane == 0) {
      buf[i] = -0.0f;
    } else if (lane == 2) {
      buf[i] = rng.uniform(-2.0f, -0.1f);
    } else {
      buf[i] = rng.uniform(-2.0f, 2.0f);
    }
  }
  buf[1] = std::numeric_limits<float>::quiet_NaN();
}

bool bitwise_equal(const AlignedBuffer<float>& a,
                   const AlignedBuffer<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct TileCase {
  std::vector<int> m;  // output tile per dimension (rank = m.size())
  std::vector<int> r;  // kernel extent per dimension
  int which;           // 0: BT, 1: G, 2: AT
  bool interior;       // gapped image-like source vs compact border staging
  bool streaming;
};

std::string case_name(const ::testing::TestParamInfo<TileCase>& info) {
  const char* names[3] = {"BT", "G", "AT"};
  std::string s = names[info.param.which];
  for (std::size_t d = 0; d < info.param.m.size(); ++d) {
    s += '_';
    s += std::to_string(info.param.m[d]);
    if (info.param.r[d] != kR) {
      s += 'r';
      s += std::to_string(info.param.r[d]);
    }
  }
  s += info.param.interior ? "_interior" : "_border";
  if (info.param.streaming) s += "_nt";
  return s;
}

class WholeTileKernel : public ::testing::TestWithParam<TileCase> {};

TEST_P(WholeTileKernel, MatchesTransformTileNdBitwise) {
  const TileCase& c = GetParam();
  const int rank = static_cast<int>(c.m.size());
  std::vector<TransformProgram> progs;
  for (int d = 0; d < rank; ++d) {
    const auto k = static_cast<std::size_t>(d);
    progs.push_back(
        build_transform_program(pick(cook_toom(c.m[k], c.r[k]), c.which)));
  }
  const TransformProgram* pp[kMaxNd];
  std::vector<i64> in_ext, out_ext;
  int max_extent = 2;
  for (int d = 0; d < rank; ++d) {
    pp[d] = &progs[static_cast<std::size_t>(d)];
    in_ext.push_back(pp[d]->in_count);
    out_ext.push_back(pp[d]->out_count);
    max_extent = std::max({max_extent, pp[d]->in_count, pp[d]->out_count});
  }
  // Interior tiles read a window of a wider image; border tiles read the
  // compact staging tile. Destinations are strided like Û / the output.
  const std::vector<i64> s_in = strides_of(in_ext, c.interior ? 5 : 0);
  const std::vector<i64> s_out = strides_of(out_ext, 3);

  Rng rng(static_cast<u64>(rank * 131 + c.m[0] * 7 + c.r[0] * 3 + c.which));
  AlignedBuffer<float> in(static_cast<std::size_t>(span_floats(in_ext, s_in)));
  fill_special(in, rng);
  AlignedBuffer<float> want(
      static_cast<std::size_t>(span_floats(out_ext, s_out)));
  AlignedBuffer<float> got(want.size());
  want.fill_zero();
  got.fill_zero();

  TransformScratch scratch(max_extent, rank);
  transform_tile_nd(pp, rank, in.data(), s_in.data(), want.data(),
                    s_out.data(), scratch, c.streaming);
  const TilePipeline pipe(pp, rank, s_in.data(), s_out.data(), c.streaming,
                          /*use_jit=*/true);
  EXPECT_EQ(pipe.jitted(), cpu_features().full_avx512());
  pipe.run(in.data(), got.data(), scratch);
  EXPECT_TRUE(bitwise_equal(got, want));
}

std::vector<TileCase> tile_cases() {
  // {m per dimension, r per dimension}; an empty r means r = 3 throughout.
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> shapes = {
      {{2}, {}}, {{3}, {}}, {{4}, {}}, {{5}, {}}, {{6}, {}}, {{7}, {}},
      {{8}, {}}, {{2, 8}, {}}, {{3, 7}, {}}, {{4, 4}, {}}, {{5, 6}, {}},
      {{6, 3}, {}}, {{8, 8}, {}}, {{2, 4, 4}, {}}, {{8, 2, 6}, {}},
      {{4, 4, 4}, {}}, {{6, 6, 6}, {}}, {{8, 8, 8}, {}},
      // Other kernel extents: F(2,5), F(4,4), F(3,2), and mixed r per
      // dimension.
      {{2}, {5}}, {{4}, {4}}, {{3}, {2}}, {{6}, {5}},
      {{2, 4}, {5, 4}}, {{4, 3}, {2, 5}}, {{2, 4, 6}, {4, 2, 5}}};
  std::vector<TileCase> v;
  for (const auto& [m, r_in] : shapes) {
    const std::vector<int> r =
        r_in.empty() ? std::vector<int>(m.size(), kR) : r_in;
    for (int which = 0; which < 3; ++which) {
      for (const bool interior : {true, false}) {
        v.push_back({m, r, which, interior, (which + interior) % 2 == 1});
      }
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(Ranks1To3, WholeTileKernel,
                         ::testing::ValuesIn(tile_cases()), case_name);

TEST(WholeTileKernel, InterpreterFallbackWhenJitDisabled) {
  const TransformProgram p = build_transform_program(cook_toom(2, kR).BT);
  const TransformProgram* progs[1] = {&p};
  const i64 s[1] = {kSimdWidth};
  const TilePipeline pipe(progs, 1, s, s, false, /*use_jit=*/false);
  EXPECT_FALSE(pipe.jitted());
}

TEST(WholeTileKernel, RejectsOffsetsBeyondInt32) {
  if (!cpu_features().full_avx512()) GTEST_SKIP() << "host lacks AVX-512";
  const TransformProgram p = build_transform_program(cook_toom(2, kR).BT);
  const TransformProgram* progs[1] = {&p};
  // The last element's byte offset overflows a 32-bit displacement.
  const i64 src[1] = {i64{1} << 30};
  const i64 dst[1] = {kSimdWidth};
  const TilePipeline pipe(progs, 1, src, dst, false, true);
  EXPECT_FALSE(pipe.jitted());
}

// ------------------------------------------------------------ epilogue ----

struct EpilogueCase {
  std::vector<int> m;
  bool bias;
  bool relu;
  i64 pool;  // 0 or 2
};

std::string epilogue_name(const ::testing::TestParamInfo<EpilogueCase>& info) {
  std::string s = "m";
  for (int m : info.param.m) {
    s += '_';
    s += std::to_string(m);
  }
  if (info.param.bias) s += "_bias";
  if (info.param.relu) s += "_relu";
  if (info.param.pool > 1) {
    s += "_pool";
    s += std::to_string(info.param.pool);
  }
  return s;
}

class EpilogueKernel : public ::testing::TestWithParam<EpilogueCase> {};

// The tile sits at the second tile position of a two-tile plane, so the
// kernel's stores land at an offset origin like every interior tile.
TEST_P(EpilogueKernel, MatchesStagedStoreBitwise) {
  if (!cpu_features().full_avx512()) GTEST_SKIP() << "host lacks AVX-512";
  const EpilogueCase& c = GetParam();
  const int rank = static_cast<int>(c.m.size());
  std::vector<TransformProgram> progs;
  for (int m : c.m) {
    progs.push_back(build_transform_program(cook_toom(m, kR).AT));
  }
  const TransformProgram* pp[kMaxNd];
  std::vector<i64> alpha;
  Dims tile_m = Dims::filled(rank, 1), out = Dims::filled(rank, 1);
  int max_extent = 2;
  for (int d = 0; d < rank; ++d) {
    pp[d] = &progs[static_cast<std::size_t>(d)];
    alpha.push_back(pp[d]->in_count);
    tile_m[d] = c.m[static_cast<std::size_t>(d)];
    out[d] = 2 * tile_m[d];
    max_extent = std::max(max_extent, pp[d]->in_count);
  }
  const std::vector<i64> s_alpha = strides_of(alpha, 0);
  const i64 w = std::max<i64>(c.pool, 1);
  Dims plane = out;
  for (int d = 0; d < rank; ++d) plane[d] = out[d] / w;
  const Dims plane_strides = plane.strides();
  i64 s_plane[kMaxNd], org[kMaxNd], hi[kMaxNd];
  i64 tile_off = 0;
  for (int d = 0; d < rank; ++d) {
    s_plane[d] = plane_strides[d] * kSimdWidth;
    org[d] = tile_m[d];
    hi[d] = tile_m[d];
    tile_off += org[d] / w * s_plane[d];
  }

  Rng rng(static_cast<u64>(rank * 17 + c.m[0] + (c.bias ? 100 : 0)));
  AlignedBuffer<float> src(
      static_cast<std::size_t>(span_floats(alpha, s_alpha)));
  fill_special(src, rng);
  float bias_vec[kSimdWidth] = {};
  std::vector<float> bias_storage(kSimdWidth);
  if (c.bias) {
    for (int s = 0; s < kSimdWidth; ++s) {
      bias_vec[s] = s % 4 == 0 ? -0.0f : rng.uniform(-1.0f, 1.0f);
      bias_storage[static_cast<std::size_t>(s)] = bias_vec[s];
    }
  }
  Epilogue ep;
  ep.bias = c.bias ? bias_storage.data() : nullptr;
  ep.relu = c.relu;
  ep.pool_window = c.pool;

  const std::size_t plane_floats =
      static_cast<std::size_t>(plane.product() * kSimdWidth);
  AlignedBuffer<float> want(plane_floats), got(plane_floats);
  for (std::size_t i = 0; i < plane_floats; ++i) want[i] = got[i] = 7.0f;

  // Reference: interpreted inverse into the staging tile, then the staged
  // store stage ConvPlan runs for border tiles.
  TransformScratch scratch(max_extent, rank);
  AlignedBuffer<float> staged(
      static_cast<std::size_t>(tile_m.product() * kSimdWidth));
  const Dims m_strides = tile_m.strides();
  i64 s_m[kMaxNd];
  for (int d = 0; d < rank; ++d) s_m[d] = m_strides[d] * kSimdWidth;
  transform_tile_nd(pp, rank, src.data(), s_alpha.data(), staged.data(), s_m,
                    scratch, false);
  TileStoreArgs args;
  args.rank = rank;
  args.org = org;
  args.hi = hi;
  args.m_strides = m_strides;
  args.out_strides = out.strides();
  if (c.pool > 1) {
    args.pool_strides = plane_strides;
    store_tile_pooled(staged.data(), want.data(), args, bias_vec, c.relu,
                      c.pool);
  } else {
    store_tile(staged.data(), want.data(), args, ep, bias_vec);
  }

  for (const bool stream : {false, true}) {
    const TileEpilogue te{.relu = c.relu, .pool_window = c.pool};
    const TilePipeline pipe(pp, rank, s_alpha.data(), s_plane, stream, true,
                            &te);
    ASSERT_TRUE(pipe.jitted());
    pipe.run(src.data(), got.data() + tile_off, scratch, bias_vec);
    EXPECT_TRUE(bitwise_equal(got, want)) << "stream=" << stream;
  }
}

std::vector<EpilogueCase> epilogue_cases() {
  const std::vector<std::vector<int>> shapes = {
      {2}, {4}, {6}, {8}, {3}, {2, 2}, {4, 4}, {6, 2}, {2, 4, 4}, {4, 4, 4},
      {8, 8, 8}};
  std::vector<EpilogueCase> v;
  for (const auto& m : shapes) {
    bool even = true;
    for (int x : m) even = even && x % 2 == 0;
    for (const bool bias : {false, true}) {
      for (const bool relu : {false, true}) {
        for (const i64 pool : {i64{0}, i64{2}}) {
          if (pool > 1 && !even) continue;
          if (!bias && !relu && pool == 0) continue;  // epilogue inactive
          v.push_back({m, bias, relu, pool});
        }
      }
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(Ranks1To3, EpilogueKernel,
                         ::testing::ValuesIn(epilogue_cases()), epilogue_name);

}  // namespace
}  // namespace ondwin
