#include "transform/epilogue.h"

#include <algorithm>
#include <cstring>

namespace ondwin {

void store_tile(const float* staged, float* plane, const TileStoreArgs& args,
                const Epilogue& epilogue, const float* bias_vec) {
  const int rank = args.rank;
  const bool apply = epilogue.active();
  i64 e[kMaxNd] = {};
  for (;;) {
    i64 soff = 0, ooff = 0;
    for (int d = 0; d < rank; ++d) {
      soff += e[d] * args.m_strides[d];
      ooff += (args.org[d] + e[d]) * args.out_strides[d];
    }
    const float* __restrict sv = staged + soff * kSimdWidth;
    float* __restrict dv = plane + ooff * kSimdWidth;
    if (apply) {
      for (int s = 0; s < kSimdWidth; ++s) {
        float v = sv[s] + bias_vec[s];
        if (epilogue.relu) v = std::max(v, 0.0f);
        dv[s] = v;
      }
    } else {
      std::memcpy(dv, sv, sizeof(float) * kSimdWidth);
    }
    int d = rank - 1;
    for (; d >= 0; --d) {
      if (++e[d] < args.hi[d]) break;
      e[d] = 0;
    }
    if (d < 0) break;
  }
}

void store_tile_pooled(const float* staged, float* pooled_plane,
                       const TileStoreArgs& args, const float* bias_vec,
                       bool relu, i64 window) {
  const int rank = args.rank;
  // Complete windows this tile owns per dimension. hi < window can happen
  // on the last tile when out % window != 0 — floor semantics drop that
  // remainder, exactly like the standalone pool.
  i64 cnt[kMaxNd];
  for (int d = 0; d < rank; ++d) {
    cnt[d] = args.hi[d] / window;
    if (cnt[d] == 0) return;
  }

  i64 q[kMaxNd] = {};  // local pooled coordinate within the tile
  for (;;) {
    i64 poff = 0;
    for (int d = 0; d < rank; ++d) {
      poff += (args.org[d] / window + q[d]) * args.pool_strides[d];
    }
    float acc[kSimdWidth];
    for (int s = 0; s < kSimdWidth; ++s) acc[s] = -3.4e38f;
    // Row-major walk of the window — the same visit order (and therefore
    // the same std::max chain) as graph::max_pool_blocked.
    i64 k[kMaxNd] = {};
    for (;;) {
      i64 soff = 0;
      for (int d = 0; d < rank; ++d) {
        soff += (q[d] * window + k[d]) * args.m_strides[d];
      }
      const float* __restrict sv = staged + soff * kSimdWidth;
      for (int s = 0; s < kSimdWidth; ++s) {
        float v = sv[s] + bias_vec[s];
        if (relu) v = std::max(v, 0.0f);
        acc[s] = std::max(acc[s], v);
      }
      int d = rank - 1;
      for (; d >= 0; --d) {
        if (++k[d] < window) break;
        k[d] = 0;
      }
      if (d < 0) break;
    }
    float* __restrict dv = pooled_plane + poff * kSimdWidth;
    for (int s = 0; s < kSimdWidth; ++s) dv[s] = acc[s];
    int d = rank - 1;
    for (; d >= 0; --d) {
      if (++q[d] < cnt[d]) break;
      q[d] = 0;
    }
    if (d < 0) break;
  }
}

}  // namespace ondwin
