// Inverse-transform epilogue: the per-element work the next network op
// would otherwise do in a separate pass over DRAM (bias add, ReLU, and —
// when the tile geometry permits — a complete max-pool reduction), fused
// into stage 3 of both the staged and the fused execution paths.
//
// Interior tiles run it inside the JIT inverse kernel (TilePipeline with a
// TileEpilogue, transform/tile_pipeline.h), which stores straight into the
// output plane. The functions below are the staged form: the inverse
// transform writes a staging tile and store_tile / store_tile_pooled clip
// it into the plane. They serve clipped border tiles, plans without JIT
// transforms, and the tests as the reference the kernel must match bit
// for bit.
//
// Fusing pooling is the inter-layer extension of the cache-resident idea:
// the tile is in L1/L2 right after the inverse transform, so reducing each
// w^rank window here writes out_dims/w pooled pixels once instead of
// writing the full conv output and re-reading it in a pool pass. Legality
// is purely geometric: tile origins are org[d] = tc[d]·tile_m[d], so when
// tile_m[d] % window == 0 every pool window lies entirely inside one tile
// and the tiles can reduce their windows independently (same partition as
// the un-pooled store, just w^rank-fold smaller). Values and reduction
// order match the standalone graph::max_pool_blocked exactly — init -3.4e38f,
// row-major window walk, std::max — so fusion stays a scheduling
// transformation, never a numeric one.
#pragma once

#include "tensor/dims.h"
#include "util/common.h"

namespace ondwin {

/// Optional operations fused into the inverse-transform stage (stage 3)
/// — the activation epilogue every ConvNet layer needs. Fusing it avoids a
/// separate pass over the output activations.
struct Epilogue {
  /// Per-output-channel bias, C' floats in plain channel order (nullptr =
  /// no bias).
  const float* bias = nullptr;
  /// Apply max(x, 0) after the (optional) bias.
  bool relu = false;
  /// Fused max-pool window (cubic, stride == window, floor semantics —
  /// exactly graph::max_pool_blocked). 0 or 1 = no pooling. When > 1 the
  /// convolution writes the POOLED image (out_dims[d] / window per dim)
  /// into `output`, and the plan requires tile_m[d] % window == 0 for
  /// every dimension so pool windows never straddle tile boundaries.
  i64 pool_window = 0;

  bool pooled() const { return pool_window > 1; }
  bool active() const { return bias != nullptr || relu || pooled(); }
};

/// Geometry of one inverse-transform tile store, resolved per task by the
/// plan. `org`/`hi` point at rank entries (tile origin in conv-output
/// coordinates; valid extent min(tile_m[d], out[d] - org[d])).
struct TileStoreArgs {
  int rank = 0;
  const i64* org = nullptr;
  const i64* hi = nullptr;
  Dims m_strides;     // tile_m row-major strides (staging buffer)
  Dims out_strides;   // conv-output spatial strides
  Dims pool_strides;  // pooled-output spatial strides (pooled store only)
};

/// Clipped store of a staged inverse-transform tile into the (b, g) output
/// plane, applying bias/ReLU per element. `bias_vec` is the channel
/// group's kSimdWidth bias lanes (zeros when epilogue.bias == nullptr).
void store_tile(const float* staged, float* plane, const TileStoreArgs& args,
                const Epilogue& epilogue, const float* bias_vec);

/// Pooled store: applies bias/ReLU to the staged tile values and reduces
/// every complete `window`^rank max-pool window the tile owns, writing
/// into the POOLED (b, g) plane. Requires tile_m[d] % window == 0.
void store_tile_pooled(const float* staged, float* pooled_plane,
                       const TileStoreArgs& args, const float* bias_vec,
                       bool relu, i64 window);

}  // namespace ondwin
