// Standalone elementwise/pooling ops on the SIMD-blocked image layout —
// what the graph executor runs for nodes the fusion pass could NOT fold
// into a convolution epilogue (multi-user edges, marked outputs, pool
// windows that straddle tile boundaries), and the reference the fused
// epilogue is bitwise-checked against: the fused pool reduces windows in
// exactly max_pool_blocked()'s order.
#pragma once

#include "tensor/layout.h"

namespace ondwin::graph {

/// N-D max-pool: cubic window, stride == window, floor semantics (the
/// trailing remainder of each dimension is dropped). `src` is `in`;
/// `dst` has spatial extents in.spatial[d] / window.
void max_pool_blocked(const ImageLayout& in, i64 window, const float* src,
                      float* dst);

/// dst = max(src, 0), elementwise over the whole blocked batch.
void relu_blocked(const ImageLayout& layout, const float* src, float* dst);

/// dst = src + bias[channel]; `bias` is layout.channels floats in plain
/// channel order.
void bias_blocked(const ImageLayout& layout, const float* bias,
                  const float* src, float* dst);

/// dst = a + b, elementwise (residual connections).
void eltwise_add_blocked(const ImageLayout& layout, const float* a,
                         const float* b, float* dst);

}  // namespace ondwin::graph
