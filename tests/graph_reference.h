// Test oracle for whole-network execution: runs a graph::Graph node by
// node through the naive ops — DirectConvBlocked for every conv, whatever
// backend the node names, then the standalone blocked bias/relu/pool/add
// ops — with one buffer per edge and no fusion. Executor outputs are
// checked against it within kGraphTolerance (relative L2 error).
#pragma once

#include <cmath>
#include <cstring>
#include <vector>

#include "baseline/direct_conv_blocked.h"
#include "graph/ir.h"
#include "graph/ops.h"

namespace ondwin::oracle {

/// Relative L2 error the fp32 Winograd/FFT executors stay within on the
/// small test nets (they measure 3.5e-7..1.1e-6; the bound leaves ~100x
/// headroom, while a dropped bias or a wrong backend lands near 1e-1).
constexpr double kGraphTolerance = 1e-4;

/// The marked output of `g` for `input` (input_layout() floats).
inline std::vector<float> reference_forward(const graph::Graph& g,
                                            const float* input) {
  std::vector<AlignedBuffer<float>> vals(g.values().size());
  auto buf = [&](graph::ValueId v) -> AlignedBuffer<float>& {
    return vals[static_cast<std::size_t>(v)];
  };
  buf(g.input()).reset(
      static_cast<std::size_t>(g.input_layout().total_floats()));
  std::memcpy(buf(g.input()).data(), input,
              buf(g.input()).size() * sizeof(float));
  for (const graph::Node& n : g.nodes()) {
    const ImageLayout& in = g.layout(n.in0);
    buf(n.out).reset(static_cast<std::size_t>(g.layout(n.out).total_floats()));
    const float* src = buf(n.in0).data();
    float* dst = buf(n.out).data();
    switch (n.kind) {
      case graph::OpKind::kConv:
        DirectConvBlocked(n.problem.shape, 1)
            .execute(src, n.weights.data(), dst);
        break;
      case graph::OpKind::kBias:
        graph::bias_blocked(in, n.bias.data(), src, dst);
        break;
      case graph::OpKind::kRelu:
        graph::relu_blocked(in, src, dst);
        break;
      case graph::OpKind::kMaxPool:
        graph::max_pool_blocked(in, n.window, src, dst);
        break;
      case graph::OpKind::kEltwiseAdd:
        graph::eltwise_add_blocked(in, src, buf(n.in1).data(), dst);
        break;
      case graph::OpKind::kInput:
        break;
    }
  }
  const AlignedBuffer<float>& out = buf(g.output());
  return std::vector<float>(out.data(), out.data() + out.size());
}

/// ||got - want||₂ / ||want||₂ over `n` floats.
inline double rel_l2_error(const float* got, const float* want,
                           std::size_t n) {
  double num = 0, den = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(got[i]) - want[i];
    num += d * d;
    den += static_cast<double>(want[i]) * want[i];
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

}  // namespace ondwin::oracle
