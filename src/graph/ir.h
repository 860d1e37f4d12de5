// ondwin::graph — a small graph IR for whole-network execution.
//
// Nodes are ops (conv / bias / relu / max-pool / eltwise-add), edges are
// tensors in the SIMD-blocked layout. Making the data flow explicit lets
// two compilation passes exploit it:
//
//   * fusion (graph/fusion.h): bias → relu → pool chains hanging off a
//     convolution fold into the conv's epilogue (transform/epilogue.h),
//     so the activation leaves the conv already biased, rectified, and —
//     for Winograd nodes — pooled; it never re-enters DRAM unactivated;
//   * memory planning (graph/memory_planner.h): edge lifetimes are
//     colored onto one fixed arena slab, so a full VGG/C3D-style forward
//     pass performs zero steady-state allocations.
//
// Each conv node names its backend — a select::SelectedConfig: Winograd
// with its tile and blocking, FFT or direct — so a network whose layers
// the selection planner chose lowers unchanged (Sequential::to_graph()).
// Construction order is execution order (an op's inputs must already
// exist), so node ids are a topological order by construction. The graph
// owns its weights; graph::Executor (graph/executor.h) compiles it into
// one select::AutoConv per conv + planned buffers and runs it.
#pragma once

#include <string>
#include <vector>

#include "core/conv_plan.h"
#include "select/auto_conv.h"
#include "util/aligned.h"

namespace ondwin::graph {

enum class OpKind : u8 { kInput, kConv, kBias, kRelu, kMaxPool, kEltwiseAdd };
const char* op_name(OpKind kind);

/// Edge id: an index into Graph::values(). Value 0 is the graph input.
using ValueId = i32;

/// One op. Which attribute fields are meaningful depends on `kind`.
struct Node {
  i32 id = -1;
  OpKind kind = OpKind::kInput;
  ValueId in0 = -1, in1 = -1;  // in1 only for kEltwiseAdd
  ValueId out = -1;

  // kConv: the full per-layer problem (batch/channels resolved from the
  // input edge; tile_m is all 1s unless the node runs Winograd), the
  // backend the node compiles to (algorithm, Winograd tile, blocking,
  // storage precision — blocking changes the GEMM summation order, so
  // carrying it is part of bitwise reproducibility), and the blocked
  // weight bank.
  ConvProblem problem;
  select::SelectedConfig config;
  AlignedBuffer<float> weights;  // problem.kernel_layout() floats

  // kBias: per-output-channel addends (channels floats, plain order).
  AlignedBuffer<float> bias;

  // kMaxPool: cubic window, stride == window, floor semantics.
  i64 window = 0;
};

/// "64->128 k<3,3> F<4,4>" for a Winograd conv node; non-Winograd nodes
/// name their backend instead of a tile ("... k<11,11> fft").
std::string conv_label(const Node& conv);

/// One tensor edge.
struct Value {
  ValueId id = -1;
  ImageLayout layout;
  i32 def = -1;            // producing node; -1 = the graph input
  std::vector<i32> users;  // consuming nodes, in construction order
  bool output = false;     // marked as the network output
};

class Graph {
 public:
  /// Declares the input tensor: a blocked image batch.
  Graph(i64 batch, i64 channels, Dims spatial);

  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// The input edge (always value 0).
  ValueId input() const { return 0; }

  /// Appends F(tile_m, kernel) Winograd convolution (stride 1, symmetric
  /// padding). Weights start Xavier-initialized (deterministic in the
  /// node id) so an un-customized graph is runnable; install real ones
  /// with set_conv_weights(). Returns the output edge.
  ValueId conv(ValueId in, i64 out_channels, Dims kernel, Dims padding,
               Dims tile_m);
  /// Same, run by the backend `config` names — a selection-planner
  /// decision (Winograd tile + blocking, FFT, or direct).
  ValueId conv(ValueId in, i64 out_channels, Dims kernel, Dims padding,
               const select::SelectedConfig& config);
  /// Appends a per-channel bias add. `values` is channels floats (plain
  /// channel order), copied.
  ValueId bias(ValueId in, const float* values);
  /// Appends max(x, 0).
  ValueId relu(ValueId in);
  /// Appends an N-D max-pool with cubic window `window`, stride equal to
  /// the window (floor semantics: trailing remainders are dropped).
  ValueId max_pool(ValueId in, i64 window);
  /// Appends an elementwise add of two equal-layout edges (residual
  /// connections).
  ValueId eltwise_add(ValueId a, ValueId b);

  /// Marks the network output (exactly once, before compiling).
  void mark_output(ValueId v);

  /// Replaces a conv node's weights, plain [C'][C][taps] row-major.
  /// `conv_out` is the edge the conv() call returned.
  void set_conv_weights(ValueId conv_out, const float* w_plain);
  /// Same, already in the blocked kernel-bank layout.
  void set_conv_weights_blocked(ValueId conv_out, const float* w_blocked);

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Value>& values() const { return values_; }
  const Value& value(ValueId v) const;
  const ImageLayout& layout(ValueId v) const { return value(v).layout; }
  const ImageLayout& input_layout() const { return values_[0].layout; }

  /// The marked output edge (requires mark_output()).
  ValueId output() const;
  const ImageLayout& output_layout() const { return layout(output()); }

  /// Human-readable per-node dump ("[2] conv 64->128 k<3,3> F<4,4> ...").
  std::string summary() const;

 private:
  Node& add_node(OpKind kind, ValueId in0, ValueId in1 = -1);
  ValueId new_value(const ImageLayout& layout, i32 def);
  Node& conv_node_of(ValueId conv_out);

  std::vector<Node> nodes_;
  std::vector<Value> values_;
  ValueId output_ = -1;
};

}  // namespace ondwin::graph
