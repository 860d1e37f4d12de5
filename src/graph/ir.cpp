#include "graph/ir.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "util/rng.h"

namespace ondwin::graph {

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kInput: return "input";
    case OpKind::kConv: return "conv";
    case OpKind::kBias: return "bias";
    case OpKind::kRelu: return "relu";
    case OpKind::kMaxPool: return "maxpool";
    case OpKind::kEltwiseAdd: return "add";
  }
  return "?";
}

Graph::Graph(i64 batch, i64 channels, Dims spatial) {
  new_value(ImageLayout(batch, channels, spatial), /*def=*/-1);
}

const Value& Graph::value(ValueId v) const {
  ONDWIN_CHECK(v >= 0 && v < static_cast<ValueId>(values_.size()),
               "bad value id ", v);
  return values_[static_cast<std::size_t>(v)];
}

ValueId Graph::output() const {
  ONDWIN_CHECK(output_ >= 0, "graph has no output — call mark_output()");
  return output_;
}

ValueId Graph::new_value(const ImageLayout& layout, i32 def) {
  Value v;
  v.id = static_cast<ValueId>(values_.size());
  v.layout = layout;
  v.def = def;
  values_.push_back(std::move(v));
  return values_.back().id;
}

Node& Graph::add_node(OpKind kind, ValueId in0, ValueId in1) {
  Node n;
  n.id = static_cast<i32>(nodes_.size());
  n.kind = kind;
  n.in0 = in0;
  n.in1 = in1;
  if (in0 >= 0) value(in0);  // bounds check
  if (in1 >= 0) value(in1);
  nodes_.push_back(std::move(n));
  Node& node = nodes_.back();
  if (in0 >= 0) values_[static_cast<std::size_t>(in0)].users.push_back(node.id);
  if (in1 >= 0) values_[static_cast<std::size_t>(in1)].users.push_back(node.id);
  return node;
}

ValueId Graph::conv(ValueId in, i64 out_channels, Dims kernel, Dims padding,
                    Dims tile_m) {
  select::SelectedConfig winograd;
  winograd.tile_m = tile_m;
  return conv(in, out_channels, kernel, padding, winograd);
}

ValueId Graph::conv(ValueId in, i64 out_channels, Dims kernel, Dims padding,
                    const select::SelectedConfig& config) {
  const ImageLayout& il = layout(in);
  Node& n = add_node(OpKind::kConv, in);
  n.problem.shape.batch = il.batch;
  n.problem.shape.in_channels = il.channels;
  n.problem.shape.out_channels = out_channels;
  n.problem.shape.image = il.spatial;
  n.problem.shape.kernel = kernel;
  n.problem.shape.padding = padding;
  if (config.algorithm == select::Algorithm::kWinograd) {
    n.problem.tile_m = config.tile_m;
    n.problem.validate();
  } else {
    // 1s keep the pool-fold legality test (graph/fusion.h) refusing every
    // pool: only the Winograd epilogue reduces windows per tile.
    n.problem.tile_m = Dims::filled(kernel.rank(), 1);
    n.problem.shape.validate();
  }
  n.config = config;

  // Xavier default so an un-customized graph is runnable; deterministic in
  // the node id, so construction order fully determines weights.
  Rng rng(0xD1CE + static_cast<u64>(n.id));
  const float fan_in =
      static_cast<float>(il.channels * kernel.product());
  const float fan_out = static_cast<float>(out_channels * kernel.product());
  const float limit = std::sqrt(6.0f / (fan_in + fan_out));
  n.weights.reset(
      static_cast<std::size_t>(n.problem.kernel_layout().total_floats()));
  for (auto& v : n.weights) v = rng.uniform(-limit, limit);

  n.out = new_value(n.problem.output_layout(), n.id);
  return n.out;
}

ValueId Graph::bias(ValueId in, const float* values) {
  ONDWIN_CHECK(values != nullptr, "bias() needs channel values");
  const ImageLayout il = layout(in);
  Node& n = add_node(OpKind::kBias, in);
  n.bias.reset(static_cast<std::size_t>(il.channels));
  for (i64 c = 0; c < il.channels; ++c) {
    n.bias[static_cast<std::size_t>(c)] = values[c];
  }
  n.out = new_value(il, n.id);
  return n.out;
}

ValueId Graph::relu(ValueId in) {
  const ImageLayout il = layout(in);
  Node& n = add_node(OpKind::kRelu, in);
  n.out = new_value(il, n.id);
  return n.out;
}

ValueId Graph::max_pool(ValueId in, i64 window) {
  ONDWIN_CHECK(window >= 1, "bad pool window ", window);
  const ImageLayout il = layout(in);
  Node& n = add_node(OpKind::kMaxPool, in);
  n.window = window;
  Dims out_sp = il.spatial;
  for (int d = 0; d < out_sp.rank(); ++d) {
    out_sp[d] = il.spatial[d] / window;
    ONDWIN_CHECK(out_sp[d] >= 1, "pool window ", window,
                 " larger than dimension ", d);
  }
  n.out = new_value(ImageLayout(il.batch, il.channels, out_sp), n.id);
  return n.out;
}

ValueId Graph::eltwise_add(ValueId a, ValueId b) {
  const ImageLayout& la = layout(a);
  const ImageLayout& lb = layout(b);
  ONDWIN_CHECK(la.batch == lb.batch && la.channels == lb.channels &&
                   la.spatial == lb.spatial,
               "eltwise_add layout mismatch: ", la.spatial.to_string(), "x",
               la.channels, " vs ", lb.spatial.to_string(), "x", lb.channels);
  Node& n = add_node(OpKind::kEltwiseAdd, a, b);
  n.out = new_value(la, n.id);
  return n.out;
}

void Graph::mark_output(ValueId v) {
  ONDWIN_CHECK(output_ < 0, "graph output already marked (value ", output_,
               ")");
  values_[static_cast<std::size_t>(value(v).id)].output = true;
  output_ = v;
}

Node& Graph::conv_node_of(ValueId conv_out) {
  const Value& v = value(conv_out);
  ONDWIN_CHECK(v.def >= 0 &&
                   nodes_[static_cast<std::size_t>(v.def)].kind ==
                       OpKind::kConv,
               "value ", conv_out, " is not a convolution output");
  return nodes_[static_cast<std::size_t>(v.def)];
}

void Graph::set_conv_weights(ValueId conv_out, const float* w_plain) {
  Node& n = conv_node_of(conv_out);
  pack_kernels(w_plain, n.weights.data(), n.problem.kernel_layout());
}

void Graph::set_conv_weights_blocked(ValueId conv_out,
                                     const float* w_blocked) {
  Node& n = conv_node_of(conv_out);
  std::memcpy(n.weights.data(), w_blocked, n.weights.size() * sizeof(float));
}

std::string conv_label(const Node& conv) {
  const ConvShape& s = conv.problem.shape;
  std::string label = str_cat(s.in_channels, "->", s.out_channels, " k",
                              s.kernel.to_string(), " ");
  if (conv.config.algorithm == select::Algorithm::kWinograd) {
    return label + "F" + conv.problem.tile_m.to_string();
  }
  return label + select::algorithm_name(conv.config.algorithm);
}

std::string Graph::summary() const {
  std::ostringstream os;
  for (const Node& n : nodes_) {
    const Value& out = value(n.out);
    os << "  [" << n.id << "] " << op_name(n.kind);
    if (n.kind == OpKind::kConv) {
      os << " " << conv_label(n);
    } else if (n.kind == OpKind::kMaxPool) {
      os << " " << n.window;
    }
    os << " v" << n.in0;
    if (n.in1 >= 0) os << "+v" << n.in1;
    os << " -> v" << n.out << " " << out.layout.spatial.to_string() << "x"
       << out.layout.channels << (out.output ? " (output)" : "") << "\n";
  }
  return os.str();
}

}  // namespace ondwin::graph
