#include "net/sequential.h"

#include <cmath>
#include <sstream>

namespace ondwin {

namespace {

ConvShape conv_shape(const ImageLayout& in, i64 out_channels, Dims kernel,
                     Dims padding) {
  ConvShape shape;
  shape.batch = in.batch;
  shape.in_channels = in.channels;
  shape.out_channels = out_channels;
  shape.image = in.spatial;
  shape.kernel = kernel;
  shape.padding = padding;
  return shape;
}

}  // namespace

Sequential::Sequential(i64 batch, i64 in_channels, Dims input_dims,
                       const PlanOptions& options)
    : input_layout_(batch, in_channels, input_dims), options_(options) {}

const ImageLayout& Sequential::output_layout() const {
  ONDWIN_CHECK(!layers_.empty(), "network has no layers");
  return layers_.back().output;
}

int Sequential::append_conv(i64 out_channels, Dims kernel, Dims padding,
                            bool relu,
                            const select::SelectedConfig& selected) {
  const ImageLayout& in =
      layers_.empty() ? input_layout_ : layers_.back().output;

  Layer layer;
  layer.problem.shape = conv_shape(in, out_channels, kernel, padding);
  layer.problem.tile_m = selected.tile_m;
  if (selected.algorithm == select::Algorithm::kWinograd) {
    layer.problem.validate();
  } else {
    layer.problem.shape.validate();
  }
  layer.selected = selected;
  layer.relu = relu;
  layer.bias.reset(static_cast<std::size_t>(out_channels));
  layer.output = layer.problem.output_layout();

  // Xavier default so an un-customized network is still runnable. The seed
  // is the layer index, so construction order fully determines weights.
  Rng rng(0xD1CE + static_cast<u64>(layers_.size()));
  const float fan_in = static_cast<float>(in.channels * kernel.product());
  const float fan_out = static_cast<float>(out_channels * kernel.product());
  const float limit = std::sqrt(6.0f / (fan_in + fan_out));
  layer.w_blocked.reset(
      static_cast<std::size_t>(layer.problem.kernel_layout().total_floats()));
  for (auto& v : layer.w_blocked) v = rng.uniform(-limit, limit);

  layers_.push_back(std::move(layer));
  return static_cast<int>(layers_.size()) - 1;
}

int Sequential::add_conv(i64 out_channels, Dims kernel, Dims padding,
                         Dims tile_m, bool relu) {
  select::SelectedConfig winograd;
  winograd.tile_m = tile_m;
  return append_conv(out_channels, kernel, padding, relu, winograd);
}

int Sequential::add_conv_auto(i64 out_channels, Dims kernel, Dims padding,
                              bool relu,
                              const select::SelectOptions& opts) {
  const ImageLayout& in =
      layers_.empty() ? input_layout_ : layers_.back().output;
  // The network's PlanOptions govern execution (threads, JIT switches)
  // and its wisdom file caches the decisions; the caller's SelectOptions
  // contribute only the planner knobs.
  select::SelectOptions sopts = opts;
  sopts.plan = options_;
  const select::SelectedConfig selected = select::select_config(
      conv_shape(in, out_channels, kernel, padding), sopts);
  const int idx = append_conv(out_channels, kernel, padding, relu, selected);
  layers_.back().auto_selected = true;
  layers_.back().select_opts = sopts;
  return idx;
}

const select::SelectedConfig& Sequential::selected_config(int layer) const {
  const Layer& l = layers_.at(static_cast<std::size_t>(layer));
  ONDWIN_CHECK(l.auto_selected, "layer ", layer,
               " is not an auto-selected convolution");
  return l.selected;
}

int Sequential::add_max_pool(i64 window) {
  ONDWIN_CHECK(window >= 1, "bad pool window ", window);
  const ImageLayout& in =
      layers_.empty() ? input_layout_ : layers_.back().output;

  Layer layer;
  layer.window = window;
  Dims out_sp = in.spatial;
  for (int d = 0; d < out_sp.rank(); ++d) {
    out_sp[d] = in.spatial[d] / window;
    ONDWIN_CHECK(out_sp[d] >= 1, "pool window ", window,
                 " larger than dimension ", d);
  }
  layer.output = ImageLayout(in.batch, in.channels, out_sp);
  layers_.push_back(std::move(layer));
  return static_cast<int>(layers_.size()) - 1;
}

void Sequential::set_conv_weights(int layer, const float* w_plain,
                                  const float* bias) {
  Layer& l = layers_.at(static_cast<std::size_t>(layer));
  ONDWIN_CHECK(l.window == 0, "layer ", layer, " is not a convolution");
  pack_kernels(w_plain, l.w_blocked.data(), l.problem.kernel_layout());
  if (bias != nullptr) {
    for (i64 i = 0; i < l.problem.shape.out_channels; ++i) {
      l.bias[static_cast<std::size_t>(i)] = bias[i];
    }
  } else {
    l.bias.fill_zero();
  }
}

void Sequential::randomize_weights(Rng& rng) {
  for (Layer& l : layers_) {
    if (l.window > 0) continue;
    const KernelLayout kl = l.problem.kernel_layout();
    const float stddev = std::sqrt(
        2.0f / static_cast<float>(kl.in_channels * kl.taps()));
    for (auto& v : l.w_blocked) v = rng.gaussian(0.0f, stddev);
  }
}

graph::Graph Sequential::to_graph() const {
  return lower(input_layout_.batch, nullptr);
}

graph::Graph Sequential::to_graph(i64 batch,
                                  const PlanOptions& options) const {
  ONDWIN_CHECK(batch >= 1, "to_graph() batch must be >= 1, got ", batch);
  return lower(batch, &options);
}

graph::Graph Sequential::lower(i64 batch, const PlanOptions* reselect) const {
  ONDWIN_CHECK(!layers_.empty(), "network has no layers");
  graph::Graph g(batch, input_layout_.channels, input_layout_.spatial);
  graph::ValueId v = g.input();
  for (const Layer& l : layers_) {
    if (l.window > 0) {
      v = g.max_pool(v, l.window);
      continue;
    }
    const ConvShape& s = l.problem.shape;
    select::SelectedConfig config = l.selected;
    if (l.auto_selected && reselect != nullptr) {
      // Batch moves the algorithm/tile crossover; the shared wisdom file
      // makes this re-selection a cache hit in the steady state.
      ConvShape shape = s;
      shape.batch = batch;
      select::SelectOptions sopts = l.select_opts;
      sopts.plan = *reselect;
      config = select::select_config(shape, sopts);
    }
    v = g.conv(v, s.out_channels, s.kernel, s.padding, config);
    g.set_conv_weights_blocked(v, l.w_blocked.data());
    // The graph carries an explicit bias node even for zero bias, so
    // every lowered conv has the same epilogue, fused or not.
    v = g.bias(v, l.bias.data());
    if (l.relu) v = g.relu(v);
  }
  g.mark_output(v);
  return g;
}

std::string Sequential::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& l = layers_[i];
    os << "  [" << i << "] ";
    if (l.window == 0) {
      const ConvShape& s = l.problem.shape;
      os << "conv " << s.in_channels << "->" << s.out_channels << " k"
         << s.kernel.to_string();
      if (l.auto_selected) {
        os << " auto[" << select::algorithm_name(l.selected.algorithm);
        if (l.selected.algorithm == select::Algorithm::kWinograd) {
          os << " F" << l.selected.tile_m.to_string();
        }
        os << "]";
      } else {
        os << " F" << l.problem.tile_m.to_string();
      }
      os << (l.relu ? " +relu" : "");
    } else {
      os << "maxpool " << l.window;
    }
    os << " -> " << l.output.spatial.to_string() << "x" << l.output.channels
       << "\n";
  }
  return os.str();
}

}  // namespace ondwin
