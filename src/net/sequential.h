// Network-level API: a builder for sequential stacks of convolution and
// max-pool layers.
//
// ConvNets run dozens of layers back to back; the paper's layout is
// designed so one layer's output feeds the next without reshuffling
// (§4.1), and its workspace note (§4.4) points out that one auxiliary
// buffer serves every layer. Sequential describes such a stack — layer
// shapes, per-layer algorithm decisions, blocked weights and biases — and
// lowers it to the graph IR (graph/ir.h). graph::Executor is the one
// thing that runs it: it transforms the kernels once (FX mode), folds
// bias+ReLU(+pool) into the conv epilogues and plans every activation
// onto one arena slab. A Sequential itself owns no plans and transforms
// no kernels.
#pragma once

#include <string>
#include <vector>

#include "core/conv_plan.h"
#include "graph/ir.h"
#include "select/select.h"
#include "util/rng.h"

namespace ondwin {

class Sequential {
 public:
  /// Input geometry of the network. Options are shared by every layer
  /// (threads, JIT switches, wisdom path, ...).
  Sequential(i64 batch, i64 in_channels, Dims input_dims,
             const PlanOptions& options = {});

  /// Appends a convolution layer (stride 1, symmetric `padding`,
  /// F(tile_m, kernel) Winograd). Weights start Xavier-initialized; bias
  /// starts zero. Returns the layer index.
  int add_conv(i64 out_channels, Dims kernel, Dims padding, Dims tile_m,
               bool relu = true);

  /// Appends a convolution layer whose algorithm and tile sizes are
  /// chosen by the selection planner (ondwin::select) instead of the
  /// caller: Winograd F(m, r) with planner-tuned m and blocking, the
  /// blocked direct baseline, or FFT convolution — whichever measures
  /// fastest for this layer's shape at this network's batch size.
  /// `opts` carries the planner knobs (budget, top-K, class gates,
  /// wisdom); its `plan` field is ignored — the network's own PlanOptions
  /// govern execution, and its wisdom path caches the decisions.
  /// to_graph(batch, options) re-runs selection at another batch size
  /// (wisdom makes that cheap); serving selects at its max_batch.
  int add_conv_auto(i64 out_channels, Dims kernel, Dims padding,
                    bool relu = true,
                    const select::SelectOptions& opts = {});

  /// The planner's decision for layer `i` (requires an add_conv_auto
  /// layer).
  const select::SelectedConfig& selected_config(int layer) const;

  /// Appends an N-D max-pool with cubic window `window` and stride equal
  /// to the window (floor semantics: trailing remainder is dropped).
  int add_max_pool(i64 window);

  /// Replaces a conv layer's weights (plain [C'][C][taps] row-major) and
  /// bias (C' floats, nullptr keeps zero bias).
  void set_conv_weights(int layer, const float* w_plain, const float* bias);

  /// He-initializes every conv layer from `rng` (deterministic).
  void randomize_weights(Rng& rng);

  int layer_count() const { return static_cast<int>(layers_.size()); }
  const ImageLayout& input_layout() const { return input_layout_; }
  const ImageLayout& output_layout() const;
  /// The options the network was built with (auto layers were selected
  /// under them). Pass them as CompileOptions::plan to run the lowered
  /// graph the way the planner measured it.
  const PlanOptions& plan_options() const { return options_; }

  /// Lowers the network to the graph IR (graph/ir.h) at its own batch
  /// size: each conv layer becomes conv → bias (→ relu) nodes carrying
  /// this network's weights (copied) and its backend decision — Winograd
  /// tile and blocking, FFT or direct — each pool layer a max-pool node,
  /// and the last layer's edge is the marked output.
  graph::Graph to_graph() const;

  /// Same, at `batch` samples: auto layers re-run selection at that
  /// batch size under `options` (wisdom hits once the decision has been
  /// measured), fixed layers keep their tile. Serving compiles one of
  /// these per model, at its max_batch.
  graph::Graph to_graph(i64 batch, const PlanOptions& options) const;

  /// Human-readable per-layer summary ("conv 64->128 3x3 F(4x4) ...").
  std::string summary() const;

 private:
  /// One layer: a max-pool when `window` > 0, otherwise a convolution.
  struct Layer {
    i64 window = 0;
    // Convolution: the problem (tile_m is the selected Winograd tile,
    // rank 0 for FFT/direct), the backend decision, and — for
    // planner-chosen layers — the planner knobs, kept so
    // to_graph(batch, ...) can re-select.
    ConvProblem problem;
    bool auto_selected = false;
    select::SelectedConfig selected;
    select::SelectOptions select_opts;
    AlignedBuffer<float> w_blocked;  // problem.kernel_layout() floats
    AlignedBuffer<float> bias;       // C' floats
    bool relu = true;
    ImageLayout output;
  };

  /// Appends a conv layer with Xavier weights and zero bias.
  int append_conv(i64 out_channels, Dims kernel, Dims padding, bool relu,
                  const select::SelectedConfig& selected);
  /// to_graph() at `batch`; non-null `reselect` re-runs auto layers'
  /// selection under those options, null keeps each layer's decision.
  graph::Graph lower(i64 batch, const PlanOptions* reselect) const;

  ImageLayout input_layout_;
  PlanOptions options_;
  std::vector<Layer> layers_;
};

}  // namespace ondwin
