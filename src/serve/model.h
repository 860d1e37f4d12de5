// A registered serving target: a named network (a Sequential, run on one
// graph::Executor), its request batcher, and its serving counters. A conv
// model is a one-layer network (the conv constructor builds it); it
// differs only in carrying the ConvShape transports validate request
// frames against.
//
// This is where the paper's plan-once/execute-many design meets serving:
// requests arrive one sample at a time and batch up to max_batch. The
// model's engine (serve/engine.h) compiles one executor, from
// Sequential::to_graph(max_batch, options) — auto layers (add_conv_auto)
// select at max_batch — and a batch of n requests runs its n samples on
// it (graph/executor.h): no padded rows, one transformed W per conv.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "net/sequential.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/latency.h"
#include "serve/serve_types.h"

namespace ondwin::serve {

class Model {
 public:
  /// A convolution model, served as a one-layer network: `problem`
  /// describes ONE sample (batch is forced to 1) and becomes one
  /// F(problem.tile_m) conv layer — no bias, no ReLU — built under
  /// `config.plan`; `kernels_blocked` is the weight bank in
  /// problem.kernel_layout(), copied exactly. Register a Sequential for
  /// bias/ReLU.
  Model(std::string name, const ConvProblem& problem,
        const float* kernels_blocked, const ModelConfig& config);

  /// A network model. The Sequential's own batch size is irrelevant —
  /// the executor is lowered and compiled at max_batch; its weights are
  /// used as they are, never re-randomized.
  Model(std::string name, std::shared_ptr<const Sequential> net,
        const ModelConfig& config);

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  const std::string& name() const { return name_; }
  const ModelConfig& config() const { return config_; }
  Batcher& batcher() { return batcher_; }
  const Batcher& batcher() const { return batcher_; }

  /// The model's workspace pool: request input copies, result outputs,
  /// engine staging and the executor's activation slab check out of
  /// here. Its hit rate is the serving path's no-allocation guarantee
  /// (see ModelStats::pool).
  mem::WorkspacePool& pool() { return pool_; }

  i64 sample_input_floats() const { return sample_in_; }
  i64 sample_output_floats() const { return sample_out_; }

  /// The one-sample shape of a conv model (nullptr for networks) — the
  /// shape contract transports validate request frames against.
  const ConvShape* conv_shape() const {
    return conv_shape_ ? &*conv_shape_ : nullptr;
  }

  /// The served network: its engine lowers and compiles it at
  /// max_batch on its first batch.
  const Sequential& network() const { return *base_net_; }

  /// Fills a stats snapshot from the counters below.
  ModelStats snapshot() const;

  // Serving counters (engines and the server bump these directly).
  std::atomic<u64> submitted{0};
  std::atomic<u64> rejected{0};
  std::atomic<u64> expired{0};
  std::atomic<u64> completed{0};
  std::atomic<u64> failed{0};
  /// Executions by what released the batch (FlushTrigger order); their
  /// sum is ModelStats::batches.
  std::array<std::atomic<u64>, kFlushTriggers> batches_by_trigger{};
  LatencyRecorder latency;
  /// Executed batch sizes; the engine observes one sample per execution.
  obs::Histogram batch_occupancy{{1, 2, 4, 8, 16, 32, 64}};

 private:
  Model(std::string name, std::shared_ptr<const Sequential> net,
        const ModelConfig& config, std::optional<ConvShape> conv_shape);

  const std::string name_;
  const ModelConfig config_;
  const std::optional<ConvShape> conv_shape_;
  mem::WorkspacePool pool_;
  Batcher batcher_;
  i64 sample_in_ = 0;
  i64 sample_out_ = 0;

  std::shared_ptr<const Sequential> base_net_;
};

}  // namespace ondwin::serve
