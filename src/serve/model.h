// A registered serving target: a named network (a Sequential, run as
// graph::Executor replicas), its request batcher, its lazily built
// per-batch-size execution replicas, and its serving counters. A conv
// model is a one-layer network (the conv constructor builds it); it
// differs only in carrying the ConvShape transports validate request
// frames against.
//
// Replica management is where the paper's plan-once/execute-many design
// meets serving reality: requests arrive one sample at a time, but plans
// are compiled for a fixed batch. The model keeps one replica per
// batch-size bucket (powers of two up to max_batch); an incoming batch of
// n requests executes on the smallest bucket ≥ n with zero-padded tail
// rows. Each replica is a graph executor compiled from
// Sequential::to_graph(bucket, options) — auto layers (add_conv_auto)
// re-select per bucket — and adopts the first replica's transformed
// kernel banks wherever its conv steps match (graph/executor.h), so the
// model holds one W per conv however many buckets it serves.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "graph/executor.h"
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
  /// replicas are lowered and compiled per bucket; its weights are used
  /// as they are, never re-randomized.
  Model(std::string name, std::shared_ptr<const Sequential> net,
        const ModelConfig& config);

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  const std::string& name() const { return name_; }
  const ModelConfig& config() const { return config_; }
  Batcher& batcher() { return batcher_; }
  const Batcher& batcher() const { return batcher_; }

  /// The model's workspace pool: request input copies, result outputs,
  /// and engine staging check out of here, shared by every engine and
  /// replica of this model. Its hit rate is the serving path's
  /// no-allocation guarantee (see ModelStats::pool).
  mem::WorkspacePool& pool() { return pool_; }

  i64 sample_input_floats() const { return sample_in_; }
  i64 sample_output_floats() const { return sample_out_; }

  /// The one-sample shape of a conv model (nullptr for networks) — the
  /// shape contract transports validate request frames against.
  const ConvShape* conv_shape() const {
    return conv_shape_ ? &*conv_shape_ : nullptr;
  }

  /// Batch-size buckets: 1, 2, 4, ... capped at max_batch (which is
  /// always the last bucket).
  const std::vector<int>& buckets() const { return buckets_; }
  int bucket_for(int batch) const;

  /// A ready-to-execute replica for `bucket` samples under `options`.
  /// The caller must hold *exec_mutex around graph->execute() (replicas
  /// are stateful and may be shared by engines with identical options).
  struct Replica {
    std::mutex* exec_mutex = nullptr;
    graph::Executor* graph = nullptr;
  };
  Replica replica(int bucket, const PlanOptions& options);

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
  /// Executed batch sizes; engines observe one sample per execution.
  /// Bounds mirror the power-of-two replica buckets so the histogram
  /// reads directly as bucket occupancy.
  obs::Histogram batch_occupancy{{1, 2, 4, 8, 16, 32, 64}};

 private:
  Model(std::string name, std::shared_ptr<const Sequential> net,
        const ModelConfig& config, std::optional<ConvShape> conv_shape);

  // The net lowered + compiled for one (bucket, options) key, arena slab
  // checked out of the model pool.
  struct NetReplica {
    std::unique_ptr<graph::Executor> graph;
    std::mutex exec_mutex;
  };

  const std::string name_;
  const ModelConfig config_;
  const std::optional<ConvShape> conv_shape_;
  mem::WorkspacePool pool_;
  Batcher batcher_;
  std::vector<int> buckets_;
  i64 sample_in_ = 0;
  i64 sample_out_ = 0;

  std::shared_ptr<const Sequential> base_net_;
  std::mutex net_mu_;
  std::map<std::string, std::shared_ptr<NetReplica>> net_replicas_;
  // The first compiled replica: every later one adopts its banks. It
  // keeps its untransformed weights (the adoption match compares them);
  // adopters release theirs.
  const graph::Executor* first_ = nullptr;
};

}  // namespace ondwin::serve
