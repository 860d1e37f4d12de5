// A registered serving target: a named convolution (ConvProblem + blocked
// weights) or network (a Sequential, run as graph::Executor replicas),
// its request batcher, its lazily built per-batch-size execution
// replicas, and its serving counters.
//
// Replica management is where the paper's plan-once/execute-many design
// meets serving reality: requests arrive one sample at a time, but plans
// are compiled for a fixed batch. The model keeps one replica per
// batch-size bucket (powers of two up to max_batch); an incoming batch of
// n requests executes on the smallest bucket ≥ n with zero-padded tail
// rows. Conv replicas are deduplicated across engines through the
// PlanCache, and every replica shares one immutable pre-transformed W —
// the first replica pays the kernel transform, the rest adopt it.
// Network replicas are graph executors compiled from
// Sequential::to_graph(bucket, options); each adopts an earlier replica's
// transformed banks wherever its conv steps match (graph/executor.h).
//
// With ModelConfig::auto_select on, conv replicas instead come from the
// selection planner (ondwin::select): each bucket independently picks the
// fastest algorithm/tile for its batch size (the crossover moves with
// batch), cached in wisdom v2 so the measurements happen once ever.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/plan_cache.h"
#include "graph/executor.h"
#include "net/sequential.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/latency.h"
#include "serve/serve_types.h"

namespace ondwin::serve {

class Model {
 public:
  /// A convolution model. `problem` describes ONE sample (batch is forced
  /// to 1); `kernels_blocked` is the weight bank in problem.kernel_layout()
  /// — copied, the caller keeps ownership. Conv models run without an
  /// epilogue; register a Sequential for fused bias/ReLU.
  Model(std::string name, const ConvProblem& problem,
        const float* kernels_blocked, const ModelConfig& config,
        PlanCache* cache);

  /// A network model. The Sequential's own batch size is irrelevant —
  /// replicas are lowered and compiled per bucket; its weights are used
  /// as they are, never re-randomized.
  Model(std::string name, std::shared_ptr<const Sequential> net,
        const ModelConfig& config, PlanCache* cache);

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

  /// The one-sample problem of a conv model (nullptr for networks) — the
  /// shape contract transports validate request frames against.
  const ConvProblem* conv_problem() const {
    return is_conv_ ? &problem_ : nullptr;
  }

  /// Batch-size buckets: 1, 2, 4, ... capped at max_batch (which is
  /// always the last bucket).
  const std::vector<int>& buckets() const { return buckets_; }
  int bucket_for(int batch) const;

  /// A ready-to-execute replica for `bucket` samples under `options`.
  /// Exactly one of plan/auto_conv/graph is non-null; the caller must hold
  /// *exec_mutex around the execution (replicas are stateful and may be
  /// shared by engines with identical options).
  struct Replica {
    std::mutex* exec_mutex = nullptr;
    ConvPlan* plan = nullptr;
    select::AutoConv* auto_conv = nullptr;  // conv model with auto_select
    /// The planner's decision behind auto_conv (nullptr otherwise).
    const select::SelectedConfig* selected = nullptr;
    graph::Executor* graph = nullptr;  // network model
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
  std::atomic<u64> batches{0};
  LatencyRecorder latency;
  /// Executed batch sizes; engines observe one sample per execution.
  /// Bounds mirror the power-of-two replica buckets so the histogram
  /// reads directly as bucket occupancy.
  obs::Histogram batch_occupancy{{1, 2, 4, 8, 16, 32, 64}};

 private:
  // Network model: the net lowered + compiled for one (bucket, options)
  // key, arena slab checked out of the model pool.
  struct NetReplica {
    std::unique_ptr<graph::Executor> graph;
    std::mutex exec_mutex;
  };
  // Conv model under auto_select: per-(bucket, options) planner-chosen
  // executor plus the decision it was built from.
  struct AutoReplica {
    std::unique_ptr<select::AutoConv> conv;
    select::SelectedConfig selected;
    std::mutex exec_mutex;
  };

  const std::string name_;
  const ModelConfig config_;
  PlanCache* const cache_;
  mem::WorkspacePool pool_;
  Batcher batcher_;
  std::vector<int> buckets_;
  i64 sample_in_ = 0;
  i64 sample_out_ = 0;

  // Conv state: the per-sample problem, a private copy of the blocked
  // weights, and the shared pre-transformed W (filled by the first
  // replica, adopted by the rest).
  const bool is_conv_;
  ConvProblem problem_;
  AlignedBuffer<float> w_blocked_;
  std::mutex w_mu_;
  SharedKernels shared_w_;

  // Conv state under auto_select (replaces the PlanCache path).
  std::mutex auto_mu_;
  std::map<std::string, std::shared_ptr<AutoReplica>> auto_replicas_;

  // Network state.
  std::shared_ptr<const Sequential> base_net_;
  std::mutex net_mu_;
  std::map<std::string, std::shared_ptr<NetReplica>> net_replicas_;
};

}  // namespace ondwin::serve
