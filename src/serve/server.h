// ondwin::serve — a concurrent inference-serving runtime on top of the
// Winograd engine.
//
//   InferenceServer server(options);
//   server.register_conv("vgg3", problem, weights_blocked, config);
//   ResultFuture f = server.submit("vgg3", sample_blocked);
//   InferenceResult r = f.get();   // blocked batch-1 output + timings
//
// Concurrent submit()s against a model are coalesced by its dynamic
// micro-batcher (an idle engine takes the queue once it is full, quiet or
// old enough) and executed by its one worker engine on its one
// graph::Executor, compiled at max_batch with one pre-transformed weight
// bank per conv: a batch of n requests runs exactly n samples. A conv
// model is a one-layer network, so networks and single convolutions serve
// through the same path. Results come back as futures.
// Overload is met with fast rejection (bounded queues); shutdown drains
// in-flight work by default.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/http_exporter.h"
#include "serve/engine.h"
#include "serve/model.h"
#include "serve/serve_types.h"

namespace ondwin::serve {

class InferenceServer {
 public:
  explicit InferenceServer(const ServerOptions& options = {});

  /// Implies stop(/*drain=*/true): drains and waits for every completion.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Registers a convolution model and launches its engine. `problem`
  /// describes one sample (its batch field is ignored and treated as 1);
  /// `kernels_blocked` is copied. The model is served as a one-layer
  /// network — F(problem.tile_m) Winograd, no bias, no ReLU — under
  /// `config.plan`; its ConvShape stays the request shape contract
  /// (model_info). Throws on duplicate names.
  void register_conv(const std::string& name, const ConvProblem& problem,
                     const float* kernels_blocked,
                     const ModelConfig& config = {});

  /// Registers a network model. The Sequential is shared (kept alive by
  /// the server), its weights are used as they are — never re-randomized
  /// — and its own batch size is irrelevant.
  void register_network(const std::string& name,
                        std::shared_ptr<const Sequential> net,
                        const ModelConfig& config = {});

  /// Submits one sample (model's batch-1 blocked input layout, copied
  /// before return). The future carries the result — or an Error when the
  /// model's queue was full or the server is shutting down (also counted
  /// in the model's `rejected` stat). Throws only for unknown models.
  ResultFuture submit(const std::string& model, const float* input_blocked);

  /// The transport-agnostic zero-copy submission path: `input` is a slab
  /// the caller filled (typically checkout_input(), which the rpc tier
  /// reads socket payloads straight into) and `done` is invoked exactly
  /// once — with the result, or with the rejection/execution error.
  /// Requests with a non-epoch `deadline` are shed (DeadlineExceeded)
  /// instead of executed if the deadline passes while they are queued.
  /// Throws only for unknown models / a shut-down server; backpressure is
  /// reported through `done` like every other failure. `trace` attaches
  /// the request to a distributed trace (the rpc tier passes the frame's
  /// context); the default inactive context means untraced.
  void submit_async(const std::string& model, mem::Workspace input,
                    Completion done,
                    std::chrono::steady_clock::time_point deadline = {},
                    const obs::TraceContext& trace = {});

  /// Checks a one-sample input slab out of the model's workspace pool
  /// (unzeroed — the caller fills every float before submit_async). This
  /// is how a transport lands payload bytes directly in pooled memory.
  mem::Workspace checkout_input(const std::string& model);

  /// Shape contract of a registered model, for transports that must
  /// validate a request before accepting its payload.
  struct ModelInfo {
    i64 sample_input_floats = 0;
    i64 sample_output_floats = 0;
    int max_batch = 0;
    bool has_conv_shape = false;
    ConvShape conv_shape;  // valid when has_conv_shape
  };
  ModelInfo model_info(const std::string& model) const;

  /// Queued-but-not-yet-batched requests of one model right now (the
  /// admission controller's load signal — cheaper than a full stats()).
  i64 queue_depth(const std::string& model) const;

  /// Stops accepting requests, then: drain=true serves every queued
  /// request before returning; drain=false fails queued requests with an
  /// Error. Idempotent; engines are joined either way.
  void shutdown(bool drain = true);

  /// shutdown() plus a completion barrier: returns only after every
  /// accepted request's Completion has finished running, so no callback
  /// (future fulfillment, socket write, …) can fire after stop() returns
  /// — the guarantee destructors and process teardown need.
  void stop(bool drain = true);

  bool accepting() const;
  ServerStats stats() const;

  /// The server's serving metrics — per-model request/batch counters,
  /// latency quantiles, batch-occupancy histograms, pool hit rates —
  /// followed by the process-global obs registry (ondwin_* counters from
  /// graph compiles, wisdom stores and tuner), rendered as Prometheus
  /// text exposition (0.0.4) or the equivalent JSON document. Scrape
  /// endpoints can serve either verbatim.
  std::string metrics_prometheus() const;
  std::string metrics_json() const;

  /// The debug/metrics HTTP endpoint, when ServerOptions::http_port
  /// enabled one (nullptr otherwise). /metrics serves this server's
  /// exposition; /statusz includes the serving and graph-attribution
  /// sections.
  obs::HttpExporter* http() const { return http_.get(); }

  /// The serving section of /statusz (exposed so external exporters can
  /// mount it too).
  std::string statusz_text() const;

 private:
  obs::MetricsPage metrics_page() const;
  void add_model(std::unique_ptr<Model> model);
  Model* find_model(const std::string& name) const;

  const ServerOptions options_;
  const int cpu_budget_;
  std::unique_ptr<obs::HttpExporter> http_;

  mutable std::mutex mu_;  // guards the registry and shutdown state
  std::map<std::string, std::unique_ptr<Model>> models_;
  std::vector<std::unique_ptr<Engine>> engines_;
  bool shut_down_ = false;

  // Completion barrier for stop(): accepted requests in whose Completion
  // has not finished yet. Decrement-and-notify happens after the user
  // callback returns.
  std::atomic<i64> inflight_{0};
  mutable std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
};

}  // namespace ondwin::serve
