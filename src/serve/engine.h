// A worker engine: one dispatcher thread that drains a model's batcher,
// stages the n coalesced requests into a contiguous blocked batch, runs
// those n samples on the model's executor, and fulfills the request
// futures. Each model has exactly one engine, which owns the executor:
// compiled from the model's network at max_batch on the first batch.
//
// The dispatcher thread itself does no numeric work beyond the staging
// copies — execution happens inside the executor's ThreadPool (its
// fork–join workers, shared by all its conv steps).
#pragma once

#include <memory>
#include <thread>

#include "graph/executor.h"
#include "serve/model.h"

namespace ondwin::serve {

class Engine {
 public:
  /// `plan_options` are the fully resolved options of this engine
  /// (threads, precision); `index` is a server-wide engine ordinal
  /// used for diagnostics.
  Engine(Model& model, const PlanOptions& plan_options, int index);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  void start();
  void join();

  int index() const { return index_; }
  const PlanOptions& plan_options() const { return plan_options_; }

 private:
  void loop();
  void serve_batch(std::vector<PendingRequest> batch, FlushTrigger trigger);

  Model& model_;
  const PlanOptions plan_options_;
  const int index_;
  mem::Workspace in_staging_;   // max_batch blocked input batch
  mem::Workspace out_staging_;  // max_batch blocked output batch
  std::unique_ptr<graph::Executor> exec_;  // built by the first batch
  std::thread thread_;
};

}  // namespace ondwin::serve
