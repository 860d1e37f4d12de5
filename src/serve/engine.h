// A worker engine: one dispatcher thread that drains a model's batcher,
// stages the coalesced requests into a contiguous blocked batch, executes
// the right per-batch-size replica, and fulfills the request futures.
//
// The dispatcher thread itself does no numeric work beyond the staging
// copies — execution happens inside the replica's ThreadPool (the
// executor's fork–join workers, shared by all its conv steps). Several
// engines with identical options share replicas and take turns via the
// replica's execution mutex.
#pragma once

#include <thread>

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
  mem::Workspace in_staging_;   // max-bucket blocked input batch
  mem::Workspace out_staging_;  // max-bucket blocked output batch
  std::thread thread_;
};

}  // namespace ondwin::serve
