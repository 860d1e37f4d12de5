// Test helper: holds a model's only serving engine busy for as long as a
// test needs, so requests submitted meanwhile queue up behind it however
// slowly they arrive (a long max_delay_ms no longer parks a partial batch:
// the batcher is work-conserving).
//
// The parking request carries a deadline that has already passed. The
// engine sheds it — counted in `expired`, never in `completed` or
// `batches` — and blocks inside its completion until release(). The
// constructor returns once the engine is inside that completion.
#pragma once

#include <chrono>
#include <latch>
#include <memory>
#include <string>
#include <thread>

#include "serve/server.h"

namespace ondwin::serve {

class EngineParker {
 public:
  EngineParker(InferenceServer& server, std::string model)
      : server_(server), model_(std::move(model)), gate_(std::make_shared<Gate>()) {
    server_.submit_async(
        model_, server_.checkout_input(model_),
        [gate = gate_](InferenceResult, std::exception_ptr) {
          gate->parked.count_down();
          gate->release.wait();
        },
        std::chrono::steady_clock::now() - std::chrono::seconds(1));
    gate_->parked.wait();
  }
  ~EngineParker() { release(); }

  EngineParker(const EngineParker&) = delete;
  EngineParker& operator=(const EngineParker&) = delete;

  /// Polls until `n` requests wait in the model's queue.
  void wait_queued(i64 n) const {
    while (server_.queue_depth(model_) < n) std::this_thread::yield();
  }

  /// Lets the engine go back to its queue (idempotent).
  void release() {
    if (released_) return;
    released_ = true;
    gate_->release.count_down();
  }

 private:
  // Shared with the completion, which may still be returning from
  // release.wait() after the parker is gone.
  struct Gate {
    std::latch parked{1};
    std::latch release{1};
  };

  InferenceServer& server_;
  const std::string model_;
  std::shared_ptr<Gate> gate_;
  bool released_ = false;
};

}  // namespace ondwin::serve
