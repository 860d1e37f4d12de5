// Bounded, work-conserving micro-batcher: the thread-safe request queue of
// one model, drained by worker engines in batches.
//
// An idle engine takes whatever is queued (oldest first, at most
// max_batch) as soon as one of these holds:
//   full       max_batch requests are queued;
//   quiet      no request has arrived for kQuietGap since the newest one,
//              so nothing suggests a partner is about to come;
//   max_delay  the oldest request has waited max_delay_ms (the cap on
//              lingering under a steady trickle of arrivals);
//   drain      the batcher is shutting down and drains its remainder.
// A lone request therefore waits about kQuietGap, not the whole
// max_delay_ms window, while requests that arrive back to back (a burst,
// or a queue that built up behind a busy engine) still leave as one
// batch. The queue itself is bounded: submit() beyond max_queue fails so
// overload turns into fast rejection instead of unbounded memory growth
// and latency collapse.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "serve/serve_types.h"

namespace ondwin::serve {

class Batcher {
 public:
  /// Longest arrival gap a partial batch lingers for. Sized from the
  /// arrival gaps inside 8-request rpc bursts on a unix socket (p99
  /// 0.16 ms, p99.9 0.46 ms; 99.5% of bursts have no gap above it,
  /// EXPERIMENTS.md E13), so a burst still leaves whole; capped at
  /// max_delay_ms, so max_delay_ms = 0 dispatches at once.
  static constexpr std::chrono::microseconds kQuietGap{500};

  /// A released batch and the rule that released it.
  struct Batch {
    std::vector<PendingRequest> requests;
    FlushTrigger trigger = FlushTrigger::kFull;
  };

  explicit Batcher(const BatchPolicy& policy);

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Enqueues `request` (moving from it) and returns true; returns false
  /// — leaving `request` untouched — when the queue is full or shut down.
  bool submit(PendingRequest& request);

  /// Blocks until a batch is ready and returns it (1..max_batch requests,
  /// oldest first). Returns an empty batch once the batcher is shut down
  /// AND fully drained — the engine's signal to exit. Safe to call from
  /// several engines; each request is handed out exactly once.
  Batch next_batch();

  /// Stops accepting new requests and wakes every waiting engine. Already
  /// queued requests remain to be drained via next_batch().
  void shutdown();

  /// Removes and returns every queued request without serving it (the
  /// non-draining shutdown path; the caller fails their promises).
  std::vector<PendingRequest> cancel_pending();

  i64 depth() const;
  bool accepting() const;
  const BatchPolicy& policy() const { return policy_; }

 private:
  Batch take_batch_locked(FlushTrigger trigger);

  const BatchPolicy policy_;
  const std::chrono::steady_clock::duration max_delay_;
  const std::chrono::steady_clock::duration quiet_gap_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  bool stopping_ = false;
};

}  // namespace ondwin::serve
