// Persistent worker pool executing statically scheduled stages with a
// single fork–join over the custom barrier (paper §4.5).
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "sched/barrier.h"
#include "util/timer.h"

namespace ondwin {

/// A pool of `size()` logical threads: the caller's thread acts as thread 0
/// and `size()-1` workers are spawned once and wait on the barrier. The
/// main thread publishes a function pointer, everyone passes the barrier,
/// executes `fn(thread_id)`, and meets at the barrier again — exactly the
/// fork–join structure of the paper. Workers idle between runs spin
/// briefly, then park (SpinBarrier::kSpinBudget), so one pool can be
/// lent to every conv step of a network (graph::Executor does).
class ThreadPool {
 public:
  /// `threads`: total participants including the caller.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return threads_; }

  /// Runs `fn(tid)` for tid in [0, size()) across all participants and
  /// returns once every call finished. An exception thrown by `fn` on any
  /// participant is caught there, the join still completes, and the
  /// lowest-numbered participant's exception is rethrown on the caller —
  /// the pool stays usable. Not reentrant: the barrier protocol cannot
  /// nest, so a second run() from inside `fn` or from another thread
  /// while one is in flight throws Error instead of deadlocking.
  void run(const std::function<void(int)>& fn);

  /// Persistent-task fork–join for fused execution: one fork, one join,
  /// and each participant owns its statically assigned work list
  /// end-to-end — `fn` is expected to run a whole multi-stage pipeline,
  /// not one stage. Protocol-wise identical to run() (same barrier pair,
  /// same task_seconds_ accounting), but traced as "pool.run_static" so a
  /// fused plan's single long fork is distinguishable from the staged
  /// per-stage forks in a Perfetto timeline.
  void run_static(const std::function<void(int)>& fn);

  /// Wall seconds each participant spent inside `fn(tid)` during the
  /// last run() — the raw material for per-stage load-imbalance reports
  /// (paper §4.5: the static schedule is only as good as its balance).
  /// Valid between run() calls; written by each worker before the join
  /// barrier, so the caller reads it race-free after run() returns.
  const std::vector<double>& last_task_seconds() const {
    return task_seconds_;
  }

 private:
  void worker_loop(int tid);
  void run_impl(const std::function<void(int)>& fn, const char* span_name);
  void timed_call(const std::function<void(int)>& fn, int tid);

  const int threads_;
  SpinBarrier barrier_;
  const std::function<void(int)>* task_ = nullptr;  // valid between barriers
  bool stop_ = false;
  std::atomic<bool> running_{false};  // reentrancy/concurrent-run guard
  std::vector<double> task_seconds_;  // per-tid fn wall time of last run()
  std::vector<std::exception_ptr> errors_;  // per-tid exception of run()
  std::vector<std::thread> workers_;
};

}  // namespace ondwin
