#include "sched/thread_pool.h"

#include "obs/trace.h"

namespace ondwin {

ThreadPool::ThreadPool(int threads)
    : threads_(threads),
      barrier_(threads),
      task_seconds_(static_cast<std::size_t>(threads), 0.0),
      errors_(static_cast<std::size_t>(threads)) {
  ONDWIN_CHECK(threads >= 1, "thread pool needs at least one thread");
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ThreadPool::~ThreadPool() {
  if (threads_ > 1) {
    stop_ = true;
    task_ = nullptr;
    barrier_.wait();  // release workers so they observe stop_ and exit
    for (auto& w : workers_) w.join();
  }
}

void ThreadPool::run(const std::function<void(int)>& fn) {
  run_impl(fn, "pool.run");
}

void ThreadPool::run_static(const std::function<void(int)>& fn) {
  run_impl(fn, "pool.run_static");
}

void ThreadPool::run_impl(const std::function<void(int)>& fn,
                          const char* span_name) {
  // The fork–join protocol cannot nest: a run() from inside `fn` (or from
  // a second thread while one is in flight) would re-enter the barrier and
  // deadlock. Fail loudly instead — cheap enough (one exchange per run) to
  // keep on in release builds.
  ONDWIN_CHECK(!running_.exchange(true, std::memory_order_acquire),
               "ThreadPool::run is not reentrant — nested or concurrent "
               "run() detected");
  if (threads_ == 1) {
    timed_call(fn, 0);
  } else {
    obs::TraceSpan span(span_name);
    task_ = &fn;
    barrier_.wait();  // fork: workers pick up task_
    timed_call(fn, 0);
    barrier_.wait();  // join: wait for every worker to finish
    task_ = nullptr;
  }
  // Each participant wrote only its own slot before the join, so the
  // caller reads them race-free here.
  std::exception_ptr first;
  for (std::exception_ptr& e : errors_) {
    if (e == nullptr) continue;
    if (first == nullptr) first = e;
    e = nullptr;
  }
  running_.store(false, std::memory_order_release);
  if (first != nullptr) std::rethrow_exception(first);
}

void ThreadPool::timed_call(const std::function<void(int)>& fn, int tid) {
  // Two clock reads per participant per fork–join — noise next to any
  // real stage, and what makes load-imbalance observable at all. An
  // exception must not skip the join (the other participants would wait
  // there forever) nor escape a worker thread (std::terminate), so it is
  // parked in this participant's slot for run_impl to rethrow.
  Timer t;
  try {
    fn(tid);
  } catch (...) {
    errors_[static_cast<std::size_t>(tid)] = std::current_exception();
  }
  task_seconds_[static_cast<std::size_t>(tid)] = t.seconds();
}

void ThreadPool::worker_loop(int tid) {
  for (;;) {
    barrier_.wait();  // wait for a task (or shutdown)
    if (stop_) return;
    {
      ONDWIN_TRACE_SPAN("pool.task");
      timed_call(*task_, tid);
    }
    barrier_.wait();  // signal completion
  }
}

}  // namespace ondwin
