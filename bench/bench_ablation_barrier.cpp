// Ablation E8 (paper §4.5 "Efficient fork–join synchronization"): cost of
// one fork–join round under the custom barrier versus pthread_barrier_t
// and a std::condition_variable barrier.
//
// Rounds run back to back, so the custom barrier's waiters always find
// the next epoch within their spin budget and never park: the "spin"
// column is the busy-wait fast path the paper measures. Making parking
// safe costs only the last arrival: its epoch store is seq_cst (a locked
// instruction) and it loads the parked-waiter count.
// With more participants than free cores, a waiter that loses its core
// spins out its budget and then parks in the kernel, so the barrier
// degrades towards the futex-based columns instead of burning the
// timeslices the descheduled participants need.
#include <pthread.h>

#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/barrier.h"
#include "util/cpu.h"
#include "util/timer.h"

using namespace ondwin;

namespace {

/// Classic two-phase condition-variable barrier (what a generic runtime
/// without busy-waiting would use).
class CondVarBarrier {
 public:
  explicit CondVarBarrier(int n) : n_(n) {}
  void wait() {
    std::unique_lock<std::mutex> lk(mu_);
    const u64 gen = gen_;
    if (++count_ == n_) {
      count_ = 0;
      ++gen_;
      cv_.notify_all();
    } else {
      cv_.wait(lk, [&] { return gen_ != gen; });
    }
  }

 private:
  const int n_;
  std::mutex mu_;
  std::condition_variable cv_;
  int count_ = 0;
  u64 gen_ = 0;
};

template <typename Setup, typename Wait>
double bench_barrier(int threads, int rounds, Setup&& setup, Wait&& wait) {
  setup(threads);
  std::vector<std::thread> ts;
  Timer t;
  for (int i = 0; i < threads; ++i) {
    ts.emplace_back([&, i] {
      (void)i;
      for (int r = 0; r < rounds; ++r) wait();
    });
  }
  for (auto& th : ts) th.join();
  return t.seconds() / rounds * 1e9;  // ns per round
}

}  // namespace

int main() {
  std::printf("== E8: fork-join barrier latency (ns per round) ==\n");
  std::printf("hardware threads on this host: %d\n\n", hardware_threads());
  std::printf("%-10s %14s %14s %14s\n", "threads", "spin (ours)",
              "pthread", "condvar");

  for (const int threads : {1, 2, 3, 4}) {
    const int rounds = threads <= hardware_threads() ? 20000 : 300;

    SpinBarrier* spin = nullptr;
    const double spin_ns = bench_barrier(
        threads, rounds,
        [&](int n) {
          delete spin;
          spin = new SpinBarrier(n);
        },
        [&] { spin->wait(); });
    delete spin;

    pthread_barrier_t pb;
    const double pthread_ns = bench_barrier(
        threads, rounds,
        [&](int n) {
          pthread_barrier_init(&pb, nullptr, static_cast<unsigned>(n));
        },
        [&] { pthread_barrier_wait(&pb); });
    pthread_barrier_destroy(&pb);

    CondVarBarrier* cvb = nullptr;
    const double cv_ns = bench_barrier(
        threads, rounds,
        [&](int n) {
          delete cvb;
          cvb = new CondVarBarrier(n);
        },
        [&] { cvb->wait(); });
    delete cvb;

    std::printf("%-10d %14.0f %14.0f %14.0f\n", threads, spin_ns, pthread_ns,
                cv_ns);
  }
  return 0;
}
