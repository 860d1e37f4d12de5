// Custom fork–join barrier (paper §4.5, "Efficient fork–join
// synchronization"), built from C++ atomics in the style of the SPIRAL
// fast-barrier. Waiters spin on a single cache line, which synchronizes
// back-to-back stages in a fraction of the cycles of an OpenMP or pthread
// barrier. A waiter that has spun for kSpinBudget parks in the
// kernel (std::atomic::wait on the epoch), so an idle pool costs no CPU.
#pragma once

#include <atomic>
#include <chrono>

#include "util/common.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace ondwin {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(_M_X64)
  _mm_pause();
#endif
}

/// Centralized epoch barrier. `wait()` may be called repeatedly; each call
/// synchronizes all `n` participants.
class SpinBarrier {
 public:
  /// How long a waiter spins before it parks. Measured as time, not as
  /// cpu_relax() rounds, because a round costs ~25 ns on a Sapphire
  /// Rapids core but several times that on other cores or under a
  /// sanitizer. On a 3D-UNet encoder step at 2 threads (the unet3d_2t
  /// workload's net) the workers never park between conv steps, nor
  /// across up to 1 ms of caller work between forwards; a 4-thread pool
  /// left idle burns about 3 x 2 ms of CPU and then goes quiet.
  static constexpr std::chrono::microseconds kSpinBudget{2000};

  explicit SpinBarrier(int n) : n_(n) {
    ONDWIN_CHECK(n >= 1, "barrier needs at least one participant");
  }

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  void wait() {
    const u32 epoch = epoch_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) == n_ - 1) {
      // Last arrival: reset the counter and open the next epoch. The
      // release publishes all work done by every participant before the
      // barrier to everyone who observes the new epoch. The seq_cst
      // store/load pair against the parker's seq_cst increment/load
      // guarantees that either the parker sees the new epoch or this
      // thread sees the parker — so the wake-up syscall is paid only when
      // someone has actually parked.
      count_.store(0, std::memory_order_relaxed);
      epoch_.store(epoch + 1, std::memory_order_seq_cst);
      if (sleepers_.load(std::memory_order_seq_cst) > 0) epoch_.notify_all();
      return;
    }
    // The clock is first read after one burst, and then once per burst,
    // so the fast path (the epoch flips within ~1.6 µs) never reads it.
    if (spin_burst(epoch)) return;
    const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    do {
      if (spin_burst(epoch)) return;
    } while (std::chrono::steady_clock::now() < deadline);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    while (epoch_.load(std::memory_order_seq_cst) == epoch) {
      epoch_.wait(epoch, std::memory_order_acquire);
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }

  int participants() const { return n_; }

 private:
  /// Spins 64 cpu_relax() rounds; true once the epoch has moved on.
  bool spin_burst(u32 epoch) const {
    for (int i = 0; i < 64; ++i) {
      if (epoch_.load(std::memory_order_acquire) != epoch) return true;
      cpu_relax();
    }
    return false;
  }

  const int n_;
  // The epoch sits on its own cache line so arrivals don't invalidate the
  // line waiters spin on. It is 32 bits so std::atomic::wait maps to a
  // plain futex; only equality with the observed value matters, so
  // wrap-around is harmless. The parked-waiter count shares the arrival
  // counter's line, which the last arrival already owns.
  alignas(kAlignment) std::atomic<int> count_{0};
  std::atomic<int> sleepers_{0};
  alignas(kAlignment) std::atomic<u32> epoch_{0};
};

}  // namespace ondwin
