#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "sched/barrier.h"
#include "sched/static_schedule.h"
#include "sched/thread_pool.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ondwin {
namespace {

// ------------------------------------------------------------- barrier ----

TEST(SpinBarrier, SingleParticipantNeverBlocks) {
  SpinBarrier b(1);
  for (int i = 0; i < 100; ++i) b.wait();
  SUCCEED();
}

TEST(SpinBarrier, RejectsZeroParticipants) {
  EXPECT_THROW(SpinBarrier b(0), Error);
}

TEST(SpinBarrier, SynchronizesPhases) {
  // Every thread increments a phase counter; the barrier must make all
  // increments of phase p visible before any thread starts phase p+1.
  constexpr int kThreads = 4;
  constexpr int kPhases = 200;
  SpinBarrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::atomic<bool> violated{false};

  auto body = [&] {
    for (int p = 0; p < kPhases; ++p) {
      counter.fetch_add(1, std::memory_order_relaxed);
      barrier.wait();
      if (counter.load(std::memory_order_relaxed) != (p + 1) * kThreads) {
        violated.store(true);
      }
      barrier.wait();
    }
  };
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) ts.emplace_back(body);
  for (auto& t : ts) t.join();
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(counter.load(), kThreads * kPhases);
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

TEST(SpinBarrier, SynchronizesPhasesAcrossParks) {
  // One participant per phase sleeps well past the spin budget, so the
  // others park in the kernel: every phase must still see all
  // increments, a parked waiter must be woken by the last arrival, and
  // the waiting must not burn the three waiters' cores (~3x the wall
  // time if they spun throughout).
  constexpr int kThreads = 4;
  constexpr int kPhases = 6;
  SpinBarrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::atomic<bool> violated{false};

  auto body = [&](int id) {
    for (int p = 0; p < kPhases; ++p) {
      if (p % kThreads == id) {
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
      }
      counter.fetch_add(1, std::memory_order_relaxed);
      barrier.wait();
      if (counter.load(std::memory_order_relaxed) != (p + 1) * kThreads) {
        violated.store(true);
      }
      barrier.wait();
    }
  };
  const double cpu0 = process_cpu_seconds();
  Timer wall;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) ts.emplace_back(body, i);
  for (auto& t : ts) t.join();
  const double wall_s = wall.seconds();
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(counter.load(), kThreads * kPhases);
  EXPECT_LT(process_cpu_seconds() - cpu0, 0.5 * wall_s);
}

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsEveryThreadExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  std::thread::id seen;
  pool.run([&](int) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, std::this_thread::get_id());
}

TEST(ThreadPool, RepeatedForkJoinsAreOrdered) {
  ThreadPool pool(3);
  std::atomic<i64> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.run([&](int tid) { sum.fetch_add(tid + 1); });
    // join is a full synchronization: sum must reflect all 3 threads
    EXPECT_EQ(sum.load(), (round + 1) * 6);
  }
}

TEST(ThreadPool, DestructionWithNoWorkIsClean) {
  for (int n = 1; n <= 6; ++n) {
    ThreadPool pool(n);
  }
  SUCCEED();
}

TEST(ThreadPool, RejectsZeroThreads) { EXPECT_THROW(ThreadPool p(0), Error); }

TEST(ThreadPool, NestedRunThrowsInsteadOfDeadlocking) {
  // A fork-join region entered from inside another fork-join region would
  // park the caller on its own barrier forever; the pool detects it and
  // fails loudly instead.
  ThreadPool pool(1);
  EXPECT_THROW(pool.run([&](int) { pool.run([](int) {}); }), Error);
  // The failed nested run must not poison the pool.
  std::atomic<int> hits{0};
  pool.run([&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 1);
}

TEST(ThreadPool, IdleWorkersPark) {
  // After a run, idle workers spin for the barrier's budget and then sleep
  // in the kernel: a 4-thread pool left alone for 200 ms costs the
  // process far less than 3 spinning cores' worth of CPU (~600 ms).
  ThreadPool pool(4);
  std::atomic<int> hits{0};
  pool.run([&](int) { hits.fetch_add(1); });
  ASSERT_EQ(hits.load(), 4);
  const double cpu0 = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(process_cpu_seconds() - cpu0, 0.050);
  // Parked workers wake for the next run.
  pool.run([&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 8);
}

TEST(ThreadPool, ExceptionReachesCallerAndPoolSurvives) {
  // A throw on the caller's participant (tid 0) or on a worker (tid 2)
  // must not strand the join, escape a worker thread, or leave the pool
  // marked running: the caller gets the Error, the next run() is whole,
  // and the destructor returns.
  for (const int thrower : {0, 2}) {
    auto pool = std::make_unique<ThreadPool>(3);
    std::atomic<int> finished{0};
    EXPECT_THROW(pool->run([&](int tid) {
                   if (tid == thrower) throw Error("boom");
                   finished.fetch_add(1);
                 }),
                 Error)
        << "thrower " << thrower;
    EXPECT_EQ(finished.load(), 2) << "the other participants still ran";
    std::vector<std::atomic<int>> hits(3);
    pool->run([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "thrower " << thrower;
    pool.reset();  // must return: every worker is back at the fork
  }
}

// ------------------------------------------------------ static schedule ----

// Collects all task coordinates of a partition into a multiset of linear
// indices for exact-cover checking.
std::multiset<i64> cover_of(const std::vector<GridBox>& boxes,
                            const std::vector<i64>& dims) {
  std::multiset<i64> seen;
  for (const auto& box : boxes) {
    for_each_in_box(box, [&](const std::array<i64, kMaxGridRank>& c) {
      i64 lin = 0;
      for (std::size_t d = 0; d < dims.size(); ++d) {
        lin = lin * dims[d] + c[d];
      }
      seen.insert(lin);
    });
  }
  return seen;
}

TEST(StaticSchedule, PowerOfTwoGridSplitsPerfectly) {
  // B=8, C/S=4, tiles 16x16 over 8 threads: the GCD path must balance
  // exactly with zero remainder.
  const std::vector<i64> dims = {8, 4, 16, 16};
  const auto boxes = static_partition(dims, 8);
  ASSERT_EQ(boxes.size(), 8u);
  const i64 expect = dims[0] * dims[1] * dims[2] * dims[3] / 8;
  for (const auto& b : boxes) EXPECT_EQ(b.num_tasks(), expect);
}

TEST(StaticSchedule, SlicesMostSignificantDimensionFirst) {
  const auto boxes = static_partition({8, 4, 16}, 2);
  // Slicing along dim 0 (the most significant with gcd > 1).
  EXPECT_EQ(boxes[0].end[0], 4);
  EXPECT_EQ(boxes[1].begin[0], 4);
  EXPECT_EQ(boxes[0].begin[1], 0);
  EXPECT_EQ(boxes[0].end[1], 4);
}

TEST(StaticSchedule, CoprimeFallbackBalancesWithinOneSlice) {
  // grid 7x5, 3 threads: no gcd > 1; the largest dim (7) splits 3/2/2.
  const auto boxes = static_partition({7, 5}, 3);
  std::vector<i64> sizes;
  for (const auto& b : boxes) sizes.push_back(b.num_tasks());
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<i64>{10, 10, 15}));
}

TEST(StaticSchedule, MoreThreadsThanTasksYieldsEmptyBoxes) {
  const auto boxes = static_partition({3}, 5);
  i64 total = 0;
  for (const auto& b : boxes) total += b.num_tasks();
  EXPECT_EQ(total, 3);
}

TEST(StaticSchedule, RejectsBadArguments) {
  EXPECT_THROW(static_partition({4}, 0), Error);
  EXPECT_THROW(static_partition({}, 2), Error);
  EXPECT_THROW(static_partition({1, 2, 3, 4, 5, 6, 7}, 2), Error);
}

struct PartitionCase {
  std::vector<i64> dims;
  int threads;
};

class StaticScheduleProperty : public ::testing::TestWithParam<PartitionCase> {
};

// The two invariants every partition must satisfy: (1) exact cover — every
// task appears exactly once across all boxes; (2) balance — max minus min
// task count is bounded by the largest single slice the fallback can create.
TEST_P(StaticScheduleProperty, ExactCoverAndBalance) {
  const auto& p = GetParam();
  const auto boxes = static_partition(p.dims, p.threads);
  ASSERT_EQ(static_cast<int>(boxes.size()), p.threads);

  const auto seen = cover_of(boxes, p.dims);
  i64 total = 1;
  for (i64 d : p.dims) total *= d;
  ASSERT_EQ(static_cast<i64>(seen.size()), total) << "tasks lost or repeated";
  i64 expect = 0;
  for (i64 lin : seen) {
    EXPECT_EQ(lin, expect) << "cover is not exact";
    ++expect;
  }

  i64 lo = total, hi = 0;
  for (const auto& b : boxes) {
    lo = std::min(lo, b.num_tasks());
    hi = std::max(hi, b.num_tasks());
  }
  if (total % p.threads == 0 && [&] {
        // pure GCD factorizations keep perfect balance when the thread
        // count divides the grid along one dimension chain
        i64 k = p.threads;
        for (i64 d : p.dims) k /= gcd_i64(d, k);
        return k == 1;
      }()) {
    EXPECT_EQ(lo, hi) << "divisible grid must balance perfectly";
  } else {
    // fallback splits one dimension: per-thread counts differ by at most
    // one slice of the remaining dimensions
    i64 slice = total / std::max<i64>(1, *std::max_element(p.dims.begin(),
                                                           p.dims.end()));
    EXPECT_LE(hi - lo, std::max<i64>(slice, 1) *
                           ((total / p.threads) / std::max<i64>(slice, 1) + 1))
        << "unreasonable imbalance";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, StaticScheduleProperty,
    ::testing::Values(PartitionCase{{64, 4, 14, 14}, 64},
                      PartitionCase{{1, 2, 40, 40}, 64},
                      PartitionCase{{32, 4, 8, 28, 28}, 17},
                      PartitionCase{{5, 7}, 6}, PartitionCase{{13}, 4},
                      PartitionCase{{2, 2, 2, 2}, 16},
                      PartitionCase{{2, 2, 2, 2}, 5},
                      PartitionCase{{100}, 7}, PartitionCase{{1, 1, 1}, 3},
                      PartitionCase{{9, 9, 9}, 27},
                      PartitionCase{{6, 10, 15}, 8},
                      PartitionCase{{240, 8, 30}, 61}));

TEST(StaticSchedule, RandomGridsExactCover) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const int rank = 1 + static_cast<int>(rng.uniform_index(4));
    std::vector<i64> dims;
    for (int d = 0; d < rank; ++d)
      dims.push_back(1 + static_cast<i64>(rng.uniform_index(12)));
    const int threads = 1 + static_cast<int>(rng.uniform_index(16));
    const auto boxes = static_partition(dims, threads);
    const auto seen = cover_of(boxes, dims);
    i64 total = 1;
    for (i64 d : dims) total *= d;
    ASSERT_EQ(static_cast<i64>(seen.size()), total);
    ASSERT_EQ(*seen.rbegin(), total - 1);
    ASSERT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
        << "duplicate task";
  }
}

TEST(ForEachInBox, VisitsLexicographically) {
  GridBox box;
  box.rank = 2;
  box.begin = {1, 2};
  box.end = {3, 4};
  std::vector<std::pair<i64, i64>> order;
  for_each_in_box(box, [&](const std::array<i64, kMaxGridRank>& c) {
    order.emplace_back(c[0], c[1]);
  });
  const std::vector<std::pair<i64, i64>> expect = {
      {1, 2}, {1, 3}, {2, 2}, {2, 3}};
  EXPECT_EQ(order, expect);
}

TEST(ForEachInBox, EmptyBoxVisitsNothing) {
  GridBox box;
  box.rank = 2;
  box.begin = {0, 5};
  box.end = {4, 5};
  int count = 0;
  for_each_in_box(box, [&](const auto&) { ++count; });
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace ondwin
