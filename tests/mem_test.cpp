// ondwin::mem — arenas, workspace pool, topology, and the allocator's
// most important property: it must be invisible. Pooled workspaces and
// schedule-aware first-touch may move pages around, but the convolution
// outputs must stay BITWISE identical to the legacy private-allocation
// path, in both staged and fused execution.
#include "mem/workspace_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/conv_plan.h"
#include "core/plan_options.h"
#include "mem/arena.h"
#include "mem/topology.h"
#include "util/rng.h"

namespace ondwin {
namespace {

using mem::Backing;

// Scoped env override (the hugepage toggles are read per call, so setenv
// mid-process is the documented way to exercise the fallback).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(Arena, AlignmentAndUsableBytes) {
  for (std::size_t bytes : {std::size_t{64}, std::size_t{4096},
                            std::size_t{3u << 20}}) {
    mem::Arena a(bytes);
    ASSERT_NE(a.data(), nullptr);
    EXPECT_GE(a.bytes(), bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % 64, 0u)
        << "slab of " << bytes << " bytes not 64-byte aligned";
    EXPECT_NE(a.backing(), Backing::kNone);
    EXPECT_NE(mem::backing_name(a.backing()), nullptr);
    // Whole usable range must be writable.
    std::memset(a.data(), 0xAB, a.bytes());
  }
}

TEST(Arena, ZeroBytesIsEmpty) {
  const mem::ArenaAllocation a = mem::arena_alloc(0);
  EXPECT_EQ(a.ptr, nullptr);
  EXPECT_EQ(a.bytes, 0u);
  EXPECT_EQ(a.backing, Backing::kNone);
  mem::arena_free(a);  // must be a no-op, not a crash
  mem::Arena empty;
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(empty.hugepage_coverage(), 0u);
}

TEST(Arena, ZeroedFlagTellsTheTruth) {
  // Large allocations with hugepages enabled come from mmap: fresh-zero.
  mem::ArenaAllocation a = mem::arena_alloc(4u << 20);
  if (a.zeroed) {
    const auto* p = static_cast<const unsigned char*>(a.ptr);
    for (std::size_t i = 0; i < a.bytes; i += 4096) {
      ASSERT_EQ(p[i], 0u) << "zeroed slab dirty at byte " << i;
    }
  }
  mem::arena_free(a);
}

TEST(Arena, EnvForcesMallocFallback) {
  ScopedEnv env("ONDWIN_NO_HUGEPAGES", "1");
  EXPECT_FALSE(mem::hugepages_enabled());
  const mem::ArenaAllocation a = mem::arena_alloc(8u << 20);
  EXPECT_EQ(a.backing, Backing::kMalloc);
  EXPECT_FALSE(a.zeroed);
  mem::arena_free(a);
}

TEST(Arena, HugepageProbeIsSane) {
  mem::Arena a(8u << 20);
  std::memset(a.data(), 1, a.bytes());  // THP only counts touched pages
  const std::size_t covered = a.hugepage_coverage();
  EXPECT_LE(covered, a.bytes() + (2u << 20));  // smaps rounds to mappings
  if (a.backing() == Backing::kMalloc) {
    // The probe may still see THP under malloc's mmap; just no crash.
    SUCCEED();
  }
}

TEST(AlignedBufferV2, ZeroByteBuffer) {
  AlignedBuffer<float> b(0);
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.backing(), Backing::kNone);
  b.reset(0);  // still fine
  b.fill_zero();
  AlignedBuffer<float> c(16);
  c.reset(0);  // shrink-to-empty frees
  EXPECT_TRUE(c.empty());
}

TEST(AlignedBufferV2, SelfMoveAssignmentIsANoOp) {
  AlignedBuffer<float> b(128);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(i);
  AlignedBuffer<float>& alias = b;  // dodge -Wself-move, keep the test
  b = std::move(alias);
  ASSERT_EQ(b.size(), 128u);
  ASSERT_NE(b.data(), nullptr);
  for (std::size_t i = 0; i < b.size(); ++i) {
    ASSERT_EQ(b[i], static_cast<float>(i));
  }
}

TEST(AlignedBufferV2, ZeroInitialized) {
  AlignedBuffer<float> b((4u << 20) / sizeof(float));
  for (std::size_t i = 0; i < b.size(); i += 1024) {
    ASSERT_EQ(b[i], 0.0f) << "element " << i;
  }
}

TEST(WorkspacePool, ReusesSlabsBySizeClass) {
  mem::WorkspacePool pool("test:reuse");
  void* first = nullptr;
  {
    mem::PooledSlab s = pool.checkout(1u << 20);
    ASSERT_NE(s.data(), nullptr);
    EXPECT_GE(s.bytes(), 1u << 20);
    first = s.data();
    std::memset(s.data(), 0x5A, s.bytes());
  }
  {
    // Same class: must come back from the free list, contents and all.
    mem::PooledSlab s = pool.checkout(900u << 10);
    EXPECT_EQ(s.data(), first);
    EXPECT_FALSE(s.fresh());
    EXPECT_EQ(static_cast<unsigned char*>(s.data())[0], 0x5A);
  }
  const mem::WorkspacePool::Stats st = pool.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.returned, 2u);
  EXPECT_EQ(st.slabs_live, 0u);
  EXPECT_EQ(st.slabs_idle, 1u);
  EXPECT_GT(st.bytes_idle, 0u);
  pool.trim();
  const mem::WorkspacePool::Stats after = pool.stats();
  EXPECT_EQ(after.slabs_idle, 0u);
  EXPECT_EQ(after.bytes_idle, 0u);
}

TEST(WorkspacePool, HandleOutlivesPool) {
  auto pool = std::make_unique<mem::WorkspacePool>("test:outlive");
  mem::PooledSlab s = pool->checkout(64u << 10);
  std::memset(s.data(), 7, s.bytes());
  pool.reset();  // pool dies first
  // The slab stays valid and its release must free, not crash.
  EXPECT_EQ(static_cast<unsigned char*>(s.data())[0], 7);
}

TEST(WorkspacePool, WorkspaceZerosReusedSlabs) {
  mem::WorkspacePool pool("test:zero");
  {
    mem::Workspace w = mem::Workspace::from_pool(pool, 4096);
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = 1.0f;  // dirty it
  }
  mem::Workspace w = mem::Workspace::from_pool(pool, 4096, /*zero=*/true);
  for (std::size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(w[i], 0.0f) << "reused slab not re-zeroed at " << i;
  }
  // owned() is the pool-less path with the same contract.
  mem::Workspace o = mem::Workspace::owned(1024);
  ASSERT_EQ(o.size(), 1024u);
  for (std::size_t i = 0; i < o.size(); ++i) ASSERT_EQ(o[i], 0.0f);
}

TEST(WorkspacePool, ConcurrentCheckoutIsSafe) {
  mem::WorkspacePool pool("test:concurrent");
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kIters; ++i) {
        // Two size classes so threads contend on the same free lists.
        const std::size_t bytes = (i % 2 == 0) ? (64u << 10) : (256u << 10);
        mem::PooledSlab s = pool.checkout(bytes);
        auto* p = static_cast<unsigned char*>(s.data());
        p[0] = static_cast<unsigned char>(t);
        p[s.bytes() - 1] = static_cast<unsigned char>(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  const mem::WorkspacePool::Stats st = pool.stats();
  EXPECT_EQ(st.hits + st.misses,
            static_cast<u64>(kThreads) * static_cast<u64>(kIters));
  EXPECT_EQ(st.returned, st.hits + st.misses);
  EXPECT_EQ(st.slabs_live, 0u);
  EXPECT_GT(st.hits, 0u);  // with 8x200 checkouts reuse must happen
}

TEST(Topology, DetectIsSane) {
  const mem::Topology& topo = mem::Topology::detect();
  EXPECT_GE(topo.nodes, 1);
  EXPECT_EQ(topo.numa_available, topo.nodes > 1);
  EXPECT_GE(static_cast<int>(topo.cpu_to_node.size()), 1);
  for (int node : topo.cpu_to_node) {
    EXPECT_GE(node, 0);
    EXPECT_LT(node, topo.nodes);
  }
  EXPECT_EQ(topo.node_of_cpu(-1), 0);  // unpinned pools ask with -1
  EXPECT_EQ(topo.node_of_cpu(1 << 20), 0);
  EXPECT_FALSE(topo.to_string().empty());
}

TEST(Topology, ParseCpulist) {
  EXPECT_EQ(mem::parse_cpulist("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(mem::parse_cpulist("5"), (std::vector<int>{5}));
  EXPECT_EQ(mem::parse_cpulist(""), (std::vector<int>{}));
  // Malformed chunks are skipped (a trailing open range degrades to its
  // start), not fatal.
  EXPECT_EQ(mem::parse_cpulist("x,2,7-"), (std::vector<int>{2, 7}));
}

// ------------------------------------------------- allocator invisibility --

ConvProblem make_problem(i64 b, i64 c, i64 cp, Dims image, Dims kernel,
                         Dims pad, Dims m) {
  ConvProblem p;
  p.shape.batch = b;
  p.shape.in_channels = c;
  p.shape.out_channels = cp;
  p.shape.image = image;
  p.shape.kernel = kernel;
  p.shape.padding = pad;
  p.tile_m = m;
  return p;
}

// Runs one convolution under `opts` and returns the blocked output.
// (AlignedBuffer, not std::vector: blocked outputs receive non-temporal
// SIMD stores and must be 64-byte aligned.)
AlignedBuffer<float> run_once(const ConvProblem& p, const PlanOptions& opts,
                              const AlignedBuffer<float>& in,
                              const AlignedBuffer<float>& w) {
  ConvPlan plan(p, opts);
  AlignedBuffer<float> out(
      static_cast<std::size_t>(p.output_layout().total_floats()));
  plan.execute(in.data(), w.data(), out.data());
  return out;
}

// Pooled workspaces + first-touch against the legacy private-allocation
// path: placement may differ, values may not — bitwise.
void expect_allocator_invisible(FusionMode mode) {
  const ConvProblem p = make_problem(2, 32, 32, {24, 24}, {3, 3}, {1, 1},
                                     {2, 2});
  const ImageLayout in_l = p.input_layout();
  const KernelLayout k_l = p.kernel_layout();
  Rng rng(1234);
  AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
  for (auto& v : in) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : w) v = rng.uniform(-1.0f, 1.0f);

  PlanOptions legacy;
  legacy.threads = 4;
  legacy.fusion = mode;
  legacy.pooled_workspace = false;
  legacy.numa_first_touch = false;
  const AlignedBuffer<float> want = run_once(p, legacy, in, w);

  PlanOptions pooled = legacy;
  pooled.pooled_workspace = true;
  pooled.numa_first_touch = true;
  // Twice: the second construction re-checks the same slabs out of the
  // global pool dirty, which is exactly the case the zero/first-touch
  // contract must survive.
  for (int round = 0; round < 2; ++round) {
    const AlignedBuffer<float> got = run_once(p, pooled, in, w);
    ASSERT_EQ(want.size(), got.size());
    if (std::memcmp(want.data(), got.data(),
                    want.size() * sizeof(float)) == 0) {
      continue;
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i])
          << "round " << round << ": first divergence at element " << i;
    }
  }
}

TEST(MemInvisibility, PooledMatchesLegacyStaged) {
  expect_allocator_invisible(FusionMode::kStaged);
}

TEST(MemInvisibility, PooledMatchesLegacyFused) {
  expect_allocator_invisible(FusionMode::kFused);
}

TEST(MemInvisibility, PooledMatchesLegacyUnderForcedFallback) {
  // The whole matrix again with hugepages disabled: the malloc fallback
  // path must be just as invisible.
  ScopedEnv env("ONDWIN_NO_HUGEPAGES", "1");
  expect_allocator_invisible(FusionMode::kStaged);
}

TEST(MemInvisibility, FirstTouchRunsOnlyWhenAsked) {
  const ConvProblem p = make_problem(1, 32, 32, {16, 16}, {3, 3}, {1, 1},
                                     {2, 2});
  PlanOptions opts;
  opts.threads = 2;
  opts.fusion = FusionMode::kStaged;
  opts.pooled_workspace = true;
  opts.numa_first_touch = true;
  ConvPlan with(p, opts);
  EXPECT_GE(with.first_touch_seconds(), 0.0);
  opts.numa_first_touch = false;
  ConvPlan without(p, opts);
  EXPECT_EQ(without.first_touch_seconds(), 0.0);
}

TEST(MemPoolIntegration, PlanReconstructionHitsThePool) {
  // Constructing the same staged shape repeatedly (the tuner's rebuild
  // pattern) must recycle slabs from the global pool.
  const ConvProblem p = make_problem(2, 32, 32, {24, 24}, {3, 3}, {1, 1},
                                     {2, 2});
  PlanOptions opts;
  opts.threads = 2;
  opts.fusion = FusionMode::kStaged;
  const mem::WorkspacePool::Stats before =
      mem::WorkspacePool::global().stats();
  for (int i = 0; i < 3; ++i) {
    ConvPlan plan(p, opts);
    ASSERT_FALSE(plan.fusion_policy().fused);
  }
  const mem::WorkspacePool::Stats after =
      mem::WorkspacePool::global().stats();
  // Rounds 2 and 3 re-check the same size classes out: ≥ 4 hits (2 or 3
  // workspaces per plan depending on kb_/scatter).
  EXPECT_GE(after.hits, before.hits + 4);
}

}  // namespace
}  // namespace ondwin
