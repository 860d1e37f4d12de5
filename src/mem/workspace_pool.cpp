#include "mem/workspace_pool.h"

#include <atomic>
#include <cstring>

#include "obs/metrics.h"

namespace ondwin::mem {

namespace {

// Smallest class worth pooling; below it aligned_alloc is effectively
// free and pooling would only fragment.
constexpr std::size_t kMinClassBytes = 4096;

std::size_t size_class(std::size_t bytes) {
  if (bytes <= kMinClassBytes) return kMinClassBytes;
  return static_cast<std::size_t>(next_pow2(static_cast<u64>(bytes)));
}

}  // namespace

struct WorkspacePool::Core {
  std::string name;
  std::mutex mu;
  bool closed = false;  // pool object destroyed; returns free directly
  std::map<std::size_t, std::vector<ArenaAllocation>> free_lists;

  std::atomic<u64> hits{0}, misses{0}, returned{0};
  std::atomic<u64> bytes_live{0}, bytes_idle{0};
  std::atomic<u64> slabs_live{0}, slabs_idle{0};

  // Registry instruments (registered once per pool name; lock-free after).
  obs::Counter* m_hits = nullptr;
  obs::Counter* m_misses = nullptr;
  obs::Gauge* m_bytes_live = nullptr;
  obs::Gauge* m_bytes_idle = nullptr;

  explicit Core(std::string n) : name(std::move(n)) {
    const obs::Labels labels = {{"pool", name}};
    auto& reg = obs::MetricsRegistry::global();
    m_hits = &reg.counter("ondwin_mem_pool_hits_total",
                          "Workspace checkouts served from the free lists",
                          labels);
    m_misses = &reg.counter("ondwin_mem_pool_misses_total",
                            "Workspace checkouts that allocated a new slab",
                            labels);
    m_bytes_live = &reg.gauge("ondwin_mem_pool_bytes_live",
                              "Workspace bytes currently checked out",
                              labels);
    m_bytes_idle = &reg.gauge("ondwin_mem_pool_bytes_idle",
                              "Workspace bytes cached in the free lists",
                              labels);
  }

  void publish() {
    m_bytes_live->set(static_cast<double>(bytes_live.load()));
    m_bytes_idle->set(static_cast<double>(bytes_idle.load()));
  }

  ~Core() {
    for (auto& [cls, slabs] : free_lists) {
      for (const ArenaAllocation& a : slabs) arena_free(a);
    }
  }
};

void PooledSlab::release() {
  if (a_.ptr == nullptr) {
    core_.reset();
    return;
  }
  auto core = std::static_pointer_cast<WorkspacePool::Core>(core_);
  if (core == nullptr) {
    arena_free(a_);
  } else {
    core->returned.fetch_add(1, std::memory_order_relaxed);
    core->bytes_live.fetch_sub(a_.bytes, std::memory_order_relaxed);
    core->slabs_live.fetch_sub(1, std::memory_order_relaxed);
    bool freed = false;
    {
      std::lock_guard<std::mutex> lock(core->mu);
      if (core->closed) {
        freed = true;
      } else {
        core->free_lists[a_.bytes].push_back(a_);
        core->bytes_idle.fetch_add(a_.bytes, std::memory_order_relaxed);
        core->slabs_idle.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (freed) arena_free(a_);
    core->publish();
  }
  a_ = {};
  fresh_ = false;
  core_.reset();
}

WorkspacePool::WorkspacePool(std::string name)
    : core_(std::make_shared<Core>(std::move(name))) {}

WorkspacePool::~WorkspacePool() {
  std::vector<ArenaAllocation> to_free;
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    core_->closed = true;
    for (auto& [cls, slabs] : core_->free_lists) {
      for (const ArenaAllocation& a : slabs) to_free.push_back(a);
    }
    core_->free_lists.clear();
    core_->bytes_idle.store(0, std::memory_order_relaxed);
    core_->slabs_idle.store(0, std::memory_order_relaxed);
  }
  for (const ArenaAllocation& a : to_free) arena_free(a);
}

PooledSlab WorkspacePool::checkout(std::size_t bytes) {
  PooledSlab slab;
  if (bytes == 0) return slab;
  const std::size_t cls = size_class(bytes);

  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    auto it = core_->free_lists.find(cls);
    if (it != core_->free_lists.end() && !it->second.empty()) {
      slab.a_ = it->second.back();
      it->second.pop_back();
      hit = true;
      core_->bytes_idle.fetch_sub(slab.a_.bytes, std::memory_order_relaxed);
      core_->slabs_idle.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (hit) {
    slab.fresh_ = false;  // previous tenant's contents
    core_->hits.fetch_add(1, std::memory_order_relaxed);
    core_->m_hits->inc();
  } else {
    slab.a_ = arena_alloc(cls);
    slab.fresh_ = slab.a_.zeroed;
    core_->misses.fetch_add(1, std::memory_order_relaxed);
    core_->m_misses->inc();
  }
  core_->bytes_live.fetch_add(slab.a_.bytes, std::memory_order_relaxed);
  core_->slabs_live.fetch_add(1, std::memory_order_relaxed);
  core_->publish();
  slab.core_ = core_;
  return slab;
}

void WorkspacePool::trim() {
  std::vector<ArenaAllocation> to_free;
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    for (auto& [cls, slabs] : core_->free_lists) {
      for (const ArenaAllocation& a : slabs) to_free.push_back(a);
    }
    core_->free_lists.clear();
    core_->bytes_idle.store(0, std::memory_order_relaxed);
    core_->slabs_idle.store(0, std::memory_order_relaxed);
  }
  for (const ArenaAllocation& a : to_free) arena_free(a);
  core_->publish();
}

WorkspacePool::Stats WorkspacePool::stats() const {
  Stats s;
  s.hits = core_->hits.load(std::memory_order_relaxed);
  s.misses = core_->misses.load(std::memory_order_relaxed);
  s.returned = core_->returned.load(std::memory_order_relaxed);
  s.bytes_live = core_->bytes_live.load(std::memory_order_relaxed);
  s.bytes_idle = core_->bytes_idle.load(std::memory_order_relaxed);
  s.slabs_live = core_->slabs_live.load(std::memory_order_relaxed);
  s.slabs_idle = core_->slabs_idle.load(std::memory_order_relaxed);
  return s;
}

const std::string& WorkspacePool::name() const { return core_->name; }

WorkspacePool& WorkspacePool::global() {
  // Leaked: plans that live for the process lifetime hold workspaces
  // past static destruction time.
  static WorkspacePool* pool = new WorkspacePool("global");
  return *pool;
}

Workspace Workspace::from_pool(WorkspacePool& pool, std::size_t floats,
                               bool zero) {
  Workspace w;
  if (floats == 0) return w;
  w.slab_ = pool.checkout(floats * sizeof(float));
  w.data_ = static_cast<float*>(w.slab_.data());
  w.size_ = floats;
  if (zero && !w.slab_.fresh()) w.fill_zero();
  return w;
}

Workspace Workspace::owned(std::size_t floats, bool zero) {
  Workspace w;
  if (floats == 0) return w;
  PooledSlab slab;
  slab.a_ = arena_alloc(floats * sizeof(float));
  slab.fresh_ = slab.a_.zeroed;
  w.slab_ = std::move(slab);
  w.data_ = static_cast<float*>(w.slab_.data());
  w.size_ = floats;
  if (zero && !w.slab_.fresh()) w.fill_zero();
  return w;
}

void Workspace::fill_zero() {
  if (data_ != nullptr) std::memset(data_, 0, size_ * sizeof(float));
}

}  // namespace ondwin::mem
