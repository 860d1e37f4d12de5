#include "serve/batcher.h"

#include <algorithm>

#include "obs/trace.h"

namespace ondwin::serve {

namespace {
using Clock = std::chrono::steady_clock;

Clock::duration delay_of(const BatchPolicy& p) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(p.max_delay_ms));
}
}  // namespace

Batcher::Batcher(const BatchPolicy& policy)
    : policy_(policy),
      max_delay_(delay_of(policy)),
      quiet_gap_(std::min<Clock::duration>(kQuietGap, max_delay_)) {
  ONDWIN_CHECK(policy.max_batch >= 1, "max_batch must be >= 1, got ",
               policy.max_batch);
  ONDWIN_CHECK(policy.max_queue >= 1, "max_queue must be >= 1, got ",
               policy.max_queue);
  ONDWIN_CHECK(policy.max_delay_ms >= 0, "max_delay_ms must be >= 0, got ",
               policy.max_delay_ms);
}

bool Batcher::submit(PendingRequest& request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ ||
        static_cast<int>(queue_.size()) >= policy_.max_queue) {
      return false;
    }
    queue_.push_back(std::move(request));
  }
  cv_.notify_one();
  return true;
}

Batcher::Batch Batcher::next_batch() {
  ONDWIN_TRACE_SPAN("batcher.wait");
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (queue_.empty()) {
      if (stopping_) return {};
      cv_.wait(lock);
      continue;
    }
    if (stopping_) return take_batch_locked(FlushTrigger::kDrain);
    if (static_cast<int>(queue_.size()) >= policy_.max_batch) {
      return take_batch_locked(FlushTrigger::kFull);
    }
    const auto now = Clock::now();
    const auto deadline = queue_.front().submitted + max_delay_;
    if (now >= deadline) return take_batch_locked(FlushTrigger::kMaxDelay);
    const auto quiet_at = queue_.back().submitted + quiet_gap_;
    if (now >= quiet_at) return take_batch_locked(FlushTrigger::kQuiet);
    // Every submit() notifies, so a new arrival re-arms the quiet timer.
    cv_.wait_until(lock, std::min(deadline, quiet_at));
  }
}

Batcher::Batch Batcher::take_batch_locked(FlushTrigger trigger) {
  const auto n = std::min<std::size_t>(
      queue_.size(), static_cast<std::size_t>(policy_.max_batch));
  Batch batch;
  batch.trigger = trigger;
  batch.requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.requests.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return batch;
}

void Batcher::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
}

std::vector<PendingRequest> Batcher::cancel_pending() {
  std::vector<PendingRequest> cancelled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (!queue_.empty()) {
      cancelled.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  cv_.notify_all();
  return cancelled;
}

i64 Batcher::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<i64>(queue_.size());
}

bool Batcher::accepting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !stopping_;
}

}  // namespace ondwin::serve
