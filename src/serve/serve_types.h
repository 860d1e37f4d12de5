// Shared vocabulary of the ondwin::serve runtime: configuration knobs,
// the request/result contract, and serving statistics.
//
// The serving pipeline is
//
//   submit()/submit_async() → per-model RequestQueue → Batcher (the idle
//   engine takes the queue once it is full, quiet or old enough) → the
//   model's worker Engine (runs the n requests' samples on the model's
//   one graph::Executor, for conv models and networks alike) → completion
//   callback (a future for in-proc submit(), a socket write for the rpc
//   tier)
//
// Requests are single samples (batch 1) in the model's SIMD-blocked input
// layout. The engine core is transport-agnostic: an in-proc call and a
// network frame become the same PendingRequest — a pooled input slab plus
// a Completion — so both coalesce through the same batcher queue and are
// bitwise indistinguishable to the executor.
#pragma once

#include <array>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <string>

#include "core/plan_options.h"
#include "mem/workspace_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ondwin::serve {

/// Dynamic micro-batching policy of one model's request queue. Batching
/// is work-conserving (serve/batcher.h): an idle engine takes a partial
/// batch once no request has arrived for Batcher::kQuietGap (0.5 ms), so
/// requests batch only when they arrive together or queue up behind a
/// busy engine.
struct BatchPolicy {
  /// Coalesce at most this many requests into one execution; a full batch
  /// flushes immediately.
  int max_batch = 8;

  /// Cap on lingering: a partial batch flushes once its oldest request
  /// has waited this long, even while arrivals keep coming closer than
  /// the quiet gap. It also caps the quiet gap, so 0 dispatches at once.
  double max_delay_ms = 2.0;

  /// Backpressure bound on queued (not yet batched) requests; submit()
  /// beyond this rejects with an error instead of queueing unboundedly.
  int max_queue = 1024;
};

/// What released a batch (Batcher::next_batch): max_batch requests were
/// queued, the queue went quiet, the oldest request reached max_delay_ms,
/// or the batcher drained at shutdown.
enum class FlushTrigger : int { kFull, kQuiet, kMaxDelay, kDrain };
inline constexpr int kFlushTriggers = 4;

/// "full", "quiet", "max_delay" or "drain" (the metrics label value).
inline const char* flush_trigger_name(FlushTrigger t) {
  static constexpr const char* kNames[kFlushTriggers] = {"full", "quiet",
                                                         "max_delay", "drain"};
  return kNames[static_cast<int>(t)];
}

/// Per-model serving configuration.
struct ModelConfig {
  BatchPolicy batching;

  /// Plan knobs of the model's executor (JIT switches, wisdom, blocking
  /// overrides). `plan.threads` is its thread count (0 = the server's
  /// CPU budget); it runs its conv steps on one pool of that many
  /// threads, driven by the model's one engine. `plan.precision` selects
  /// reduced (bf16/fp16) storage for the conv intermediates — the
  /// ONDWIN_PREC environment variable overrides it at engine launch.
  PlanOptions plan;
};

/// Server-wide configuration.
struct ServerOptions {
  /// CPU count of the server's budget (0 = all hardware threads): the
  /// thread count of a model whose `ModelConfig::plan.threads` is 0.
  int cpu_count = 0;

  /// Opt-in debug/metrics HTTP endpoint (obs::HttpExporter): -1 (the
  /// default) serves nothing; 0 binds a kernel-picked port (read it back
  /// from InferenceServer::http()->port()); otherwise the given port.
  /// Serves GET /metrics (this server's Prometheus exposition), /statusz
  /// (build/uptime/memory/serving state), /tracez and /healthz.
  int http_port = -1;
  std::string http_host = "127.0.0.1";
};

/// One completed inference.
struct InferenceResult {
  /// The sample's output in the model's batch-1 blocked output layout.
  /// Checked out of the model's workspace pool; holding the result (or
  /// moving it out) is fine even after the server shuts down — the slab
  /// returns to the pool, or is freed directly if the pool is gone.
  mem::Workspace output;

  /// How many requests were coalesced into the carrying execution.
  int batch_size = 0;

  /// Submit → batch-formation wait, and execution wall time of the batch.
  double queue_ms = 0;
  double exec_ms = 0;
};

using ResultFuture = std::future<InferenceResult>;

/// Thrown (through completions) for requests whose deadline passed while
/// they were still queued: under overload the engine sheds them instead of
/// executing work nobody is waiting for. The rpc tier maps this to a
/// distinct wire status so clients can tell shed from failed.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

/// How every request — in-proc or network — learns its fate: exactly one
/// invocation, with either a result (error == nullptr) or an exception.
/// Completions run on the engine (or rejecting submitter) thread; they
/// must be cheap and must not call back into the submitting model's
/// blocking APIs.
using Completion =
    std::function<void(InferenceResult result, std::exception_ptr error)>;

/// A submitted-but-not-yet-served request (internal to the runtime).
struct PendingRequest {
  mem::Workspace input;  // batch-1 blocked input, owned pooled slab
  Completion done;
  std::chrono::steady_clock::time_point submitted;

  /// Absolute shedding deadline; epoch (the default) means none. In-proc
  /// submit() never sets one; the rpc tier propagates frame deadlines.
  std::chrono::steady_clock::time_point deadline{};

  /// Distributed trace context this request belongs to (inactive for
  /// untraced callers). The engine records queue-wait/batch-form/exec
  /// spans against it and runs execution under it, so conv stages and
  /// graph steps chain into the originating request's trace — across
  /// the rpc boundary when the context arrived in a frame.
  obs::TraceContext trace{};

  bool has_deadline() const {
    return deadline.time_since_epoch().count() != 0;
  }
};

/// Snapshot of one model's serving counters.
struct ModelStats {
  u64 submitted = 0;  // accepted + rejected
  u64 rejected = 0;   // backpressure / shutdown rejections
  u64 expired = 0;    // deadline passed while queued (shed by the engine)
  u64 completed = 0;
  u64 failed = 0;     // execution errors propagated to futures
  u64 batches = 0;    // executions
  /// Executions split by what released the batch, indexed by
  /// FlushTrigger; sums to `batches`.
  std::array<u64, kFlushTriggers> batches_by_trigger{};
  double mean_batch = 0;  // completed / batches
  i64 queue_depth = 0;    // pending requests right now

  /// Submit-to-result latency over a sliding window of recent requests.
  /// `latency_window` is how many samples back the percentiles — small
  /// windows mean the estimates are still settling.
  u64 latency_window = 0;
  double mean_latency_ms = 0;
  double min_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;

  /// Distribution of executed batch sizes (occupancy of the micro-batch
  /// coalescer), in power-of-two buckets.
  obs::Histogram::Snapshot batch_occupancy;

  /// The model's workspace pool (request copies, result outputs, engine
  /// staging). pool.hit_rate() ≈ 1.0 in steady state means the serving
  /// path performs no allocation at all.
  mem::WorkspacePool::Stats pool;
};

/// Snapshot of the whole server.
struct ServerStats {
  std::map<std::string, ModelStats> models;
  int engines = 0;
};

}  // namespace ondwin::serve
