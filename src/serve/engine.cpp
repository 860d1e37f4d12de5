#include "serve/engine.h"

#include <cstring>

#include "obs/trace.h"
#include "util/timer.h"

namespace ondwin::serve {

namespace {
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// The tracer's timeline is the same steady clock the batcher stamps
// requests with, so queue-wait spans can be recorded retroactively from
// those timestamps.
u64 to_ns(Clock::time_point t) {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}
}  // namespace

Engine::Engine(Model& model, const PlanOptions& plan_options, int index)
    : model_(model), plan_options_(plan_options), index_(index) {
  const i64 max_batch = model_.config().batching.max_batch;
  in_staging_ = mem::Workspace::from_pool(
      model_.pool(),
      static_cast<std::size_t>(max_batch * model_.sample_input_floats()));
  out_staging_ = mem::Workspace::from_pool(
      model_.pool(),
      static_cast<std::size_t>(max_batch * model_.sample_output_floats()));
}

Engine::~Engine() { join(); }

void Engine::start() {
  ONDWIN_CHECK(!thread_.joinable(), "engine ", index_, " already started");
  thread_ = std::thread([this] { loop(); });
}

void Engine::join() {
  if (thread_.joinable()) thread_.join();
}

void Engine::loop() {
  for (;;) {
    Batcher::Batch batch = model_.batcher().next_batch();
    if (batch.requests.empty()) return;  // shut down and drained
    serve_batch(std::move(batch.requests), batch.trigger);
  }
}

void Engine::serve_batch(std::vector<PendingRequest> batch,
                         FlushTrigger trigger) {
  ONDWIN_TRACE_SPAN("serve.batch");
  const auto formed = Clock::now();

  // Deadline shedding: a request whose deadline already passed while it
  // was queued is pure waste to execute — nobody is waiting for the
  // answer anymore. Shed it before staging so an overloaded engine spends
  // its cycles only on requests that can still meet their SLO. In-proc
  // submit() never sets a deadline, so this path stays inert (and the
  // batch stays bitwise deterministic) unless a transport asked for it.
  std::size_t live = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    PendingRequest& req = batch[i];
    if (req.has_deadline() && formed > req.deadline) {
      model_.expired.fetch_add(1, std::memory_order_relaxed);
      req.done(InferenceResult{},
               std::make_exception_ptr(DeadlineExceeded(
                   str_cat("model '", model_.name(),
                           "': deadline passed while queued"))));
    } else {
      if (live != i) batch[live] = std::move(req);
      ++live;
    }
  }
  batch.resize(live);
  if (batch.empty()) return;

  const int n = static_cast<int>(batch.size());
  model_.batch_occupancy.observe(static_cast<double>(n));
  const i64 sin = model_.sample_input_floats();
  const i64 sout = model_.sample_output_floats();

  // Per-request distributed spans: the wait each request spent queued is
  // only known now, so it is recorded retroactively from the batcher's
  // timestamp; the exec interval is shared by the whole batch but tagged
  // per request, so every trace shows its own admit → queue → exec chain.
  const bool tracing = obs::trace_enabled();
  const u64 formed_ns = to_ns(formed);
  if (tracing) {
    for (const PendingRequest& req : batch) {
      if (req.trace.active()) {
        obs::record_span("serve.queue_wait", to_ns(req.submitted),
                         formed_ns - to_ns(req.submitted), req.trace);
      }
    }
  }

  try {
    if (exec_ == nullptr) {
      graph::CompileOptions copts;
      copts.plan = plan_options_;
      copts.pool = &model_.pool();
      exec_ = std::make_unique<graph::Executor>(
          model_.network().to_graph(model_.config().batching.max_batch,
                                    plan_options_),
          copts);
    }

    // Stage the requests into one contiguous blocked batch. Both layouts
    // are batch-major, so sample b occupies floats [b·sin, (b+1)·sin).
    for (int i = 0; i < n; ++i) {
      std::memcpy(in_staging_.data() + static_cast<i64>(i) * sin,
                  batch[static_cast<std::size_t>(i)].input.data(),
                  static_cast<std::size_t>(sin) * sizeof(float));
    }
    const u64 staged_ns = tracing ? obs::trace_now_ns() : 0;

    Timer exec_timer;
    const u64 exec_begin_ns = tracing ? obs::trace_now_ns() : 0;
    {
      // Execute under the first traced request's context: conv-stage and
      // graph-step spans opened inside chain into that request's trace
      // (one representative per batch — the per-request exec spans below
      // carry the batch interval for everyone else).
      obs::TraceContext batch_ctx;
      for (const PendingRequest& req : batch) {
        if (req.trace.active()) {
          batch_ctx = req.trace;
          break;
        }
      }
      obs::TraceContextScope scope(batch_ctx);
      exec_->execute(in_staging_.data(), out_staging_.data(), n);
    }
    const double exec_ms = exec_timer.millis();
    if (tracing) {
      const u64 exec_end_ns = obs::trace_now_ns();
      for (const PendingRequest& req : batch) {
        if (!req.trace.active()) continue;
        obs::record_span("serve.batch_form", formed_ns,
                         staged_ns - formed_ns, req.trace);
        obs::record_span("serve.exec", exec_begin_ns,
                         exec_end_ns - exec_begin_ns, req.trace);
      }
    }

    const auto done = Clock::now();
    // Counters first: a client that wakes on its future must already see
    // this batch in a stats snapshot.
    model_.batches_by_trigger[static_cast<std::size_t>(trigger)].fetch_add(
        1, std::memory_order_relaxed);
    model_.completed.fetch_add(static_cast<u64>(n),
                               std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      PendingRequest& req = batch[static_cast<std::size_t>(i)];
      InferenceResult result;
      // Pool checkout without zeroing: the memcpy below fills every float.
      result.output = mem::Workspace::from_pool(
          model_.pool(), static_cast<std::size_t>(sout), /*zero=*/false);
      std::memcpy(result.output.data(),
                  out_staging_.data() + static_cast<i64>(i) * sout,
                  static_cast<std::size_t>(sout) * sizeof(float));
      result.batch_size = n;
      result.queue_ms = ms_between(req.submitted, formed);
      result.exec_ms = exec_ms;
      model_.latency.record(ms_between(req.submitted, done));
      req.done(std::move(result), nullptr);
    }
  } catch (...) {
    // Executor construction or execution failed: every request of the
    // batch learns about it through its completion (counter first, as
    // above).
    model_.failed.fetch_add(static_cast<u64>(n), std::memory_order_relaxed);
    const std::exception_ptr error = std::current_exception();
    for (PendingRequest& req : batch) {
      req.done(InferenceResult{}, error);
    }
  }
}

}  // namespace ondwin::serve
