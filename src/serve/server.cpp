#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "graph/executor.h"
#include "mem/statusz.h"
#include "obs/trace.h"
#include "util/cpu.h"

namespace ondwin::serve {

InferenceServer::InferenceServer(const ServerOptions& options)
    : options_(options),
      cpu_budget_(options.cpu_count > 0 ? options.cpu_count
                                        : hardware_threads()) {
  ONDWIN_CHECK(options_.cpu_count >= 0, "cpu_count must be >= 0, got ",
               options_.cpu_count);
  if (options_.http_port >= 0) {
    obs::HttpExporterOptions ho;
    ho.host = options_.http_host;
    ho.port = options_.http_port;
    http_ = std::make_unique<obs::HttpExporter>(ho);
    http_->set_metrics_provider([this] { return metrics_prometheus(); });
    http_->add_statusz_section("serving", [this] { return statusz_text(); });
    http_->add_statusz_section("graph nodes (roofline)", [] {
      return graph::Executor::attribution_report();
    });
    http_->start();
  }
}

InferenceServer::~InferenceServer() { stop(/*drain=*/true); }

void InferenceServer::register_conv(const std::string& name,
                                    const ConvProblem& problem,
                                    const float* kernels_blocked,
                                    const ModelConfig& config) {
  add_model(std::make_unique<Model>(name, problem, kernels_blocked, config));
}

void InferenceServer::register_network(const std::string& name,
                                       std::shared_ptr<const Sequential> net,
                                       const ModelConfig& config) {
  add_model(std::make_unique<Model>(name, std::move(net), config));
}

void InferenceServer::add_model(std::unique_ptr<Model> model) {
  std::lock_guard<std::mutex> lock(mu_);
  ONDWIN_CHECK(!shut_down_, "server is shut down");
  ONDWIN_CHECK(models_.count(model->name()) == 0, "model '", model->name(),
               "' already registered");
  PlanOptions po = model->config().plan;
  // ONDWIN_PREC beats the model's configured storage precision, so a
  // deployment can flip a whole server to bf16/fp16 (or back) without a
  // rebuild.
  precision_env_override(&po.precision);
  if (po.threads <= 0) po.threads = std::max(1, cpu_budget_);
  auto engine =
      std::make_unique<Engine>(*model, po, static_cast<int>(engines_.size()));
  engine->start();
  engines_.push_back(std::move(engine));
  const std::string name = model->name();
  models_.emplace(name, std::move(model));
}

ResultFuture InferenceServer::submit(const std::string& model_name,
                                     const float* input_blocked) {
  ONDWIN_CHECK(input_blocked != nullptr, "submit with null input");
  Model* model = find_model(model_name);

  const i64 sin = model->sample_input_floats();
  // Pool checkout without zeroing: the memcpy fills every float. In
  // steady state this re-uses the slab of an already-fulfilled request —
  // the submit path allocates nothing.
  mem::Workspace input = mem::Workspace::from_pool(
      model->pool(), static_cast<std::size_t>(sin), /*zero=*/false);
  std::memcpy(input.data(), input_blocked,
              static_cast<std::size_t>(sin) * sizeof(float));

  // A future is just one kind of completion: in-proc callers get the
  // promise wrapper, network transports bring their own callback. Both
  // land in the same batcher queue.
  auto promise = std::make_shared<std::promise<InferenceResult>>();
  ResultFuture future = promise->get_future();
  submit_async(model_name, std::move(input),
               [promise](InferenceResult result, std::exception_ptr error) {
                 if (error != nullptr) {
                   promise->set_exception(error);
                 } else {
                   promise->set_value(std::move(result));
                 }
               });
  return future;
}

void InferenceServer::submit_async(
    const std::string& model_name, mem::Workspace input, Completion done,
    std::chrono::steady_clock::time_point deadline,
    const obs::TraceContext& trace) {
  ONDWIN_CHECK(done != nullptr, "submit_async without a completion");
  Model* model = find_model(model_name);
  ONDWIN_CHECK(
      input.size() ==
          static_cast<std::size_t>(model->sample_input_floats()),
      "model '", model_name, "': input slab holds ", input.size(),
      " floats, expected ", model->sample_input_floats());

  PendingRequest request;
  request.input = std::move(input);
  request.submitted = std::chrono::steady_clock::now();
  request.deadline = deadline;
  // Explicit context wins (the rpc tier decoded it from the frame);
  // otherwise inherit whatever trace the submitting thread is inside of,
  // so in-proc callers under a TraceSpan get chained requests for free.
  request.trace = trace.active() ? trace : obs::current_trace_context();
  // Wrap the completion in the stop() barrier accounting: the counter
  // drops only after the user callback has fully returned, so stop()
  // really means "no completion is still running anywhere".
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  request.done = [this, user = std::move(done)](InferenceResult result,
                                                std::exception_ptr error) {
    user(std::move(result), error);
    if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_cv_.notify_all();
    }
  };

  model->submitted.fetch_add(1, std::memory_order_relaxed);
  if (!model->batcher().submit(request)) {
    // Backpressure or shutdown: fail fast through the completion so every
    // caller sees errors the same way, whether queued or rejected.
    model->rejected.fetch_add(1, std::memory_order_relaxed);
    request.done(
        InferenceResult{},
        std::make_exception_ptr(Error(str_cat(
            "model '", model_name, "': request rejected (",
            model->batcher().accepting() ? "queue full" : "shutting down",
            ")"))));
  }
}

mem::Workspace InferenceServer::checkout_input(const std::string& model) {
  Model* m = find_model(model);
  return mem::Workspace::from_pool(
      m->pool(), static_cast<std::size_t>(m->sample_input_floats()),
      /*zero=*/false);
}

InferenceServer::ModelInfo InferenceServer::model_info(
    const std::string& model) const {
  Model* m = find_model(model);
  ModelInfo info;
  info.sample_input_floats = m->sample_input_floats();
  info.sample_output_floats = m->sample_output_floats();
  info.max_batch = m->config().batching.max_batch;
  if (const ConvShape* shape = m->conv_shape()) {
    info.has_conv_shape = true;
    info.conv_shape = *shape;
  }
  return info;
}

i64 InferenceServer::queue_depth(const std::string& model) const {
  return find_model(model)->batcher().depth();
}

void InferenceServer::shutdown(bool drain) {
  std::vector<Engine*> engines;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return;
    shut_down_ = true;
    for (auto& [name, model] : models_) {
      model->batcher().shutdown();
      if (!drain) {
        std::vector<PendingRequest> dropped =
            model->batcher().cancel_pending();
        const auto error = std::make_exception_ptr(
            Error(str_cat("model '", name, "': server shut down")));
        for (PendingRequest& req : dropped) {
          req.done(InferenceResult{}, error);
        }
        model->rejected.fetch_add(dropped.size(), std::memory_order_relaxed);
      }
    }
    for (auto& engine : engines_) engines.push_back(engine.get());
  }
  // Join outside the lock: draining engines may still call stats().
  for (Engine* engine : engines) engine->join();
}

void InferenceServer::stop(bool drain) {
  // The exporter's handlers read this server; quiesce it before any
  // serving state is torn down. (Idempotent, like the rest of stop().)
  if (http_ != nullptr) http_->stop();
  shutdown(drain);
  // Engines are joined and the queues are empty, but a rejecting
  // submitter (or a completion handed off by a dying engine) may still be
  // inside its callback on another thread. Wait it out: after stop() no
  // completion runs anywhere.
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_cv_.wait(lock, [this] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

bool InferenceServer::accepting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !shut_down_;
}

ServerStats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats s;
  for (const auto& [name, model] : models_) {
    s.models.emplace(name, model->snapshot());
  }
  s.engines = static_cast<int>(engines_.size());
  return s;
}

obs::MetricsPage InferenceServer::metrics_page() const {
  const ServerStats s = stats();
  obs::MetricsPage page;
  for (const auto& [name, m] : s.models) {
    const obs::Labels by_model = {{"model", name}};
    page.add_counter("ondwin_serve_requests_total",
                     "Requests submitted (accepted + rejected)", by_model,
                     static_cast<double>(m.submitted));
    page.add_counter("ondwin_serve_rejected_total",
                     "Requests rejected by backpressure or shutdown",
                     by_model, static_cast<double>(m.rejected));
    page.add_counter("ondwin_serve_expired_total",
                     "Requests shed because their deadline passed while "
                     "queued",
                     by_model, static_cast<double>(m.expired));
    page.add_counter("ondwin_serve_completed_total",
                     "Requests served successfully", by_model,
                     static_cast<double>(m.completed));
    page.add_counter("ondwin_serve_failed_total",
                     "Requests failed by execution errors", by_model,
                     static_cast<double>(m.failed));
    for (int t = 0; t < kFlushTriggers; ++t) {
      obs::Labels labels = by_model;
      labels.emplace_back("trigger",
                          flush_trigger_name(static_cast<FlushTrigger>(t)));
      page.add_counter(
          "ondwin_serve_batches_total",
          "Batch executions by what released the batch: full, quiet (no "
          "arrival for the quiet gap), max_delay or drain",
          labels,
          static_cast<double>(
              m.batches_by_trigger[static_cast<std::size_t>(t)]));
    }
    page.add_gauge("ondwin_serve_queue_depth",
                   "Requests queued but not yet batched", by_model,
                   static_cast<double>(m.queue_depth));
    page.add_gauge("ondwin_serve_mean_batch",
                   "Mean executed batch size over the full history",
                   by_model, m.mean_batch);
    page.add_histogram("ondwin_batch_occupancy",
                       "Executed batch sizes (micro-batch coalescing)",
                       by_model, m.batch_occupancy);
    page.add_gauge("ondwin_serve_pool_hit_rate",
                   "Fraction of workspace checkouts served from the "
                   "model's pool (1.0 = allocation-free serving path)",
                   by_model, m.pool.hit_rate());
    page.add_gauge("ondwin_serve_pool_bytes_live",
                   "Pool bytes checked out right now", by_model,
                   static_cast<double>(m.pool.bytes_live));
    page.add_gauge("ondwin_serve_pool_bytes_idle",
                   "Pool bytes cached in free lists", by_model,
                   static_cast<double>(m.pool.bytes_idle));
    const char* lat_help =
        "Submit-to-result latency (quantiles over a sliding window)";
    struct QuantileSample {
      const char* q;
      double v;
    };
    const QuantileSample quantiles[] = {{"0.5", m.p50_ms},
                                        {"0.95", m.p95_ms},
                                        {"0.99", m.p99_ms}};
    for (const QuantileSample& qs : quantiles) {
      obs::Labels labels = by_model;
      labels.emplace_back("quantile", qs.q);
      page.add_gauge("ondwin_serve_latency_ms", lat_help, labels, qs.v);
    }
    page.add_gauge("ondwin_serve_latency_mean_ms", lat_help, by_model,
                   m.mean_latency_ms);
    page.add_gauge("ondwin_serve_latency_min_ms", lat_help, by_model,
                   m.min_ms);
    page.add_gauge("ondwin_serve_latency_max_ms", lat_help, by_model,
                   m.max_ms);
    page.add_gauge("ondwin_serve_latency_window",
                   "Samples behind the latency quantiles", by_model,
                   static_cast<double>(m.latency_window));
  }
  page.add_gauge("ondwin_serve_engines", "Running worker engines", {},
                 static_cast<double>(s.engines));
  obs::Tracer::instance().emit_metrics(page);
  obs::MetricsRegistry::global().emit_to(page);
  return page;
}

std::string InferenceServer::statusz_text() const {
  const ServerStats s = stats();
  std::ostringstream os;
  os << "engines: " << s.engines << "   accepting: "
     << (accepting() ? "yes" : "no") << "\n";
  for (const auto& [name, m] : s.models) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  model %-16s submitted=%llu completed=%llu "
                  "rejected=%llu expired=%llu failed=%llu depth=%lld "
                  "mean_batch=%.2f p99=%.2f ms\n",
                  name.c_str(),
                  static_cast<unsigned long long>(m.submitted),
                  static_cast<unsigned long long>(m.completed),
                  static_cast<unsigned long long>(m.rejected),
                  static_cast<unsigned long long>(m.expired),
                  static_cast<unsigned long long>(m.failed),
                  static_cast<long long>(m.queue_depth), m.mean_batch,
                  m.p99_ms);
    os << line;
    os << "    batches by trigger:";
    for (int t = 0; t < kFlushTriggers; ++t) {
      os << ' ' << flush_trigger_name(static_cast<FlushTrigger>(t)) << '='
         << m.batches_by_trigger[static_cast<std::size_t>(t)];
    }
    os << "\n";
    os << mem::pool_status_line(str_cat("model:", name), m.pool);
  }
  return os.str();
}

std::string InferenceServer::metrics_prometheus() const {
  return metrics_page().prometheus();
}

std::string InferenceServer::metrics_json() const {
  return metrics_page().json();
}

Model* InferenceServer::find_model(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  ONDWIN_CHECK(!shut_down_, "server is shut down");
  auto it = models_.find(name);
  ONDWIN_CHECK(it != models_.end(), "unknown model '", name, "'");
  return it->second.get();
}

}  // namespace ondwin::serve
