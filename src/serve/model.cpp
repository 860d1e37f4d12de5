#include "serve/model.h"

#include <cstring>

namespace ondwin::serve {

namespace {

std::vector<int> make_buckets(int max_batch) {
  std::vector<int> buckets;
  for (int b = 1; b < max_batch; b *= 2) buckets.push_back(b);
  buckets.push_back(max_batch);
  return buckets;
}

}  // namespace

Model::Model(std::string name, const ConvProblem& problem,
             const float* kernels_blocked, const ModelConfig& config,
             PlanCache* cache)
    : name_(std::move(name)),
      config_(config),
      cache_(cache),
      pool_(str_cat("model:", name_)),
      batcher_(config.batching),
      buckets_(make_buckets(config.batching.max_batch)),
      is_conv_(true),
      problem_(problem) {
  ONDWIN_CHECK(kernels_blocked != nullptr, "model '", name_,
               "' registered without weights");
  problem_.shape.batch = 1;  // the problem describes one sample
  problem_.validate();
  sample_in_ = problem_.input_layout().total_floats();
  sample_out_ = problem_.output_layout().total_floats();
  const i64 w_floats = problem_.kernel_layout().total_floats();
  w_blocked_.reset(static_cast<std::size_t>(w_floats));
  std::memcpy(w_blocked_.data(), kernels_blocked,
              static_cast<std::size_t>(w_floats) * sizeof(float));
}

Model::Model(std::string name, std::shared_ptr<const Sequential> net,
             const ModelConfig& config, PlanCache* cache)
    : name_(std::move(name)),
      config_(config),
      cache_(cache),
      pool_(str_cat("model:", name_)),
      batcher_(config.batching),
      buckets_(make_buckets(config.batching.max_batch)),
      is_conv_(false),
      base_net_(std::move(net)) {
  ONDWIN_CHECK(base_net_ != nullptr, "model '", name_,
               "' registered with a null network");
  ONDWIN_CHECK(base_net_->layer_count() > 0, "model '", name_,
               "' network has no layers");
  const ImageLayout& in = base_net_->input_layout();
  const ImageLayout& out = base_net_->output_layout();
  sample_in_ = in.channels * in.pixels();
  sample_out_ = out.channels * out.pixels();
}

int Model::bucket_for(int batch) const {
  for (int b : buckets_) {
    if (b >= batch) return b;
  }
  fail("batch ", batch, " exceeds max_batch ", config_.batching.max_batch,
       " for model '", name_, "'");
}

Model::Replica Model::replica(int bucket, const PlanOptions& options) {
  if (is_conv_ && config_.auto_select) {
    // Planner-selected conv replica: one per (bucket, options)
    // fingerprint, like network replicas. Selection runs once per key —
    // under the model lock so racing engines cannot measure concurrently
    // — and is wisdom-v2-cached, so later keys with the same shape (and
    // server restarts) skip the benchmarks.
    const std::string key =
        str_cat(bucket, "|", plan_options_fingerprint(options));
    std::shared_ptr<AutoReplica> rep;
    {
      std::lock_guard<std::mutex> lock(auto_mu_);
      auto it = auto_replicas_.find(key);
      if (it == auto_replicas_.end()) {
        ConvShape shape = problem_.shape;
        shape.batch = bucket;
        select::SelectOptions sopts = config_.select;
        sopts.plan = options;
        auto fresh = std::make_shared<AutoReplica>();
        fresh->selected = select::select_config(shape, sopts);
        fresh->conv = std::make_unique<select::AutoConv>(
            shape, fresh->selected, options);
        // Provision weights: Winograd replicas with matching configs
        // adopt the shared pre-transformed W zero-copy; everything else
        // transforms/copies from the retained blocked bank.
        {
          std::lock_guard<std::mutex> w_lock(w_mu_);
          if (shared_w_.data == nullptr ||
              !fresh->conv->try_adopt_kernels(shared_w_)) {
            fresh->conv->set_kernels(w_blocked_.data());
            if (shared_w_.data == nullptr) {
              const SharedKernels exported = fresh->conv->export_kernels();
              if (exported.data != nullptr) shared_w_ = exported;
            }
          }
        }
        it = auto_replicas_.emplace(key, std::move(fresh)).first;
      }
      rep = it->second;
    }
    Replica r;
    r.exec_mutex = &rep->exec_mutex;
    r.auto_conv = rep->conv.get();
    r.selected = &rep->selected;
    return r;
  }
  if (is_conv_) {
    ConvProblem p = problem_;
    p.shape.batch = bucket;
    auto entry = cache_->get_or_create(p, options, name_);
    Replica r;
    r.exec_mutex = &entry->exec_mutex;
    r.plan = entry->plan.get();
    // Provision weights once per replica: the first one pays the kernel
    // transform and publishes W; later buckets/engines adopt it
    // zero-copy. Guarded by the entry's exec mutex so racing engines
    // cannot transform concurrently.
    {
      std::lock_guard<std::mutex> exec_lock(*r.exec_mutex);
      if (!r.plan->kernels_ready()) {
        std::lock_guard<std::mutex> w_lock(w_mu_);
        if (shared_w_.data == nullptr ||
            !r.plan->try_adopt_kernels(shared_w_)) {
          r.plan->set_kernels(w_blocked_.data());
          if (shared_w_.data == nullptr) {
            shared_w_ = r.plan->export_kernels();
          }
        }
      }
    }
    // The cache keeps the entry (and thus the plan) alive for the process
    // lifetime; handing out raw pointers is safe for engine use.
    return r;
  }

  // Network model: one replica per (bucket, options) fingerprint,
  // compiled once under the model lock. Every replica after the first
  // adopts an already compiled replica's transformed kernel banks
  // wherever the conv's backend agrees (always, for fixed layers), so the
  // model holds one W per conv however many buckets it serves.
  const std::string key =
      str_cat(bucket, "|", plan_options_fingerprint(options));
  std::shared_ptr<NetReplica> rep;
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    auto it = net_replicas_.find(key);
    if (it == net_replicas_.end()) {
      const graph::Executor* sibling =
          net_replicas_.empty() ? nullptr
                                : net_replicas_.begin()->second->graph.get();
      graph::CompileOptions copts;
      copts.plan = options;
      copts.pool = &pool_;
      auto fresh = std::make_shared<NetReplica>();
      fresh->graph = std::make_unique<graph::Executor>(
          base_net_->to_graph(bucket, options), copts, sibling);
      it = net_replicas_.emplace(key, std::move(fresh)).first;
    }
    rep = it->second;
  }
  Replica r;
  r.exec_mutex = &rep->exec_mutex;
  r.graph = rep->graph.get();
  return r;
}

ModelStats Model::snapshot() const {
  ModelStats s;
  s.submitted = submitted.load(std::memory_order_relaxed);
  s.rejected = rejected.load(std::memory_order_relaxed);
  s.expired = expired.load(std::memory_order_relaxed);
  s.completed = completed.load(std::memory_order_relaxed);
  s.failed = failed.load(std::memory_order_relaxed);
  s.batches = batches.load(std::memory_order_relaxed);
  s.mean_batch = s.batches > 0 ? static_cast<double>(s.completed) /
                                     static_cast<double>(s.batches)
                               : 0.0;
  s.queue_depth = batcher_.depth();
  const LatencyRecorder::Summary lat = latency.summarize();
  s.latency_window = lat.window;
  s.mean_latency_ms = lat.mean_ms;
  s.min_ms = lat.min_ms;
  s.p50_ms = lat.p50_ms;
  s.p95_ms = lat.p95_ms;
  s.p99_ms = lat.p99_ms;
  s.max_ms = lat.max_ms;
  s.batch_occupancy = batch_occupancy.snapshot();
  s.pool = pool_.stats();
  return s;
}

}  // namespace ondwin::serve
