#include "serve/model.h"

namespace ondwin::serve {

namespace {

std::vector<int> make_buckets(int max_batch) {
  std::vector<int> buckets;
  for (int b = 1; b < max_batch; b *= 2) buckets.push_back(b);
  buckets.push_back(max_batch);
  return buckets;
}

// The one-layer network a conv model is served as. Unpack + repack is an
// exact copy, so the layer holds the caller's bits.
std::shared_ptr<const Sequential> conv_network(const std::string& name,
                                               const ConvProblem& problem,
                                               const float* kernels_blocked,
                                               const PlanOptions& plan) {
  ONDWIN_CHECK(kernels_blocked != nullptr, "model '", name,
               "' registered without weights");
  const ConvShape& s = problem.shape;
  auto net = std::make_shared<Sequential>(1, s.in_channels, s.image, plan);
  net->add_conv(s.out_channels, s.kernel, s.padding, problem.tile_m,
                /*relu=*/false);
  const KernelLayout kl = problem.kernel_layout();
  AlignedBuffer<float> plain(static_cast<std::size_t>(kl.total_floats()));
  unpack_kernels(kernels_blocked, plain.data(), kl);
  net->set_conv_weights(0, plain.data(), nullptr);
  return net;
}

ConvShape one_sample(ConvShape shape) {
  shape.batch = 1;
  return shape;
}

}  // namespace

Model::Model(std::string name, const ConvProblem& problem,
             const float* kernels_blocked, const ModelConfig& config)
    : Model(name,
            conv_network(name, problem, kernels_blocked, config.plan),
            config, one_sample(problem.shape)) {}

Model::Model(std::string name, std::shared_ptr<const Sequential> net,
             const ModelConfig& config)
    : Model(std::move(name), std::move(net), config, std::nullopt) {}

Model::Model(std::string name, std::shared_ptr<const Sequential> net,
             const ModelConfig& config, std::optional<ConvShape> conv_shape)
    : name_(std::move(name)),
      config_(config),
      conv_shape_(std::move(conv_shape)),
      pool_(str_cat("model:", name_)),
      batcher_(config.batching),
      buckets_(make_buckets(config.batching.max_batch)),
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
  // One replica per (bucket, options) fingerprint, compiled once under
  // the model lock. Every replica after the first adopts the first one's
  // transformed kernel banks wherever the conv's backend agrees (always,
  // for fixed layers), so the model holds one W per conv however many
  // buckets it serves.
  const std::string key =
      str_cat(bucket, "|", plan_options_fingerprint(options));
  std::shared_ptr<NetReplica> rep;
  {
    std::lock_guard<std::mutex> lock(net_mu_);
    auto it = net_replicas_.find(key);
    if (it == net_replicas_.end()) {
      graph::CompileOptions copts;
      copts.plan = options;
      copts.pool = &pool_;
      auto fresh = std::make_shared<NetReplica>();
      fresh->graph = std::make_unique<graph::Executor>(
          base_net_->to_graph(bucket, options), copts, first_);
      if (first_ == nullptr) first_ = fresh->graph.get();
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
  for (int t = 0; t < kFlushTriggers; ++t) {
    const std::size_t i = static_cast<std::size_t>(t);
    s.batches_by_trigger[i] =
        batches_by_trigger[i].load(std::memory_order_relaxed);
    s.batches += s.batches_by_trigger[i];
  }
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
