#include "serve/model.h"

namespace ondwin::serve {

namespace {

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
