// ondwin::serve walkthrough: register a model, fire concurrent clients at
// it, and read the serving stats.
//
//   build/example_serve_throughput [clients] [requests_per_client]
//
// Each client thread submits single-sample requests; the server coalesces
// them into micro-batches (an idle engine takes the queue once it is full,
// once no request has arrived for 0.5 ms, or once the oldest has waited
// 2 ms) and answers through futures. The stats snapshot at the end shows how well
// the batcher did (mean batch size, latency percentiles, rejections), and
// the same numbers are dumped in Prometheus exposition format — exactly
// what a /metrics scrape endpoint would serve.
//
// Run with ONDWIN_TRACE=1 to additionally get a Chrome trace
// (ondwin_trace.json, viewable in Perfetto) of the batcher waits and the
// per-stage convolution spans.
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "ondwin/ondwin.h"
#include "util/rng.h"

using namespace ondwin;
using namespace ondwin::serve;

int main(int argc, char** argv) {
  const int clients = argc > 1 ? std::atoi(argv[1]) : 4;
  const int per_client = argc > 2 ? std::atoi(argv[2]) : 64;

  // A VGG-style layer: 3x3 "same" convolution, 64 -> 64 channels, F(4x4).
  ConvProblem p;
  p.shape.batch = 1;
  p.shape.in_channels = 64;
  p.shape.out_channels = 64;
  p.shape.image = {16, 16};
  p.shape.kernel = {3, 3};
  p.shape.padding = {1, 1};
  p.tile_m = {4, 4};

  Rng rng(1);
  AlignedBuffer<float> weights(
      static_cast<std::size_t>(p.kernel_layout().total_floats()));
  for (auto& v : weights) v = rng.uniform(-0.1f, 0.1f);

  InferenceServer server;
  ModelConfig config;
  config.batching.max_batch = 8;
  config.batching.max_delay_ms = 2.0;
  server.register_conv("vgg_layer", p, weights.data(), config);

  const std::size_t sin =
      static_cast<std::size_t>(p.input_layout().total_floats());
  auto client = [&](int id) {
    Rng crng(100 + static_cast<u64>(id));
    AlignedBuffer<float> sample(sin);
    for (int r = 0; r < per_client; ++r) {
      for (auto& v : sample) v = crng.uniform(-1.0f, 1.0f);
      InferenceResult result = server.submit("vgg_layer", sample.data()).get();
      if (r == 0 && id == 0) {
        std::printf("first result: batch %d, queue %.2f ms, exec %.2f ms\n",
                    result.batch_size, result.queue_ms, result.exec_ms);
      }
    }
  };

  std::printf("%d clients x %d requests against '%s'...\n", clients,
              per_client, "vgg_layer");
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();

  server.shutdown();  // drains anything still queued

  const ServerStats stats = server.stats();
  const ModelStats& m = stats.models.at("vgg_layer");
  std::printf("\nserving stats for 'vgg_layer':\n");
  std::printf("  requests   %llu submitted, %llu completed, %llu rejected\n",
              static_cast<unsigned long long>(m.submitted),
              static_cast<unsigned long long>(m.completed),
              static_cast<unsigned long long>(m.rejected));
  std::printf("  batches    %llu (mean size %.2f)\n",
              static_cast<unsigned long long>(m.batches), m.mean_batch);
  std::printf("  latency    mean %.2f ms, p50 %.2f, p95 %.2f, p99 %.2f\n",
              m.mean_latency_ms, m.p50_ms, m.p95_ms, m.p99_ms);

  std::printf("\n--- /metrics (Prometheus exposition) ---\n%s",
              server.metrics_prometheus().c_str());
  return 0;
}
