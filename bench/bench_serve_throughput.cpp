// Serving throughput: dynamic micro-batching vs one-request-at-a-time.
//
// Why batching wins even on one core: the GEMM microkernel loads one
// vector row of W per reduction step and amortizes it over n_blk FMAs.
// A batch-1 plan with a single Winograd tile per sample runs the GEMM at
// n_blk = 1 (one load per FMA — half the issue slots are overhead); a
// batch-8 micro-batch runs the same arithmetic at n_blk = 8 (one load per
// eight FMAs). The shape below (4×4 image, 3×3 kernel, pad 1, F(4×4) → one
// tile per sample, C = C' = 256 so the GEMM dominates) isolates exactly
// that effect, which is what an inference server coalescing single-sample
// requests gets for free.
#include <cstdio>
#include <vector>

#include "ondwin/ondwin.h"
#include "report.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ondwin;
using namespace ondwin::serve;

namespace {

ConvProblem serving_problem() {
  ConvProblem p;
  p.shape.batch = 1;
  p.shape.in_channels = 256;
  p.shape.out_channels = 256;
  p.shape.image = {4, 4};
  p.shape.kernel = {3, 3};
  p.shape.padding = {1, 1};
  p.tile_m = {4, 4};  // one F(4x4) tile per sample
  return p;
}

void fill_random(AlignedBuffer<float>& buf, std::size_t floats, u64 seed) {
  buf.reset(floats);
  Rng rng(seed);
  for (std::size_t i = 0; i < floats; ++i) {
    buf.data()[i] = rng.uniform(-0.5f, 0.5f);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = ondwin::bench::json_flag(argc, argv);
  const ConvProblem p = serving_problem();
  PlanOptions opts;
  opts.threads = 1;  // same core budget for both sides

  const std::size_t sin =
      static_cast<std::size_t>(p.input_layout().total_floats());
  const std::size_t sout =
      static_cast<std::size_t>(p.output_layout().total_floats());

  AlignedBuffer<float> weights;
  fill_random(weights,
              static_cast<std::size_t>(p.kernel_layout().total_floats()), 1);
  AlignedBuffer<float> input;
  fill_random(input, sin, 2);

  constexpr int kRequests = 512;
  constexpr int kMaxBatch = 8;

  // --- baseline: one request at a time on a batch-1 plan ------------------
  ConvPlan direct(p, opts);
  direct.set_kernels(weights.data());
  AlignedBuffer<float> out(sout);
  direct.execute_pretransformed(input.data(), out.data());  // warm up

  Timer direct_timer;
  for (int r = 0; r < kRequests; ++r) {
    direct.execute_pretransformed(input.data(), out.data());
  }
  const double direct_s = direct_timer.seconds();
  const double direct_rps = kRequests / direct_s;

  // --- served: the same requests through the micro-batching server --------
  InferenceServer server;
  ModelConfig config;
  config.batching.max_batch = kMaxBatch;
  config.batching.max_delay_ms = 2.0;
  config.plan = opts;
  server.register_conv("conv", p, weights.data(), config);

  // Warm up: compiles the executor so plan construction stays off the
  // clock.
  server.submit("conv", input.data()).get();
  {
    std::vector<ResultFuture> warm;
    for (int r = 0; r < 2 * kMaxBatch; ++r) {
      warm.push_back(server.submit("conv", input.data()));
    }
    for (auto& f : warm) f.get();
  }

  std::vector<ResultFuture> futures;
  futures.reserve(kRequests);
  Timer served_timer;
  for (int r = 0; r < kRequests; ++r) {
    futures.push_back(server.submit("conv", input.data()));
  }
  for (auto& f : futures) f.get();
  const double served_s = served_timer.seconds();
  const double served_rps = kRequests / served_s;

  // --- steady state: bounded in-flight window -----------------------------
  // The burst above keeps all 512 requests (and their pooled input/output
  // slabs) live at once, so the pool must allocate the whole working set.
  // Real serving is closed-loop: a bounded number of requests in flight,
  // slabs recycling as fast as they retire. Measure the pool over that
  // regime separately — this is where the hit rate sits at ~1.0.
  const ModelStats before_steady = server.stats().models.at("conv");
  {
    constexpr int kWindow = 4 * kMaxBatch;
    std::vector<ResultFuture> window;
    window.reserve(kWindow);
    for (int r = 0; r < kRequests; ++r) {
      if (static_cast<int>(window.size()) == kWindow) {
        // Retire the oldest before admitting the next (drops its result
        // slab back into the pool).
        window.front().get();
        window.erase(window.begin());
      }
      window.push_back(server.submit("conv", input.data()));
    }
    for (auto& f : window) f.get();
  }

  const ServerStats stats = server.stats();
  const ModelStats& m = stats.models.at("conv");
  const u64 steady_hits = m.pool.hits - before_steady.pool.hits;
  const u64 steady_misses = m.pool.misses - before_steady.pool.misses;
  const double steady_hit_rate =
      steady_hits + steady_misses > 0
          ? static_cast<double>(steady_hits) /
                static_cast<double>(steady_hits + steady_misses)
          : 0.0;

  std::printf("serve throughput — %d requests, C=C'=256, one F(4x4) tile, "
              "1 thread\n\n",
              kRequests);
  std::printf("  %-28s %10.0f req/s\n", "one-at-a-time (batch 1)",
              direct_rps);
  std::printf("  %-28s %10.0f req/s   mean batch %.2f, p95 %.2f ms\n",
              "served (max_batch 8)", served_rps, m.mean_batch, m.p95_ms);
  std::printf("\n  speedup: %.2fx\n", served_rps / direct_rps);
  // Steady state the serving path allocates nothing: request inputs,
  // result outputs and engine staging all recycle through the model's
  // workspace pool.
  std::printf("  workspace pool: %.1f%% hit rate steady-state "
              "(%llu hits / %llu misses), %.1f%% overall incl. burst, "
              "%.1f KB idle\n",
              100.0 * steady_hit_rate,
              static_cast<unsigned long long>(steady_hits),
              static_cast<unsigned long long>(steady_misses),
              100.0 * m.pool.hit_rate(),
              static_cast<double>(m.pool.bytes_idle) / 1024.0);

  if (!json_path.empty()) {
    ondwin::bench::BenchReport report("serve_throughput");
    report.row()
        .set("requests", static_cast<double>(kRequests))
        .set("max_batch", static_cast<double>(kMaxBatch))
        .set("direct_rps", direct_rps)
        .set("served_rps", served_rps)
        .set("speedup", served_rps / direct_rps)
        .set("mean_batch", m.mean_batch)
        .set("p50_ms", m.p50_ms)
        .set("p95_ms", m.p95_ms)
        .set("p99_ms", m.p99_ms)
        .set("min_ms", m.min_ms)
        .set("latency_window", static_cast<double>(m.latency_window))
        .set("pool_hit_rate_steady", steady_hit_rate)
        .set("pool_hit_rate_overall", m.pool.hit_rate())
        .set("pool_hits", static_cast<double>(m.pool.hits))
        .set("pool_misses", static_cast<double>(m.pool.misses));
    if (!report.write_json(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("  wrote %s\n", json_path.c_str());
  }
  return 0;
}
