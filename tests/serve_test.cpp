// End-to-end tests of the ondwin::serve runtime: bitwise correctness of
// batched serving vs direct plan execution at every batch size up to
// max_batch, micro-batcher flush/overflow semantics, one executor compile
// per model under concurrency, and graceful shutdown draining.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "engine_parker.h"
#include "graph/executor.h"
#include "net/sequential.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/model.h"
#include "util/rng.h"

namespace ondwin::serve {
namespace {

ConvProblem sample_problem() {
  ConvProblem p;
  p.shape.batch = 1;
  p.shape.in_channels = 16;
  p.shape.out_channels = 16;
  p.shape.image = {8, 8};
  p.shape.kernel = {3, 3};
  p.shape.padding = {1, 1};
  p.tile_m = {2, 2};
  return p;
}

PlanOptions one_thread() {
  PlanOptions o;
  o.threads = 1;
  return o;
}

/// Graph executors compiled so far in this process.
u64 graph_compiles() {
  return obs::MetricsRegistry::global()
      .counter("ondwin_graph_compiles_total", "Graph executors compiled")
      .value();
}

/// Fills `buf` with deterministic pseudo-random floats.
void fill_random(AlignedBuffer<float>& buf, std::size_t floats, u64 seed) {
  buf.reset(floats);
  Rng rng(seed);
  for (std::size_t i = 0; i < floats; ++i) {
    buf.data()[i] = rng.uniform(-0.5f, 0.5f);
  }
}

// Served results must be BITWISE identical to direct batch-1 execution:
// the default blocking heuristics depend only on channels (not batch), and
// per-output-element accumulation order is independent of the batch
// dimension, so coalescing requests into micro-batches must not perturb a
// single bit (the served one-layer net adds a zero bias, which is exact
// for every nonzero output). 8 concurrent clients also race the model's
// first batch: its one executor must be compiled exactly once.
TEST(ServeConv, BatchedBitwiseIdenticalAndReplicasDedup) {
  const ConvProblem p = sample_problem();
  const std::size_t sin =
      static_cast<std::size_t>(p.input_layout().total_floats());
  const std::size_t sout =
      static_cast<std::size_t>(p.output_layout().total_floats());
  const std::size_t wfloats =
      static_cast<std::size_t>(p.kernel_layout().total_floats());

  AlignedBuffer<float> weights;
  fill_random(weights, wfloats, 0xBEEF);

  constexpr int kClients = 8;
  constexpr int kPerClient = 4;
  constexpr int kSamples = kClients * kPerClient;

  // Reference: direct batch-1 plan, one sample at a time.
  std::vector<AlignedBuffer<float>> inputs(kSamples);
  std::vector<AlignedBuffer<float>> expected(kSamples);
  {
    ConvPlan direct(p, one_thread());
    direct.set_kernels(weights.data());
    for (int s = 0; s < kSamples; ++s) {
      fill_random(inputs[static_cast<std::size_t>(s)], sin,
                  0x1000 + static_cast<u64>(s));
      expected[static_cast<std::size_t>(s)].reset(sout);
      direct.execute_pretransformed(
          inputs[static_cast<std::size_t>(s)].data(),
          expected[static_cast<std::size_t>(s)].data());
    }
  }

  const u64 compiles_before = graph_compiles();
  InferenceServer server;

  ModelConfig config;
  config.batching.max_batch = 4;
  config.batching.max_delay_ms = 1.0;
  config.plan = one_thread();
  server.register_conv("conv", p, weights.data(), config);

  std::atomic<int> mismatches{0};
  auto client = [&](int c) {
    for (int r = 0; r < kPerClient; ++r) {
      const int s = c * kPerClient + r;
      ResultFuture f =
          server.submit("conv", inputs[static_cast<std::size_t>(s)].data());
      InferenceResult result = f.get();
      ASSERT_EQ(result.output.size(), sout);
      if (std::memcmp(result.output.data(),
                      expected[static_cast<std::size_t>(s)].data(),
                      sout * sizeof(float)) != 0) {
        mismatches.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (auto& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0);

  const ServerStats stats = server.stats();
  const ModelStats& m = stats.models.at("conv");
  EXPECT_EQ(m.submitted, static_cast<u64>(kSamples));
  EXPECT_EQ(m.completed, static_cast<u64>(kSamples));
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_GE(m.batches, 1u);
  EXPECT_LE(m.batches, static_cast<u64>(kSamples));

  // One executor serves every batch size, however many clients raced.
  EXPECT_EQ(graph_compiles() - compiles_before, 1u);
}

// Requests queued behind a busy engine leave as max_batch-sized batches
// without waiting for a far-away deadline.
TEST(ServeBatcher, FullBatchFlushesImmediately) {
  InferenceServer server;
  ModelConfig config;
  config.batching.max_batch = 4;
  config.batching.max_delay_ms = 2000.0;
  config.plan = one_thread();
  const ConvProblem p = sample_problem();
  AlignedBuffer<float> weights, input;
  fill_random(weights,
              static_cast<std::size_t>(p.kernel_layout().total_floats()), 1);
  fill_random(input,
              static_cast<std::size_t>(p.input_layout().total_floats()), 2);
  server.register_conv("conv", p, weights.data(), config);

  EngineParker parker(server, "conv");
  std::vector<ResultFuture> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.submit("conv", input.data()));
  }
  parker.wait_queued(4);
  parker.release();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().batch_size, 4);
  }
  EXPECT_EQ(server.stats().models.at("conv").batches, 1u);
  EXPECT_EQ(server.stats().models.at("conv").batches_by_trigger[static_cast<
                std::size_t>(FlushTrigger::kFull)],
            1u);
}

// Work-conserving dispatch: an idle engine serves a lone request once the
// queue goes quiet, not after the max_delay_ms window.
TEST(ServeBatcher, LoneRequestSkipsDelayWindow) {
  InferenceServer server;
  ModelConfig config;
  config.batching.max_batch = 8;
  config.batching.max_delay_ms = 60000.0;
  config.plan = one_thread();
  const ConvProblem p = sample_problem();
  AlignedBuffer<float> weights, input;
  fill_random(weights,
              static_cast<std::size_t>(p.kernel_layout().total_floats()), 1);
  fill_random(input,
              static_cast<std::size_t>(p.input_layout().total_floats()), 2);
  server.register_conv("conv", p, weights.data(), config);

  ResultFuture f = server.submit("conv", input.data());
  ASSERT_EQ(f.wait_for(std::chrono::seconds(2)), std::future_status::ready)
      << "lone request waited for the max_delay_ms window";
  const InferenceResult r = f.get();
  EXPECT_EQ(r.batch_size, 1);
  EXPECT_GE(r.queue_ms, 0.0);
  const ModelStats m = server.stats().models.at("conv");
  EXPECT_EQ(m.batches_by_trigger[static_cast<std::size_t>(
                FlushTrigger::kQuiet)],
            1u);
  EXPECT_NE(server.metrics_prometheus().find(
                "ondwin_serve_batches_total{model=\"conv\",trigger="
                "\"quiet\"} 1"),
            std::string::npos);
  EXPECT_NE(server.statusz_text().find("batches by trigger: full=0 quiet=1 "
                                       "max_delay=0 drain=0"),
            std::string::npos);
}

// A request for the Batcher-level tests below, which drive next_batch()
// directly with no engine.
PendingRequest stamped_request() {
  PendingRequest r;
  r.submitted = std::chrono::steady_clock::now();
  return r;
}

// Under a steady trickle the quiet gap never opens, so max_delay_ms caps
// how long a partial batch lingers: the batch leaves with the max_delay
// trigger while arrivals continue.
TEST(ServeBatcher, TrickleFlushesAtMaxDelay) {
  using Clock = std::chrono::steady_clock;
  BatchPolicy policy;
  policy.max_batch = 1000;
  policy.max_queue = 100000;
  policy.max_delay_ms = 2.0;
  Batcher batcher(policy);

  // One arrival every 100 µs, well inside the quiet gap; spin rather than
  // sleep so a coarse timer cannot stretch a gap past it. The trickle
  // gives up after 2 s, so a batcher without the cap fails here on the
  // quiet gap instead of hanging.
  std::atomic<bool> stop{false};
  std::thread trickle([&] {
    auto next = Clock::now();
    const auto give_up = next + std::chrono::seconds(2);
    while (!stop.load() && Clock::now() < give_up) {
      PendingRequest r = stamped_request();
      if (!batcher.submit(r)) {
        ADD_FAILURE() << "trickle submit rejected";
        break;
      }
      next += std::chrono::microseconds(100);
      while (Clock::now() < next && !stop.load()) {
      }
    }
    batcher.shutdown();  // an empty batch then ends the loop below
  });

  // The trickle runs until a batch leaves at max_delay; a preempted sender
  // can open a quiet gap now and then, so allow a few batches for it.
  bool capped = false;
  for (int i = 0; i < 50 && !capped; ++i) {
    const Batcher::Batch b = batcher.next_batch();
    const auto taken = Clock::now();
    if (b.requests.empty()) break;
    if (b.trigger != FlushTrigger::kMaxDelay) continue;
    capped = true;
    EXPECT_GT(b.requests.size(), 1u);
    EXPECT_GE(taken - b.requests.front().submitted,
              std::chrono::milliseconds(2));
  }
  stop.store(true);
  trickle.join();
  EXPECT_TRUE(capped) << "no batch left at max_delay_ms under a trickle";
}

// A shutdown hands whatever is still queued to the engines as drain
// batches, then signals exit with an empty batch.
TEST(ServeBatcher, ShutdownDrainsQueuedRequests) {
  BatchPolicy policy;
  policy.max_batch = 2;
  policy.max_delay_ms = 60000.0;
  Batcher batcher(policy);
  for (int i = 0; i < 3; ++i) {
    PendingRequest r = stamped_request();
    ASSERT_TRUE(batcher.submit(r));
  }
  batcher.shutdown();
  PendingRequest late = stamped_request();
  EXPECT_FALSE(batcher.submit(late));

  const Batcher::Batch first = batcher.next_batch();
  EXPECT_EQ(first.trigger, FlushTrigger::kDrain);
  EXPECT_EQ(first.requests.size(), 2u);
  const Batcher::Batch second = batcher.next_batch();
  EXPECT_EQ(second.trigger, FlushTrigger::kDrain);
  EXPECT_EQ(second.requests.size(), 1u);
  EXPECT_TRUE(batcher.next_batch().requests.empty());
}

// Requests that queue up while the engine is busy leave together as one
// batch once it is free, even below max_batch.
TEST(ServeBatcher, QueuedWhileBusyFormOneBatch) {
  InferenceServer server;
  ModelConfig config;
  config.batching.max_batch = 8;
  config.batching.max_delay_ms = 60000.0;
  config.plan = one_thread();
  const ConvProblem p = sample_problem();
  AlignedBuffer<float> weights, input;
  fill_random(weights,
              static_cast<std::size_t>(p.kernel_layout().total_floats()), 1);
  fill_random(input,
              static_cast<std::size_t>(p.input_layout().total_floats()), 2);
  server.register_conv("conv", p, weights.data(), config);

  EngineParker parker(server, "conv");
  std::vector<ResultFuture> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.submit("conv", input.data()));
  }
  parker.wait_queued(4);
  parker.release();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_EQ(f.get().batch_size, 4);
  }
  EXPECT_EQ(server.stats().models.at("conv").batches, 1u);
}

// A bounded queue rejects overload instead of queueing unboundedly, and a
// draining shutdown still serves everything that was accepted.
TEST(ServeBatcher, OverflowRejectsThenDrainCompletes) {
  InferenceServer server;
  ModelConfig config;
  config.batching.max_batch = 8;
  config.batching.max_delay_ms = 10000.0;
  config.batching.max_queue = 4;
  config.plan = one_thread();
  const ConvProblem p = sample_problem();
  AlignedBuffer<float> weights, input;
  fill_random(weights,
              static_cast<std::size_t>(p.kernel_layout().total_floats()), 1);
  fill_random(input,
              static_cast<std::size_t>(p.input_layout().total_floats()), 2);
  server.register_conv("conv", p, weights.data(), config);

  // A busy engine parks the accepted requests in the queue.
  EngineParker parker(server, "conv");
  std::vector<ResultFuture> accepted;
  std::vector<ResultFuture> rejected;
  for (int i = 0; i < 4; ++i) {
    accepted.push_back(server.submit("conv", input.data()));
  }
  parker.wait_queued(4);
  for (int i = 0; i < 3; ++i) {
    rejected.push_back(server.submit("conv", input.data()));
  }
  for (auto& f : rejected) {
    EXPECT_THROW(f.get(), Error);
  }

  parker.release();
  server.shutdown(/*drain=*/true);
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().output.size(),
              static_cast<std::size_t>(p.output_layout().total_floats()));
  }
  const ModelStats m = server.stats().models.at("conv");
  EXPECT_EQ(m.rejected, 3u);
  EXPECT_EQ(m.completed, 4u);
}

// Shutdown with drain=true loses nothing; afterwards submit() throws.
TEST(ServeServer, GracefulShutdownDrainsEverything) {
  InferenceServer server;
  ModelConfig config;
  config.batching.max_batch = 4;
  config.batching.max_delay_ms = 500.0;
  config.plan = one_thread();
  const ConvProblem p = sample_problem();
  AlignedBuffer<float> weights, input;
  fill_random(weights,
              static_cast<std::size_t>(p.kernel_layout().total_floats()), 1);
  fill_random(input,
              static_cast<std::size_t>(p.input_layout().total_floats()), 2);
  server.register_conv("conv", p, weights.data(), config);

  std::vector<ResultFuture> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(server.submit("conv", input.data()));
  }
  server.shutdown(/*drain=*/true);

  for (auto& f : futures) {
    EXPECT_NO_THROW(f.get());  // every accepted request was served
  }
  EXPECT_EQ(server.stats().models.at("conv").completed, 16u);
  EXPECT_FALSE(server.accepting());
  EXPECT_THROW(server.submit("conv", input.data()), Error);
}

// Non-draining shutdown fails queued requests through their futures.
TEST(ServeServer, AbortShutdownFailsPending) {
  InferenceServer server;
  ModelConfig config;
  config.batching.max_batch = 8;
  config.batching.max_delay_ms = 10000.0;
  config.plan = one_thread();
  const ConvProblem p = sample_problem();
  AlignedBuffer<float> weights, input;
  fill_random(weights,
              static_cast<std::size_t>(p.kernel_layout().total_floats()), 1);
  fill_random(input,
              static_cast<std::size_t>(p.input_layout().total_floats()), 2);
  server.register_conv("conv", p, weights.data(), config);

  std::vector<ResultFuture> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.submit("conv", input.data()));
  }
  server.shutdown(/*drain=*/false);
  int failed = 0;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const Error&) {
      ++failed;
    }
  }
  // The engine may have raced a deadline wake-up and served some, but
  // whatever was still queued must fail, not hang.
  EXPECT_EQ(failed + static_cast<int>(
                         server.stats().models.at("conv").completed),
            3);
}

// stop(drain=true) is shutdown() plus a completion barrier: every
// accepted request's Completion — including slow ones on engine threads —
// has finished running by the time stop() returns. This is what lets a
// transport (the rpc tier) tear down knowing no callback can fire into
// freed state afterwards.
TEST(ServeServer, StopWaitsForCompletionCallbacks) {
  InferenceServer server;
  ModelConfig config;
  config.batching.max_batch = 4;
  config.batching.max_delay_ms = 20.0;
  config.plan = one_thread();
  const ConvProblem p = sample_problem();
  const std::size_t sout =
      static_cast<std::size_t>(p.output_layout().total_floats());
  AlignedBuffer<float> weights, input;
  fill_random(weights,
              static_cast<std::size_t>(p.kernel_layout().total_floats()), 1);
  fill_random(input,
              static_cast<std::size_t>(p.input_layout().total_floats()), 2);
  server.register_conv("conv", p, weights.data(), config);

  constexpr int kRequests = 6;
  std::atomic<int> completions{0};
  std::atomic<int> with_output{0};
  for (int i = 0; i < kRequests; ++i) {
    mem::Workspace slab = server.checkout_input("conv");
    std::memcpy(slab.data(), input.data(), slab.size() * sizeof(float));
    server.submit_async(
        "conv", std::move(slab),
        [&](InferenceResult result, std::exception_ptr error) {
          // Dawdle: stop() must wait even for a completion that is
          // already running but not yet finished.
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          if (error == nullptr && result.output.size() == sout) {
            with_output.fetch_add(1);
          }
          completions.fetch_add(1);
        });
  }
  server.stop(/*drain=*/true);

  // No sleep, no polling: the barrier alone guarantees this.
  EXPECT_EQ(completions.load(), kRequests);
  EXPECT_EQ(with_output.load(), kRequests);
  EXPECT_FALSE(server.accepting());
  EXPECT_EQ(server.stats().models.at("conv").completed,
            static_cast<u64>(kRequests));
}

// Unknown models and duplicate registrations are loud errors.
TEST(ServeServer, RegistryErrors) {
  InferenceServer server;
  const ConvProblem p = sample_problem();
  AlignedBuffer<float> weights, input;
  fill_random(weights,
              static_cast<std::size_t>(p.kernel_layout().total_floats()), 1);
  fill_random(input,
              static_cast<std::size_t>(p.input_layout().total_floats()), 2);
  server.register_conv("conv", p, weights.data());
  EXPECT_THROW(server.register_conv("conv", p, weights.data()), Error);
  EXPECT_THROW(server.submit("nope", input.data()), Error);
}

// Serving a whole network (conv+bias+ReLU+pool) in batches of every size
// n in 1..max_batch matches a batch-1 executor compiled from the base
// network bit for bit. The engine is parked while each batch's n requests
// queue, so it takes exactly those n as one batch.
TEST(ServeNetwork, MatchesBatchOneExecutorBitwise) {
  auto base = std::make_shared<Sequential>(1, 16, Dims{8, 8}, one_thread());
  base->add_conv(16, {3, 3}, {1, 1}, {2, 2}, /*relu=*/true);
  base->add_max_pool(2);
  base->add_conv(32, {3, 3}, {1, 1}, {2, 2}, /*relu=*/true);
  Rng rng(0x5EEE);
  base->randomize_weights(rng);

  const std::size_t sin =
      static_cast<std::size_t>(base->input_layout().total_floats());
  const std::size_t sout =
      static_cast<std::size_t>(base->output_layout().total_floats());

  graph::CompileOptions copts;
  copts.plan = one_thread();
  graph::Executor one(base->to_graph(), copts);
  constexpr int kSamples = 8;
  std::vector<AlignedBuffer<float>> inputs(kSamples);
  std::vector<AlignedBuffer<float>> expected(kSamples);
  for (int s = 0; s < kSamples; ++s) {
    fill_random(inputs[static_cast<std::size_t>(s)], sin,
                0x2000 + static_cast<u64>(s));
    expected[static_cast<std::size_t>(s)].reset(sout);
    one.execute(inputs[static_cast<std::size_t>(s)].data(),
                expected[static_cast<std::size_t>(s)].data());
  }

  InferenceServer server;
  ModelConfig config;
  config.batching.max_batch = 4;
  config.plan = one_thread();
  server.register_network("net", base, config);

  // Up to max_batch and back down: the smaller batches then find a larger
  // one's rows in the executor's buffers.
  int s = 0;
  for (const int n : {1, 2, 3, 4, 3, 2, 1}) {
    EngineParker parker(server, "net");
    std::vector<ResultFuture> futures;
    for (int i = 0; i < n; ++i) {
      futures.push_back(server.submit(
          "net", inputs[static_cast<std::size_t>((s + i) % kSamples)].data()));
    }
    parker.wait_queued(n);
    parker.release();
    for (int i = 0; i < n; ++i) {
      InferenceResult r = futures[static_cast<std::size_t>(i)].get();
      ASSERT_EQ(r.output.size(), sout);
      EXPECT_EQ(r.batch_size, n);
      EXPECT_EQ(std::memcmp(r.output.data(),
                            expected[static_cast<std::size_t>((s + i) %
                                                              kSamples)]
                                .data(),
                            sout * sizeof(float)),
                0)
          << "batch of " << n << ", request " << i;
    }
    s += n;
  }
}

// Knob validation fails fast at registration time.
TEST(ServeConfig, RejectsBadKnobs) {
  const ConvProblem p = sample_problem();
  AlignedBuffer<float> weights;
  fill_random(weights,
              static_cast<std::size_t>(p.kernel_layout().total_floats()), 1);
  InferenceServer server;
  {
    ModelConfig config;
    config.batching.max_batch = 0;
    EXPECT_THROW(server.register_conv("a", p, weights.data(), config), Error);
  }
  {
    ModelConfig config;
    config.batching.max_delay_ms = -1.0;
    EXPECT_THROW(server.register_conv("b", p, weights.data(), config), Error);
  }
}

}  // namespace
}  // namespace ondwin::serve
