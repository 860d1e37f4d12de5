// ondwin::obs coverage: tracer (nesting, wraparound, concurrent emit,
// Chrome JSON), metrics (counters under contention, histogram buckets,
// Prometheus/JSON exposition and escaping), perf-counter fallback, the
// per-thread StageBalance stats, the LatencyRecorder percentile fix, and
// the serve::InferenceServer metrics endpoint end-to-end.
//
// This suite carries the `tsan` ctest label: the concurrent-emit and
// counter tests are the data-race regression net for the lock-free paths.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ondwin/ondwin.h"
#include "serve/latency.h"
#include "util/rng.h"

using namespace ondwin;

namespace {

// Spans recorded by this test binary are found by name; helpers count them.
int count_spans(const std::vector<obs::CollectedSpan>& spans,
                const std::string& name) {
  int n = 0;
  for (const auto& s : spans) {
    if (name == s.name) ++n;
  }
  return n;
}

// Every tracer test runs with this guard: clears the rings, flips tracing
// as requested, and always leaves the process-wide flag off afterwards so
// later tests (and the other suites) run untraced.
struct TracerGuard {
  explicit TracerGuard(bool enable) {
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_enabled(enable);
  }
  ~TracerGuard() {
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().clear();
  }
};

TEST(Trace, DisabledEmitsNothing) {
  TracerGuard guard(/*enable=*/false);
  {
    ONDWIN_TRACE_SPAN("obs_test.disabled");
  }
  EXPECT_EQ(count_spans(obs::Tracer::instance().collect(),
                        "obs_test.disabled"),
            0);
}

TEST(Trace, SpanNestingRecordsDepthAndContainment) {
  TracerGuard guard(/*enable=*/true);
  {
    ONDWIN_TRACE_SPAN("obs_test.outer");
    {
      ONDWIN_TRACE_SPAN("obs_test.inner");
    }
  }
  const auto spans = obs::Tracer::instance().collect();
  ASSERT_EQ(count_spans(spans, "obs_test.outer"), 1);
  ASSERT_EQ(count_spans(spans, "obs_test.inner"), 1);
  obs::CollectedSpan outer, inner;
  for (const auto& s : spans) {
    if (std::string("obs_test.outer") == s.name) outer = s;
    if (std::string("obs_test.inner") == s.name) inner = s;
  }
  EXPECT_EQ(inner.depth, outer.depth + 1);
  EXPECT_EQ(inner.tid, outer.tid);
  // Scope containment on the shared timeline: inner starts after and ends
  // before (durations are end-start, so containment is expressible).
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
}

TEST(Trace, RingWraparoundKeepsNewestAndCountsDropped) {
  TracerGuard guard(/*enable=*/true);
  constexpr int kOverflow = 512;
  const int total =
      static_cast<int>(obs::Tracer::kRingCapacity) + kOverflow;
  for (int i = 0; i < total; ++i) {
    ONDWIN_TRACE_SPAN("obs_test.wrap");
  }
  const auto spans = obs::Tracer::instance().collect();
  // This thread's ring holds exactly one capacity's worth; the overwritten
  // prefix is accounted as dropped.
  EXPECT_EQ(count_spans(spans, "obs_test.wrap"),
            static_cast<int>(obs::Tracer::kRingCapacity));
  EXPECT_GE(obs::Tracer::instance().dropped(),
            static_cast<u64>(kOverflow));
}

TEST(Trace, ConcurrentEmitIsRaceFree) {
  TracerGuard guard(/*enable=*/true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 20000;  // > capacity/2: forces wrapping
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ONDWIN_TRACE_SPAN("obs_test.mt");
        ONDWIN_TRACE_SPAN("obs_test.mt_inner");
      }
    });
  }
  // A collector racing the emitters: must never tear fields or deadlock.
  for (int i = 0; i < 50; ++i) {
    (void)obs::Tracer::instance().collect();
  }
  for (auto& t : threads) t.join();
  const auto spans = obs::Tracer::instance().collect();
  EXPECT_GT(count_spans(spans, "obs_test.mt"), 0);
  EXPECT_GT(count_spans(spans, "obs_test.mt_inner"), 0);
}

TEST(Trace, ChromeJsonHasCompleteEvents) {
  TracerGuard guard(/*enable=*/true);
  {
    ONDWIN_TRACE_SPAN("obs_test.chrome");
  }
  const std::string json = obs::Tracer::instance().chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"obs_test.chrome\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);

  const std::string path = "obs_test_trace.json";
  ASSERT_TRUE(obs::Tracer::instance().write_chrome_trace(path));
  std::remove(path.c_str());
}

TEST(Trace, ExecuteEmitsAllThreeStages) {
  TracerGuard guard(/*enable=*/true);
  ConvProblem p;
  p.shape.batch = 1;
  p.shape.in_channels = 16;
  p.shape.out_channels = 16;
  p.shape.image = {8, 8};
  p.shape.kernel = {3, 3};
  p.shape.padding = {1, 1};
  p.tile_m = {2, 2};
  PlanOptions opts;
  opts.threads = 2;
  ConvPlan plan(p, opts);
  AlignedBuffer<float> in(
      static_cast<std::size_t>(p.input_layout().total_floats()));
  AlignedBuffer<float> w(
      static_cast<std::size_t>(p.kernel_layout().total_floats()));
  AlignedBuffer<float> out(
      static_cast<std::size_t>(p.output_layout().total_floats()));
  Rng rng(3);
  for (auto& v : in) v = rng.uniform(-1, 1);
  for (auto& v : w) v = rng.uniform(-1, 1);
  plan.execute(in.data(), w.data(), out.data());

  const auto spans = obs::Tracer::instance().collect();
  EXPECT_GT(count_spans(spans, "conv.execute"), 0);
  EXPECT_GT(count_spans(spans, "input_transform"), 0);
  EXPECT_GT(count_spans(spans, "kernel_transform"), 0);
  EXPECT_GT(count_spans(spans, "gemm"), 0);
  EXPECT_GT(count_spans(spans, "inverse_transform"), 0);
}

TEST(Metrics, CounterIsExactUnderContention) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncs = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<u64>(kThreads) * kIncs);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::Gauge g;
  g.set(2.5);
  g.add(1.25);
  EXPECT_DOUBLE_EQ(g.value(), 3.75);
}

TEST(Metrics, HistogramBucketsSumCount) {
  obs::Histogram h({1, 2, 4});
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 5.0}) h.observe(v);
  const obs::Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);  // 3 finite bounds + +Inf
  EXPECT_EQ(s.counts[0], 2u);      // 0.5, 1.0 (bounds are inclusive)
  EXPECT_EQ(s.counts[1], 2u);      // 1.5, 2.0
  EXPECT_EQ(s.counts[2], 1u);      // 3.0
  EXPECT_EQ(s.counts[3], 1u);      // 5.0 → +Inf
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.sum, 13.0);
}

TEST(Metrics, RegistryReturnsSameInstrumentForSameIdentity) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("obs_test_total", "h");
  obs::Counter& b = reg.counter("obs_test_total", "h");
  obs::Counter& c = reg.counter("obs_test_total", "h", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc(3);
  c.inc(1);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP obs_test_total h"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_total counter"), std::string::npos);
  EXPECT_NE(text.find("obs_test_total 3"), std::string::npos);
  EXPECT_NE(text.find("obs_test_total{k=\"v\"} 1"), std::string::npos);
}

TEST(Metrics, PrometheusEscaping) {
  obs::MetricsPage page;
  page.add_counter("esc_total", "help", {{"l", "a\\b\"c\nd"}}, 1);
  const std::string text = page.prometheus();
  EXPECT_NE(text.find("l=\"a\\\\b\\\"c\\nd\""), std::string::npos);
}

TEST(Metrics, HistogramPrometheusCumulativeBuckets) {
  obs::Histogram h({1, 2});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  obs::MetricsPage page;
  page.add_histogram("occ", "batch sizes", {{"model", "m"}}, h.snapshot());
  const std::string text = page.prometheus();
  EXPECT_NE(text.find("# TYPE occ histogram"), std::string::npos);
  EXPECT_NE(text.find("occ_bucket{model=\"m\",le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("occ_bucket{model=\"m\",le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("occ_bucket{model=\"m\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("occ_count{model=\"m\"} 3"), std::string::npos);

  const std::string json = page.json();
  EXPECT_NE(json.find("\"name\":\"occ\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"+Inf\""), std::string::npos);
}

TEST(PerfCounters, GracefulWhenUnavailable) {
  obs::PerfCounterSet perf;
  if (!perf.available()) {
    EXPECT_FALSE(perf.unavailable_reason().empty());
    perf.start();  // every call must be a harmless no-op
    perf.stop();
    const obs::PerfReading r = perf.read();
    EXPECT_FALSE(r.valid);
    EXPECT_EQ(r.cycles, 0u);
  } else {
    perf.start();
    volatile double sink = 0;
    for (int i = 0; i < 1000000; ++i) sink = sink + 1.0;
    perf.stop();
    const obs::PerfReading r = perf.read();
    EXPECT_TRUE(r.valid);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.ipc(), 0.0);
  }
}

TEST(StageBalance, PopulatedByMultiThreadExecute) {
  ConvProblem p;
  p.shape.batch = 2;
  p.shape.in_channels = 16;
  p.shape.out_channels = 16;
  p.shape.image = {16, 16};
  p.shape.kernel = {3, 3};
  p.shape.padding = {1, 1};
  p.tile_m = {4, 4};
  PlanOptions opts;
  opts.threads = 4;
  ConvPlan plan(p, opts);
  AlignedBuffer<float> in(
      static_cast<std::size_t>(p.input_layout().total_floats()));
  AlignedBuffer<float> w(
      static_cast<std::size_t>(p.kernel_layout().total_floats()));
  AlignedBuffer<float> out(
      static_cast<std::size_t>(p.output_layout().total_floats()));
  Rng rng(11);
  for (auto& v : in) v = rng.uniform(-1, 1);
  for (auto& v : w) v = rng.uniform(-1, 1);

  plan.set_kernels(w.data());
  plan.execute_pretransformed(in.data(), out.data());
  const ConvPlanStats& st = plan.last_stats();

  for (const StageBalance* b :
       {&st.kernel_balance, &st.input_balance, &st.gemm_balance,
        &st.inverse_balance}) {
    EXPECT_GT(b->max_s, 0.0);
    EXPECT_GT(b->mean_s, 0.0);
    // max over participants can never undercut their mean, so imbalance
    // is meaningful and >= 1.
    EXPECT_GE(b->max_s, b->mean_s * (1.0 - 1e-12));
    EXPECT_GE(b->imbalance(), 1.0 - 1e-12);
  }
}

TEST(Latency, SummaryInterpolatesPercentiles) {
  serve::LatencyRecorder rec;
  rec.record(1.0);
  rec.record(100.0);
  const serve::LatencyRecorder::Summary s = rec.summarize();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.window, 2u);
  EXPECT_DOUBLE_EQ(s.min_ms, 1.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 100.0);
  EXPECT_DOUBLE_EQ(s.mean_ms, 50.5);
  // The old nearest-rank rounding returned the max-biased sample for all
  // three quantiles of a 2-sample window. Type-7 interpolation:
  EXPECT_DOUBLE_EQ(s.p50_ms, 50.5);
  EXPECT_NEAR(s.p95_ms, 95.05, 1e-9);
  EXPECT_NEAR(s.p99_ms, 99.01, 1e-9);
  EXPECT_LT(s.p99_ms, s.max_ms);
}

TEST(Latency, EmptyAndSingleSample) {
  serve::LatencyRecorder rec;
  EXPECT_EQ(rec.summarize().window, 0u);
  EXPECT_DOUBLE_EQ(rec.summarize().min_ms, 0.0);
  rec.record(7.0);
  const serve::LatencyRecorder::Summary s = rec.summarize();
  EXPECT_EQ(s.window, 1u);
  EXPECT_DOUBLE_EQ(s.min_ms, 7.0);
  EXPECT_DOUBLE_EQ(s.p50_ms, 7.0);
  EXPECT_DOUBLE_EQ(s.p99_ms, 7.0);
}

TEST(ServerMetrics, PrometheusAndJsonEndToEnd) {
  ConvProblem p;
  p.shape.batch = 1;
  p.shape.in_channels = 16;
  p.shape.out_channels = 16;
  p.shape.image = {4, 4};
  p.shape.kernel = {3, 3};
  p.shape.padding = {1, 1};
  p.tile_m = {2, 2};

  AlignedBuffer<float> w(
      static_cast<std::size_t>(p.kernel_layout().total_floats()));
  AlignedBuffer<float> in(
      static_cast<std::size_t>(p.input_layout().total_floats()));
  Rng rng(5);
  for (auto& v : w) v = rng.uniform(-1, 1);
  for (auto& v : in) v = rng.uniform(-1, 1);

  serve::InferenceServer server;
  serve::ModelConfig config;
  config.batching.max_batch = 4;
  config.plan.threads = 1;
  server.register_conv("obs_model", p, w.data(), config);
  for (int i = 0; i < 6; ++i) {
    server.submit("obs_model", in.data()).get();
  }

  const std::string text = server.metrics_prometheus();
  EXPECT_NE(text.find("ondwin_serve_requests_total{model=\"obs_model\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("ondwin_serve_completed_total{model=\"obs_model\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ondwin_batch_occupancy histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("ondwin_batch_occupancy_bucket{model=\"obs_model\",le=\"1\"}"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "ondwin_batch_occupancy_bucket{model=\"obs_model\",le=\"+Inf\"}"),
      std::string::npos);
  EXPECT_NE(text.find("ondwin_batch_occupancy_count{model=\"obs_model\"}"),
            std::string::npos);
  EXPECT_NE(
      text.find("ondwin_serve_latency_ms{model=\"obs_model\",quantile=\"0.5\"}"),
      std::string::npos);
  // The process-global registry rides along: the replica compiled above
  // bumped the graph-compile counter, which the server does not own.
  EXPECT_NE(text.find("ondwin_graph_compiles_total"), std::string::npos);

  const std::string json = server.metrics_json();
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ondwin_serve_requests_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"model\":\"obs_model\""), std::string::npos);

  // Occupancy: 6 sequential submits → 6 executions of batch 1.
  const serve::ServerStats stats = server.stats();
  const serve::ModelStats& m = stats.models.at("obs_model");
  EXPECT_EQ(m.batch_occupancy.count, 6u);
  ASSERT_FALSE(m.batch_occupancy.counts.empty());
  EXPECT_EQ(m.batch_occupancy.counts[0], 6u);  // le=1 bucket
  EXPECT_EQ(m.latency_window, 6u);
  EXPECT_GT(m.min_ms, 0.0);
}

// ------------------------------------------------- distributed contexts

// Spans opened under an installed TraceContext join its trace; spans
// recorded retroactively with a forced id become parents other spans can
// chain to — the exact mechanics the rpc tier uses across processes.
TEST(Trace, ContextScopeChainsSpansIntoTrace) {
  TracerGuard guard(/*enable=*/true);
  const obs::TraceContext ctx{obs::new_trace_id(), obs::new_span_id()};
  ASSERT_TRUE(ctx.active());
  {
    obs::TraceContextScope scope(ctx);
    EXPECT_EQ(obs::current_trace_context().trace_id, ctx.trace_id);
    {
      ONDWIN_TRACE_SPAN("obs_test.ctx_child");
    }
  }
  // Context restored on scope exit: spans outside stay untraced.
  EXPECT_EQ(obs::current_trace_context().trace_id, 0u);
  {
    ONDWIN_TRACE_SPAN("obs_test.ctx_outside");
  }

  // A retroactive span with a forced id, as the client does for its
  // request span so server spans can parent to an id that is already on
  // the wire before the span itself is recorded.
  const u64 forced = obs::new_span_id();
  const u64 used = obs::record_span("obs_test.ctx_retro", 1000, 500,
                                    ctx, forced);
  EXPECT_EQ(used, forced);

  bool found_child = false, found_outside = false, found_retro = false;
  for (const auto& s : obs::Tracer::instance().collect()) {
    if (std::string("obs_test.ctx_child") == s.name) {
      found_child = true;
      EXPECT_EQ(s.trace_id, ctx.trace_id);
      EXPECT_EQ(s.parent_id, ctx.span_id);
      EXPECT_NE(s.span_id, 0u);
      EXPECT_NE(s.span_id, ctx.span_id);
    } else if (std::string("obs_test.ctx_outside") == s.name) {
      found_outside = true;
      EXPECT_EQ(s.trace_id, 0u);
    } else if (std::string("obs_test.ctx_retro") == s.name) {
      found_retro = true;
      EXPECT_EQ(s.trace_id, ctx.trace_id);
      EXPECT_EQ(s.span_id, forced);
      EXPECT_EQ(s.parent_id, ctx.span_id);
    }
  }
  EXPECT_TRUE(found_child);
  EXPECT_TRUE(found_outside);
  EXPECT_TRUE(found_retro);
}

// The tracer exports its own health: spans-lost and enable-state ride the
// normal metrics page, and /tracez leads with both.
TEST(Trace, SelfMetricsAndTracezReportLossAndState) {
  TracerGuard guard(/*enable=*/true);
  {
    ONDWIN_TRACE_SPAN("obs_test.selfmetrics");
  }
  obs::MetricsPage page;
  obs::Tracer::instance().emit_metrics(page);
  const std::string text = page.prometheus();
  EXPECT_NE(text.find("ondwin_obs_spans_lost_total"), std::string::npos);
  EXPECT_NE(text.find("ondwin_obs_trace_enabled 1"), std::string::npos);
  EXPECT_NE(text.find("ondwin_obs_trace_threads"), std::string::npos);

  const std::string tracez = obs::Tracer::instance().tracez_text();
  EXPECT_NE(tracez.find("tracing: enabled"), std::string::npos);
  EXPECT_NE(tracez.find("spans lost"), std::string::npos);
  EXPECT_NE(tracez.find("obs_test.selfmetrics"), std::string::npos);

  obs::Tracer::instance().set_enabled(false);
  obs::MetricsPage off;
  obs::Tracer::instance().emit_metrics(off);
  EXPECT_NE(off.prometheus().find("ondwin_obs_trace_enabled 0"),
            std::string::npos);
  EXPECT_NE(obs::Tracer::instance().tracez_text().find("tracing: disabled"),
            std::string::npos);
}

// ------------------------------------------------------------ trace merge

namespace merge_docs {

// Hand-written documents in the writer's exact shape: one process each,
// pids 1/2, trace "aa" spanning both plus an unrelated trace "bb".
const char kRouterDoc[] =
    "{\"traceEvents\":["
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
    "\"args\":{\"name\":\"router\"}},"
    "{\"name\":\"rpc.request\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
    "\"ts\":10.0,\"dur\":5.0,\"args\":{\"depth\":0,"
    "\"trace\":\"00000000000000aa\",\"span\":\"0000000000000001\","
    "\"parent\":\"0000000000000000\"}}"
    "]}";
const char kBackendDoc[] =
    "{\"traceEvents\":["
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
    "\"args\":{\"name\":\"backend0\"}},"
    "{\"name\":\"rpc.admit\",\"ph\":\"X\",\"pid\":2,\"tid\":0,"
    "\"ts\":11.0,\"dur\":1.0,\"args\":{\"depth\":0,"
    "\"trace\":\"00000000000000aa\",\"span\":\"0000000000000002\","
    "\"parent\":\"0000000000000001\"}},"
    "{\"name\":\"unrelated\",\"ph\":\"X\",\"pid\":2,\"tid\":0,"
    "\"ts\":50.0,\"dur\":1.0,\"args\":{\"depth\":0,"
    "\"trace\":\"00000000000000bb\",\"span\":\"0000000000000003\","
    "\"parent\":\"0000000000000000\"}}"
    "]}";

}  // namespace merge_docs

TEST(TraceMerge, ConcatenatesDumpsAndFiltersByTraceId) {
  const std::vector<std::string> docs = {merge_docs::kRouterDoc,
                                         merge_docs::kBackendDoc};
  // Unfiltered: every event from both processes survives, and the result
  // is itself a well-formed trace document.
  const std::string merged = obs::merge_chrome_traces(docs);
  for (const char* needle :
       {"rpc.request", "rpc.admit", "unrelated", "\"router\"",
        "\"backend0\"", "\"displayTimeUnit\":\"ms\""}) {
    EXPECT_NE(merged.find(needle), std::string::npos) << needle;
  }
  std::string events;
  ASSERT_TRUE(obs::extract_trace_events(merged, &events));

  // Filtered to trace aa: the cross-process chain survives (with both
  // process_name records so Perfetto still labels the tracks), the
  // unrelated trace does not.
  const std::string one =
      obs::merge_chrome_traces(docs, "00000000000000aa");
  EXPECT_NE(one.find("rpc.request"), std::string::npos);
  EXPECT_NE(one.find("rpc.admit"), std::string::npos);
  EXPECT_NE(one.find("\"parent\":\"0000000000000001\""), std::string::npos);
  EXPECT_NE(one.find("\"router\""), std::string::npos);
  EXPECT_NE(one.find("\"backend0\""), std::string::npos);
  EXPECT_EQ(one.find("unrelated"), std::string::npos);

  // Malformed input: no traceEvents array → a clean failure, not UB.
  EXPECT_FALSE(obs::extract_trace_events("{\"foo\":1}", &events));
  EXPECT_THROW(obs::merge_chrome_traces({"{\"foo\":1}"}), Error);
}

TEST(TraceMerge, FileLevelMergeRoundTrips) {
  const std::string base =
      str_cat("/tmp/ondwin_obs_merge_", ::getpid());
  const std::string f1 = base + ".router.json";
  const std::string f2 = base + ".backend.json";
  const std::string out = base + ".merged.json";
  {
    std::ofstream(f1) << merge_docs::kRouterDoc;
    std::ofstream(f2) << merge_docs::kBackendDoc;
  }
  ASSERT_TRUE(obs::merge_chrome_trace_files({f1, f2}, out));
  std::ifstream in(out);
  ASSERT_TRUE(static_cast<bool>(in));
  std::string merged((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  EXPECT_NE(merged.find("rpc.request"), std::string::npos);
  EXPECT_NE(merged.find("rpc.admit"), std::string::npos);

  EXPECT_FALSE(
      obs::merge_chrome_trace_files({base + ".absent.json"}, out));
  std::remove(f1.c_str());
  std::remove(f2.c_str());
  std::remove(out.c_str());
}

// ----------------------------------------------------------- http exporter

/// Blocking one-shot raw HTTP exchange against 127.0.0.1:port.
std::string http_exchange(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<u16>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return {};
  }
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t w =
        ::write(fd, request.data() + off, request.size() - off);
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string http_get(int port, const std::string& path) {
  return http_exchange(
      port, "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

std::string http_body(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

bool valid_sample_value(const std::string& s) {
  if (s == "+Inf" || s == "-Inf" || s == "NaN") return true;
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

/// Strict-enough Prometheus text-format (0.0.4) linter: every line must
/// be a HELP/TYPE comment or a well-formed sample whose family was
/// declared by a preceding TYPE line. Returns the violations, empty on a
/// clean page.
std::vector<std::string> prometheus_lint(const std::string& body) {
  std::vector<std::string> errors;
  std::vector<std::string> families;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) {
      errors.push_back("last line lacks trailing newline");
      eol = body.size();
    }
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# HELP <name> <text>" / "# TYPE <name> <type>"
      if (line.rfind("# HELP ", 0) == 0) continue;
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::size_t sp = line.find(' ', 7);
        if (sp == std::string::npos) {
          errors.push_back("malformed TYPE: " + line);
          continue;
        }
        const std::string name = line.substr(7, sp - 7);
        const std::string type = line.substr(sp + 1);
        if (!valid_metric_name(name)) {
          errors.push_back("bad family name: " + line);
        }
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          errors.push_back("bad family type: " + line);
        }
        families.push_back(name);
        continue;
      }
      errors.push_back("unknown comment form: " + line);
      continue;
    }
    // Sample: name[{labels}] value
    std::size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) {
      errors.push_back("no value: " + line);
      continue;
    }
    const std::string name = line.substr(0, name_end);
    if (!valid_metric_name(name)) {
      errors.push_back("bad metric name: " + line);
      continue;
    }
    std::size_t i = name_end;
    if (line[i] == '{') {
      // label pairs: ident="escaped", ...
      ++i;
      while (i < line.size() && line[i] != '}') {
        const std::size_t eq = line.find('=', i);
        if (eq == std::string::npos ||
            !valid_metric_name(line.substr(i, eq - i))) {
          errors.push_back("bad label name: " + line);
          break;
        }
        i = eq + 1;
        if (i >= line.size() || line[i] != '"') {
          errors.push_back("unquoted label value: " + line);
          break;
        }
        ++i;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\') ++i;  // escaped char
          ++i;
        }
        if (i >= line.size()) {
          errors.push_back("unterminated label value: " + line);
          break;
        }
        ++i;  // closing quote
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size() || line[i] != '}') {
        errors.push_back("unterminated label block: " + line);
        continue;
      }
      ++i;
    }
    if (i >= line.size() || line[i] != ' ') {
      errors.push_back("no space before value: " + line);
      continue;
    }
    if (!valid_sample_value(line.substr(i + 1))) {
      errors.push_back("bad sample value: " + line);
      continue;
    }
    // The family must have been declared (histogram series add
    // _bucket/_sum/_count to the declared name; summaries add _sum/_count).
    bool declared = false;
    for (const std::string& fam : families) {
      if (name == fam || name == fam + "_bucket" || name == fam + "_sum" ||
          name == fam + "_count") {
        declared = true;
      }
    }
    if (!declared) errors.push_back("sample without TYPE: " + line);
  }
  return errors;
}

TEST(HttpExporter, ServesStrictPrometheusAndDebugPages) {
  obs::HttpExporterOptions opt;
  opt.port = 0;  // kernel-picked
  obs::HttpExporter exporter(opt);
  exporter.add_statusz_section("obs_test_section",
                               [] { return std::string("hello-section\n"); });
  exporter.start();
  const int port = exporter.port();
  ASSERT_GT(port, 0);

  // /metrics: correct content type and a body that survives a strict
  // text-format parse, line by line.
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  const std::vector<std::string> errors =
      prometheus_lint(http_body(metrics));
  for (const std::string& e : errors) ADD_FAILURE() << e;
  EXPECT_NE(metrics.find("ondwin_obs_spans_lost_total"),
            std::string::npos);

  const std::string statusz = http_get(port, "/statusz");
  EXPECT_NE(statusz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(statusz.find("uptime"), std::string::npos);
  EXPECT_NE(statusz.find("obs_test_section"), std::string::npos);
  EXPECT_NE(statusz.find("hello-section"), std::string::npos);

  EXPECT_NE(http_get(port, "/tracez").find("tracing:"),
            std::string::npos);
  EXPECT_NE(http_get(port, "/healthz").find("ok"), std::string::npos);

  // Unknown path → 404 with a hint; wrong method → 405.
  const std::string missing = http_get(port, "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(missing.find("/metrics"), std::string::npos);
  EXPECT_NE(http_exchange(port,
                          "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);

  // Oversize request → 431 and the connection is closed, not served.
  const std::string huge =
      "GET /" + std::string(opt.max_request_bytes + 16, 'x') +
      " HTTP/1.1\r\n\r\n";
  EXPECT_NE(http_exchange(port, huge).find("HTTP/1.1 431"),
            std::string::npos);

  // Six parsed requests (the oversize one never parses — it counts only
  // as a bad request), four served, three rejected politely.
  const obs::HttpExporterStats st = exporter.stats();
  EXPECT_GE(st.requests, 6u);
  EXPECT_GE(st.responses_2xx, 4u);
  EXPECT_GE(st.responses_4xx, 3u);
  EXPECT_GE(st.bad_requests, 1u);

  exporter.stop();
  EXPECT_FALSE(exporter.running());
}

// The serving tier's exporter integration: an InferenceServer with an
// http_port serves its own metrics page over the wire — the same bytes
// metrics_prometheus() returns, fresh per scrape.
TEST(HttpExporter, InferenceServerEndpointServesLiveMetrics) {
  ConvProblem p;
  p.shape.batch = 1;
  p.shape.in_channels = 16;
  p.shape.out_channels = 16;
  p.shape.image = {4, 4};
  p.shape.kernel = {3, 3};
  p.shape.padding = {1, 1};
  p.tile_m = {2, 2};
  AlignedBuffer<float> w(
      static_cast<std::size_t>(p.kernel_layout().total_floats()));
  AlignedBuffer<float> in(
      static_cast<std::size_t>(p.input_layout().total_floats()));
  Rng rng(7);
  for (auto& v : w) v = rng.uniform(-1, 1);
  for (auto& v : in) v = rng.uniform(-1, 1);

  serve::ServerOptions so;
  so.http_port = 0;
  serve::InferenceServer server(so);
  ASSERT_NE(server.http(), nullptr);
  const int port = server.http()->port();
  ASSERT_GT(port, 0);

  serve::ModelConfig config;
  config.plan.threads = 1;
  server.register_conv("scraped", p, w.data(), config);
  for (int i = 0; i < 3; ++i) server.submit("scraped", in.data()).get();

  const std::string body = http_body(http_get(port, "/metrics"));
  EXPECT_NE(body.find("ondwin_serve_requests_total{model=\"scraped\"} 3"),
            std::string::npos);
  const std::vector<std::string> errors = prometheus_lint(body);
  for (const std::string& e : errors) ADD_FAILURE() << e;
  EXPECT_NE(http_get(port, "/statusz").find("scraped"), std::string::npos);

  server.stop();
}

}  // namespace
