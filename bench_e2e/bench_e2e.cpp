// bench_e2e — the end-to-end benchmark every performance claim on ondwin
// is measured with: one seeded run of one workload, end-to-end metrics
// from untraced runs, a per-layer breakdown from traced runs.
//
//   bench_e2e --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//             [--json <path>] [--git-sha <sha>] [--quick]
//
// Workloads (README.md in this directory says why each exists):
//   vgg2d_offline  closed loop, 1 caller: a VGG-style 2D net on
//                  graph::Executor at 1 thread
//   unet3d_2t      closed loop, 1 caller: a 3D-UNet-style encoder on
//                  graph::Executor at 2 threads
//   select_cold    cold select::plan_auto over five Tbl. 2 / LargeK layers
//                  (fresh wisdom), a warm re-plan, then timed passes over
//                  the chosen executors
//   rpc_light      open loop, Poisson 100 req/s, into an InferenceServer
//                  behind an RpcServer on a unix socket
//   rpc_burst      the same stack under bursts of 8 requests every 40 ms,
//                  so every batch is full
//
// The seed generates the weights, the inputs and the arrival schedule;
// the library only ever receives the generated data. Every output is
// compared against an independent reference (DirectConvBlocked plus the
// standalone blocked bias/ReLU/pool ops), and a wrong output fails the
// run. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1); every other line reads "<workload> <metric> <value> <unit>".
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "graph/ops.h"
#include "ondwin/ondwin.h"
#include "report2.h"
#include "util/cpu.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ondwin;
using bench::quantile;
using Clock = std::chrono::steady_clock;

namespace {

// ------------------------------------------------------------ metrics ----

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of both tables (BENCHMARK.json
// lists the same names); a layer a workload does not run reads 0.
constexpr MetricDef kEndToEnd[] = {
    {"samples_per_s", "1/s"},  {"latency_ms_p50", "ms"},
    {"latency_ms_p95", "ms"},  {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"rpc.wire_ms_p50", "ms"},
    {"rpc.gen_lag_ms_p99", "ms"},
    {"rpc.late_share", "ratio"},
    {"rpc.shed_share", "ratio"},
    {"rpc.transport_errors", "count"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p95", "ms"},
    {"serve.exec_ms_p50", "ms"},
    {"serve.mean_batch", "count"},
    {"serve.pool_hit_rate", "ratio"},
    {"graph.conv_ms", "ms"},
    {"graph.other_ms", "ms"},
    {"graph.unattributed_ms", "ms"},
    {"graph.arena_mb", "MiB"},
    {"graph.pred_over_meas", "ratio"},
    {"conv.input_ms", "ms"},
    {"conv.gemm_ms", "ms"},
    {"conv.inverse_ms", "ms"},
    {"conv.wall_ms", "ms"},
    {"conv.gemm_gflops", "GFLOP/s"},
    {"conv.bytes_mb", "MiB"},
    {"conv.stage_cover", "ratio"},
    {"sched.imbalance_input", "ratio"},
    {"sched.imbalance_gemm", "ratio"},
    {"sched.imbalance_inverse", "ratio"},
    {"sched.cpu_s_per_sample", "s"},
    {"sched.process_threads", "count"},
    {"select.plan_s", "s"},
    {"select.warm_plan_s", "s"},
    {"select.calibration_s", "s"},
    {"select.wisdom_hits", "count"},
    {"select.measured", "count"},
    {"select.fft_layers", "count"},
    {"select.exec_ms", "ms"},
    {"select.pred_over_meas", "ratio"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.spans_lost", "count"},
    {"obs.spans", "count"},
    {"self.bench_ms", "ms"},
    {"self.graph_ms", "ms"},
    {"self.conv_ms", "ms"},
    {"self.input_ms", "ms"},
    {"self.gemm_ms", "ms"},
    {"self.inverse_ms", "ms"},
    {"self.pool_ms", "ms"},
};

// Relative L2 error an output may show against the direct reference.
// The fixed F(4x4)/F(6x6)/F(2x4x4) nets and FFT measure 1e-6..2e-5, but
// the planner's accuracy bound also admits tiles such as F(2x2) on the
// 11x11 layer, which measure 2e-3. A wrong output (bad tile, stale
// weights, crossed batch rows, one corrupted tile of a few hundred) is
// 0.03 or more.
constexpr double kTolerance = 1e-2;

// Distinct generated inputs per workload; outputs are checked against
// the reference of the input they were computed from.
constexpr std::size_t kInputs = 2;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 15;
  bool trace = false;
  bool quick = false;
  std::string json_path;
  std::string git_sha = "unknown";
};

double rel_error(const float* out, const float* ref, std::size_t n) {
  double num = 0, den = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(out[i]) - ref[i];
    num += d * d;
    den += static_cast<double>(ref[i]) * ref[i];
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

/// One run's outcome: counts, failed checks and metric values.
struct Run {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, double> value;
  std::map<std::string, std::vector<double>> samples;  // for --json
  long repetitions = 0;
  double max_error = 0;

  void fail_check(const std::string& why) {
    if (check_failures.size() < 20) check_failures.push_back(why);
  }
  /// Checks one output against its reference and counts it.
  void check_output(const float* out, std::size_t n,
                    const AlignedBuffer<float>& ref, const char* what) {
    count_output(n == ref.size() ? rel_error(out, ref.data(), n) : INFINITY,
                 what);
  }
  /// Counts one output whose relative error `e` was already computed
  /// (infinite for a missing or failed output).
  void count_output(double e, const char* what) {
    max_error = std::max(max_error, std::isfinite(e) ? e : 1.0);
    ++attempted;
    if (!(e <= kTolerance)) {
      ++failed;
      if (failed <= 5) {
        std::fprintf(stderr, "wrong output (%s): relative error %g\n", what, e);
      }
    }
  }
  /// Sets a metric main() registered from kEndToEnd or kPerLayer.
  void set(const std::string& name, double v) {
    const auto it = value.find(name);
    ONDWIN_CHECK(it != value.end(), "unknown metric ", name);
    it->second = v;
  }
  /// Sets `name` to the median of `s` and keeps the samples.
  void set_median(const std::string& name, const std::vector<double>& s) {
    set(name, quantile(s, 0.5));
    samples[name] = s;
  }
};

// ------------------------------------------------------------ process ----

double status_field_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0) return std::atof(line.c_str() + n);
  }
  return 0;
}

double peak_rss_mb() { return status_field_kb("VmHWM:") / 1024.0; }
double process_threads() { return status_field_kb("Threads:"); }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

u64 ns_of(Clock::time_point t) {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count());
}

// ---------------------------------------------------------- generation ----

/// Independent generator streams per purpose, all derived from the seed.
Rng stream(u64 seed, u64 purpose) {
  return Rng(seed * 0x9E3779B97F4A7C15ull + purpose * 0xD1B54A32D192ED03ull);
}

enum Stream : u64 { kWeightStream = 1, kInputStream, kScheduleStream, kProbeStream };

std::vector<AlignedBuffer<float>> make_inputs(const ImageLayout& l,
                                              std::size_t count, Rng& rng) {
  std::vector<AlignedBuffer<float>> v;
  for (std::size_t i = 0; i < count; ++i) {
    AlignedBuffer<float> b(static_cast<std::size_t>(l.total_floats()));
    for (auto& x : b) x = rng.uniform(-1.0f, 1.0f);
    v.push_back(std::move(b));
  }
  return v;
}

// ------------------------------------------------------------ networks ----

/// One layer of a sequential net: a conv (bias + ReLU) or, when pool > 0,
/// a max-pool with that window.
struct LayerSpec {
  i64 out_channels = 0;
  Dims kernel, padding, tile_m;
  i64 pool = 0;
};

struct NetSpec {
  i64 batch = 1;
  i64 channels = 0;
  Dims image;
  std::vector<LayerSpec> layers;
};

LayerSpec conv(i64 out, Dims kernel, Dims pad, Dims tile) {
  return {out, kernel, pad, tile, 0};
}
LayerSpec pool(i64 window) { return {0, {}, {}, {}, window}; }

// CI-scaled Tbl. 2 VGG layers as one net; F(6x6) on the last pair.
NetSpec vgg2d_net() {
  const Dims k{3, 3}, p{1, 1}, f4{4, 4}, f6{6, 6};
  return {4, 64, Dims{56, 56},
          {conv(64, k, p, f4), conv(64, k, p, f4), pool(2),
           conv(128, k, p, f4), conv(128, k, p, f4), pool(2),
           conv(256, k, p, f4), conv(256, k, p, f4), pool(2),
           conv(256, k, p, f6), conv(256, k, p, f6)}};
}

// One 3D-UNet-style encoder step, valid padding, F(2x4x4). Two conv
// plans at two threads each keep the process at three threads on a
// four-core host: with more plans, their idle pool workers spin in
// SpinBarrier::wait and oversubscribe the cores, and forward times
// quantize to scheduler ticks.
NetSpec unet3d_net() {
  const Dims k{3, 3, 3}, p{0, 0, 0}, f{2, 4, 4};
  return {1, 16, Dims{20, 44, 44},
          {conv(32, k, p, f), pool(2), conv(64, k, p, f)}};
}

// The served model: one sample per request.
NetSpec rpc_net() {
  const Dims k{3, 3}, p{1, 1}, f{4, 4};
  return {1, 32, Dims{32, 32},
          {conv(64, k, p, f), conv(64, k, p, f), pool(2), conv(128, k, p, f),
           conv(128, k, p, f)}};
}

/// Plain [C'][C][taps] weights and C' biases per conv layer (empty for
/// pools), He-normal like Sequential::randomize_weights.
struct NetWeights {
  std::vector<std::vector<float>> w, bias;
};

/// Input layout of every layer, then the output layout.
std::vector<ImageLayout> layer_layouts(const NetSpec& net, i64 batch) {
  std::vector<ImageLayout> v{ImageLayout(batch, net.channels, net.image)};
  for (const LayerSpec& l : net.layers) {
    const ImageLayout& in = v.back();
    Dims sp = in.spatial;
    if (l.pool > 0) {
      for (int d = 0; d < sp.rank(); ++d) sp[d] /= l.pool;
      v.emplace_back(batch, in.channels, sp);
    } else {
      for (int d = 0; d < sp.rank(); ++d) {
        sp[d] = sp[d] + 2 * l.padding[d] - l.kernel[d] + 1;
      }
      v.emplace_back(batch, l.out_channels, sp);
    }
  }
  return v;
}

NetWeights make_weights(const NetSpec& net, Rng& rng) {
  NetWeights nw;
  const std::vector<ImageLayout> ls = layer_layouts(net, 1);
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const LayerSpec& l = net.layers[i];
    std::vector<float> w, b;
    if (l.pool == 0) {
      const i64 c = ls[i].channels;
      const i64 taps = l.kernel.product();
      const float stddev = std::sqrt(2.0f / static_cast<float>(c * taps));
      w.resize(static_cast<std::size_t>(c * l.out_channels * taps));
      for (auto& x : w) x = rng.gaussian(0.0f, stddev);
      b.resize(static_cast<std::size_t>(l.out_channels));
      for (auto& x : b) x = rng.uniform(-0.1f, 0.1f);
    }
    nw.w.push_back(std::move(w));
    nw.bias.push_back(std::move(b));
  }
  return nw;
}

ConvShape conv_shape(const ImageLayout& in, const LayerSpec& l) {
  ConvShape s;
  s.batch = in.batch;
  s.in_channels = in.channels;
  s.out_channels = l.out_channels;
  s.image = in.spatial;
  s.kernel = l.kernel;
  s.padding = l.padding;
  return s;
}

std::unique_ptr<Sequential> build_sequential(const NetSpec& net,
                                             const NetWeights& nw, i64 batch,
                                             const PlanOptions& po) {
  auto seq = std::make_unique<Sequential>(batch, net.channels, net.image, po);
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const LayerSpec& l = net.layers[i];
    if (l.pool > 0) {
      seq->add_max_pool(l.pool);
    } else {
      const int idx = seq->add_conv(l.out_channels, l.kernel, l.padding,
                                    l.tile_m, /*relu=*/true);
      seq->set_conv_weights(idx, nw.w[i].data(), nw.bias[i].data());
    }
  }
  return seq;
}

/// The net's output for `input`, computed without the Winograd engine:
/// DirectConvBlocked, then the standalone blocked bias/ReLU/pool ops.
AlignedBuffer<float> reference_forward(const NetSpec& net, const NetWeights& nw,
                                       i64 batch, const float* input) {
  const std::vector<ImageLayout> ls = layer_layouts(net, batch);
  AlignedBuffer<float> cur(static_cast<std::size_t>(ls[0].total_floats()));
  std::memcpy(cur.data(), input, cur.size() * sizeof(float));
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const LayerSpec& l = net.layers[i];
    AlignedBuffer<float> next(static_cast<std::size_t>(ls[i + 1].total_floats()));
    if (l.pool > 0) {
      graph::max_pool_blocked(ls[i], l.pool, cur.data(), next.data());
    } else {
      const ConvShape s = conv_shape(ls[i], l);
      const KernelLayout kl(s.in_channels, s.out_channels, s.kernel);
      AlignedBuffer<float> wb(static_cast<std::size_t>(kl.total_floats()));
      pack_kernels(nw.w[i].data(), wb.data(), kl);
      DirectConvBlocked(s, 1).execute(cur.data(), wb.data(), next.data());
      graph::bias_blocked(ls[i + 1], nw.bias[i].data(), next.data(),
                          next.data());
      graph::relu_blocked(ls[i + 1], next.data(), next.data());
    }
    cur = std::move(next);
  }
  return cur;
}

/// Distinct conv problems of a net at `batch`, with multiplicities.
std::vector<std::pair<ConvProblem, int>> conv_problems(const NetSpec& net,
                                                       i64 batch) {
  const std::vector<ImageLayout> ls = layer_layouts(net, batch);
  std::vector<std::pair<ConvProblem, int>> out;
  std::map<std::string, std::size_t> index;  // wisdom_key → slot in `out`
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const LayerSpec& l = net.layers[i];
    if (l.pool > 0) continue;
    ConvProblem p;
    p.shape = conv_shape(ls[i], l);
    p.tile_m = l.tile_m;
    const auto [it, fresh] = index.emplace(wisdom_key(p), out.size());
    if (fresh) {
      out.emplace_back(p, 1);
    } else {
      ++out[it->second].second;
    }
  }
  return out;
}

// --------------------------------------------------------- conv probes ----

/// Per-stage totals of standalone FX-mode ConvPlans, summed over a net's
/// conv layers. Stage seconds come from ConvPlanStats' input, gemm,
/// scatter and inverse fields — never total(): after
/// execute_pretransformed() it still carries the kernel_transform time of
/// the last set_kernels().
struct ProbeTotals {
  double input = 0, gemm = 0, scatter = 0, inverse = 0, wall = 0;
  double gemm_flops = 0, bytes = 0;
  double bal_max[3] = {0, 0, 0}, bal_mean[3] = {0, 0, 0};
};

/// Samples `reps` executions of `plan` (run through `execute`, which may
/// go through a wrapper such as AutoConv) and adds `count` times the
/// stage times of the median-wall execution to `t`. Taking every field
/// from one execution keeps the stages within that execution's wall.
void sample_plan(const ConvPlan& plan, const std::function<void()>& execute,
                 int count, int reps, ProbeTotals& t) {
  execute();  // warm-up
  std::vector<std::pair<double, ConvPlanStats>> samples;
  for (int r = 0; r < reps; ++r) {
    Timer tm;
    execute();
    samples.emplace_back(tm.seconds(), plan.last_stats());
  }
  std::sort(samples.begin(), samples.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  const auto& [wall, s] = samples[(samples.size() - 1) / 2];
  const double c = count;
  t.wall += c * wall;
  t.input += c * s.input_transform;
  t.gemm += c * s.gemm;
  t.scatter += c * s.scatter_copy;
  t.inverse += c * s.inverse_transform;
  t.gemm_flops += c * 2.0 * static_cast<double>(plan.problem().winograd_macs());
  t.bytes += c * static_cast<double>(s.u_bytes + s.w_bytes + s.iout_bytes);
  const StageBalance* bal[3] = {&s.input_balance, &s.gemm_balance,
                                &s.inverse_balance};
  for (int k = 0; k < 3; ++k) {
    t.bal_max[k] += c * bal[k]->max_s;
    t.bal_mean[k] += c * bal[k]->mean_s;
  }
}

/// One standalone FX-mode ConvPlan per distinct conv problem of `net`.
ProbeTotals probe_net(const NetSpec& net, i64 batch, const PlanOptions& po,
                      int reps, Rng& rng) {
  ProbeTotals t;
  for (const auto& [p, count] : conv_problems(net, batch)) {
    ConvPlan plan(p, po);
    AlignedBuffer<float> w(static_cast<std::size_t>(p.kernel_layout().total_floats()));
    AlignedBuffer<float> in(static_cast<std::size_t>(p.input_layout().total_floats()));
    AlignedBuffer<float> out(static_cast<std::size_t>(p.output_layout().total_floats()));
    for (auto& x : w) x = rng.uniform(-0.1f, 0.1f);
    for (auto& x : in) x = rng.uniform(-1.0f, 1.0f);
    plan.set_kernels(w.data());
    sample_plan(
        plan, [&] { plan.execute_pretransformed(in.data(), out.data()); },
        count, reps, t);
  }
  return t;
}

/// Writes the conv.* and sched.imbalance_* metrics, and fails the run's
/// checks when the stages do not cover the wall time (parts add up).
void report_probes(const ProbeTotals& t, Run& run) {
  run.set("conv.input_ms", t.input * 1e3);
  run.set("conv.gemm_ms", t.gemm * 1e3);
  run.set("conv.inverse_ms", t.inverse * 1e3);
  run.set("conv.wall_ms", t.wall * 1e3);
  run.set("conv.gemm_gflops", t.gemm > 0 ? t.gemm_flops / t.gemm * 1e-9 : 0);
  run.set("conv.bytes_mb", t.bytes / (1024.0 * 1024.0));
  const double cover =
      t.wall > 0 ? (t.input + t.gemm + t.scatter + t.inverse) / t.wall : 0;
  run.set("conv.stage_cover", cover);
  if (cover < 0.9 || cover > 1.0) {
    run.fail_check("conv.stage_cover " + std::to_string(cover) +
                   " outside [0.9, 1.0]");
  }
  const char* names[3] = {"sched.imbalance_input", "sched.imbalance_gemm",
                          "sched.imbalance_inverse"};
  for (int k = 0; k < 3; ++k) {
    run.set(names[k], t.bal_mean[k] > 0 ? t.bal_max[k] / t.bal_mean[k] : 1.0);
  }
}

// -------------------------------------------------------------- traces ----

/// Which self-time group a span name belongs to (nullptr: not grouped).
/// Retroactive cross-thread spans (serve.queue_wait, rpc.request,
/// bench.request, ...) are deliberately ungrouped: they do not nest on
/// the thread that records them.
const char* span_group(const char* name) {
  const auto is = [name](const char* s) { return std::strcmp(name, s) == 0; };
  const auto starts = [name](const char* s) {
    return std::strncmp(name, s, std::strlen(s)) == 0;
  };
  if (is("bench.forward") || is("bench.pass")) return "bench";
  if (starts("graph.")) return "graph";
  if (is("conv.execute") || is("fftconv.execute")) return "conv";
  if (is("input_transform") || is("fuse.input") || is("fftconv.input")) {
    return "input";
  }
  if (is("gemm") || is("fuse.gemm") || is("fftconv.gemm") ||
      is("scatter_copy")) {
    return "gemm";
  }
  if (is("inverse_transform") || is("fuse.inverse") || is("fftconv.inverse")) {
    return "inverse";
  }
  if (is("pool.task")) return "pool";
  return nullptr;
}

/// Accumulates per-group self time (span minus the part of its interval
/// its children cover), in ms, from one collect() of the tracer.
void add_self_times(const std::vector<obs::CollectedSpan>& spans,
                    std::map<std::string, double>& group_ms) {
  struct Item {
    const char* group;
    u64 start, end;
    int tid;
  };
  std::vector<Item> items;
  for (const obs::CollectedSpan& s : spans) {
    if (const char* g = span_group(s.name)) {
      items.push_back({g, s.start_ns, s.start_ns + s.dur_ns, s.tid});
    }
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start != b.start) return a.start < b.start;
    return a.end > b.end;  // a parent sorts before a child starting with it
  });
  struct Open {
    const Item* item;
    u64 covered_until;
    u64 child_ns;
  };
  std::vector<Open> stack;
  const auto close = [&group_ms](const Open& o) {
    const double dur = static_cast<double>(o.item->end - o.item->start);
    group_ms[o.item->group] += (dur - static_cast<double>(o.child_ns)) * 1e-6;
  };
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& it = items[i];
    if (i > 0 && items[i - 1].tid != it.tid) {
      for (const Open& o : stack) close(o);
      stack.clear();
    }
    // Pop every open span this one is not nested in.
    while (!stack.empty() && !(it.start >= stack.back().item->start &&
                               it.end <= stack.back().item->end)) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) {
      Open& parent = stack.back();
      const u64 from = std::max(it.start, parent.covered_until);
      if (it.end > from) parent.child_ns += it.end - from;
      parent.covered_until = std::max(parent.covered_until, it.end);
    }
    stack.push_back({&it, it.start, 0});
  }
  for (const Open& o : stack) close(o);
}

/// Tracing state of a traced run: chunks alternate tracing off and on,
/// every traced chunk is collected and cleared (so no ring wraps), and
/// the per-sample latency of both kinds of chunk gives the overhead.
struct TraceLog {
  std::map<std::string, double> group_ms;
  u64 spans = 0;
  u64 lost = 0;
  long traced_samples = 0;
  std::vector<double> on_ms, off_ms;

  void harvest() {
    obs::Tracer& tr = obs::Tracer::instance();
    const std::vector<obs::CollectedSpan> spans_now = tr.collect();
    lost += tr.dropped();
    spans += spans_now.size();
    add_self_times(spans_now, group_ms);
    tr.clear();
  }

  void report(Run& run) const {
    const double n = std::max<long>(1, traced_samples);
    for (const char* g :
         {"bench", "graph", "conv", "input", "gemm", "inverse", "pool"}) {
      const auto it = group_ms.find(g);
      run.set(std::string("self.") + g + "_ms",
              it == group_ms.end() ? 0.0 : it->second / n);
    }
    run.set("obs.spans", static_cast<double>(spans));
    run.set("obs.spans_lost", static_cast<double>(lost));
    const double off = quantile(off_ms, 0.5), on = quantile(on_ms, 0.5);
    run.set("obs.trace_overhead_pct", off > 0 ? (on / off - 1.0) * 100.0 : 0);
    if (lost > 0) run.fail_check("trace ring lost spans");
  }
};

/// Trace chunk schedule: 0.5 s chunks, odd ones traced.
bool traced_chunk(double elapsed_s) {
  return static_cast<long>(elapsed_s / 0.5) % 2 == 1;
}

// ------------------------------------------------------------- helpers ----

/// Median over `reps` set-ups (one with --quick); the last set-up's state
/// is what the run measures. Later set-ups reuse the workspace slabs the
/// earlier ones returned to the pool, so the median is the library's own
/// set-up work rather than the first-touch page faults of fresh memory.
template <typename Fn>
double median_setup(const Args& a, int reps, Fn&& setup) {
  std::vector<double> s;
  for (int r = 0; r < (a.quick ? 1 : reps); ++r) {
    Timer t;
    setup();
    s.push_back(t.seconds());
  }
  std::fprintf(stderr, "set-ups:");
  for (double x : s) std::fprintf(stderr, " %.4f", x);
  std::fprintf(stderr, " s\n");
  return quantile(s, 0.5);
}

void report_latency(Run& run, const std::vector<double>& ms) {
  run.set_median("latency_ms_p50", ms);
  run.set("latency_ms_p95", quantile(ms, 0.95));
  run.repetitions = static_cast<long>(ms.size());
  // Higher percentiles are printed with their sample counts, ungated.
  std::fprintf(stderr, "latency over %zu samples: p90 %.4f ms, p99 %.4f ms\n",
               ms.size(), quantile(ms, 0.90), quantile(ms, 0.99));
}

int probe_reps(const Args& a) { return a.quick ? 3 : 7; }

/// Loads the machine profile the cost model predicts with, timing the
/// one-time calibration microbenchmark.
const select::MachineProfile& calibrated_profile(Run& run) {
  Timer t;
  const select::MachineProfile& prof = select::measured_machine_profile();
  run.set("select.calibration_s", t.seconds());
  return prof;
}

// ------------------------------------------------------- offline nets ----

void run_offline(const Args& a, const NetSpec& net, int threads, Run& run) {
  Rng wrng = stream(a.seed, kWeightStream), irng = stream(a.seed, kInputStream);
  const NetWeights nw = make_weights(net, wrng);
  const auto inputs = make_inputs(ImageLayout(net.batch, net.channels, net.image),
                                  kInputs, irng);
  std::vector<AlignedBuffer<float>> refs;
  for (const auto& in : inputs) {
    refs.push_back(reference_forward(net, nw, net.batch, in.data()));
  }
  AlignedBuffer<float> out(refs[0].size());

  PlanOptions po;
  po.threads = threads;
  graph::CompileOptions co;
  co.plan = po;
  std::unique_ptr<graph::Executor> exec;

  // Set-up: generated weights → Sequential → to_graph() → compiled
  // executor → first output, checked. The Sequential only builds and
  // lowers the net, so its own plans are one-thread (no pool workers to
  // spawn and join), and it is dropped before the executor compiles.
  PlanOptions builder = po;
  builder.threads = 1;
  const double setup_s = median_setup(a, 5, [&] {
    exec.reset();
    graph::Graph g = build_sequential(net, nw, net.batch, builder)->to_graph();
    exec = std::make_unique<graph::Executor>(std::move(g), co);
    exec->execute(inputs[0].data(), out.data());
    run.check_output(out.data(), out.size(), refs[0], "first forward");
  });

  const select::MachineProfile* prof =
      a.trace ? &calibrated_profile(run) : nullptr;
  TraceLog log;
  std::vector<double> fwd_ms, unattributed_ms;
  std::vector<std::vector<double>> step_ms(exec->step_count());
  const double cpu0 = cpu_seconds();
  Timer loop;
  for (long i = 0; loop.seconds() < a.seconds || i == 0; ++i) {
    const bool traced = a.trace && traced_chunk(loop.seconds());
    if (traced != obs::trace_enabled()) {
      if (!traced) log.harvest();
      obs::Tracer::instance().set_enabled(traced);
    }
    const std::size_t k = static_cast<std::size_t>(i) % kInputs;
    double ms;
    {
      ONDWIN_TRACE_SPAN("bench.forward");
      Timer t;
      exec->execute(inputs[k].data(), out.data());
      ms = t.millis();
    }
    run.check_output(out.data(), out.size(), refs[k], "forward");
    if (traced) {
      log.on_ms.push_back(ms);
      ++log.traced_samples;
      continue;
    }
    log.off_ms.push_back(ms);
    fwd_ms.push_back(ms);
    double steps_ms = 0;
    for (std::size_t s = 0; s < exec->step_count(); ++s) {
      const double sm = exec->step_seconds(s) * 1e3;
      step_ms[s].push_back(sm);
      steps_ms += sm;
    }
    // graph.unattributed_ms: forward wall minus the time its steps cover.
    if (ms < steps_ms) run.fail_check("forward wall below its steps' sum");
    unattributed_ms.push_back(ms - steps_ms);
  }
  const double cpu_s = cpu_seconds() - cpu0;
  if (obs::trace_enabled()) {
    obs::Tracer::instance().set_enabled(false);
    log.harvest();
  }

  const double fwd_total_s =
      std::accumulate(fwd_ms.begin(), fwd_ms.end(), 0.0) * 1e-3;
  run.set("samples_per_s",
          static_cast<double>(fwd_ms.size() * net.batch) / fwd_total_s);
  report_latency(run, fwd_ms);
  run.set("setup_s", setup_s);
  if (!a.trace) return;

  // Per-layer: graph steps, the cost model next to them, conv probes.
  const auto& steps = exec->fusion().steps;
  double pred = 0, meas_conv = 0, meas_other = 0;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const double med = quantile(step_ms[s], 0.5);
    if (steps[s].kind == graph::OpKind::kConv) {
      const graph::Node& n =
          exec->graph().nodes()[static_cast<std::size_t>(steps[s].node)];
      pred += select::estimate_winograd(n.problem.shape, n.problem.tile_m, prof)
                  .seconds;
      meas_conv += med;
    } else {
      meas_other += med;
    }
  }
  run.set("graph.conv_ms", meas_conv);
  run.set("graph.other_ms", meas_other);
  run.set("graph.unattributed_ms", quantile(unattributed_ms, 0.5));
  run.set("graph.arena_mb",
          static_cast<double>(exec->arena_bytes()) / (1024.0 * 1024.0));
  run.set("graph.pred_over_meas", meas_conv > 0 ? pred * 1e3 / meas_conv : 0);
  run.set("sched.cpu_s_per_sample",
          cpu_s / static_cast<double>((fwd_ms.size() + log.on_ms.size()) *
                                      net.batch));
  run.set("sched.process_threads", process_threads());
  log.report(run);

  // Probes run after the executor is gone: its plans' pool workers spin
  // between forwards and would compete with the probe for the cores.
  exec.reset();
  Rng prng = stream(a.seed, kProbeStream);
  report_probes(probe_net(net, net.batch, po, probe_reps(a), prng), run);
}

// --------------------------------------------------------- select_cold ----

struct SelectLayer {
  const char* name;
  ConvShape shape;
};

ConvShape shape_of(i64 b, i64 c, i64 cp, Dims image, Dims pad, Dims kernel) {
  ConvShape s;
  s.batch = b;
  s.in_channels = c;
  s.out_channels = cp;
  s.image = image;
  s.padding = pad;
  s.kernel = kernel;
  return s;
}

// CI-scaled Tbl. 2 layers (bench/layers.h) plus the 11x11 LargeK layer
// of bench_select_crossover, where FFT wins.
std::vector<SelectLayer> select_layers() {
  return {
      {"VGG1.2", shape_of(2, 64, 64, {56, 56}, {1, 1}, {3, 3})},
      {"VGG3.2", shape_of(2, 256, 256, {14, 14}, {1, 1}, {3, 3})},
      {"C3D.C2a", shape_of(1, 64, 128, {8, 14, 14}, {1, 1, 1}, {3, 3, 3})},
      {"3DUNet1.2", shape_of(1, 32, 64, {18, 22, 22}, {0, 0, 0}, {3, 3, 3})},
      {"LargeK11", shape_of(4, 32, 32, {40, 40}, {5, 5}, {11, 11})},
  };
}

/// The cost model's prediction for the configuration the planner chose.
double predicted_seconds(const ConvShape& shape,
                         const select::SelectedConfig& cfg,
                         const select::SelectOptions& opts) {
  for (const select::Candidate& c : select::enumerate_candidates(shape, opts)) {
    if (c.algorithm == cfg.algorithm &&
        (c.algorithm != select::Algorithm::kWinograd || c.tile_m == cfg.tile_m)) {
      return c.est.seconds;
    }
  }
  return 0;
}

void run_select(const Args& a, const std::string& tmp, Run& run) {
  const std::vector<SelectLayer> layers = select_layers();
  const std::size_t nl = layers.size();
  Rng wrng = stream(a.seed, kWeightStream), irng = stream(a.seed, kInputStream);
  std::vector<AlignedBuffer<float>> weights, outs;
  std::vector<std::vector<AlignedBuffer<float>>> inputs, refs;
  for (const SelectLayer& l : layers) {
    const ConvShape& s = l.shape;
    const KernelLayout kl(s.in_channels, s.out_channels, s.kernel);
    AlignedBuffer<float> w(static_cast<std::size_t>(kl.total_floats()));
    const float stddev = std::sqrt(
        2.0f / static_cast<float>(s.in_channels * s.kernel.product()));
    for (auto& x : w) x = wrng.gaussian(0.0f, stddev);
    inputs.push_back(make_inputs(ImageLayout(s.batch, s.in_channels, s.image),
                                 kInputs, irng));
    std::vector<AlignedBuffer<float>> r;
    for (const auto& in : inputs.back()) {
      AlignedBuffer<float> o(static_cast<std::size_t>(
          ImageLayout(s.batch, s.out_channels, s.output()).total_floats()));
      DirectConvBlocked(s, 1).execute(in.data(), w.data(), o.data());
      r.push_back(std::move(o));
    }
    outs.emplace_back(r[0].size());
    refs.push_back(std::move(r));
    weights.push_back(std::move(w));
  }

  select::SelectOptions opts;
  opts.plan.threads = 1;
  // The planner's measurement budget bounds cold planning; 0.4 s per layer
  // keeps three cold set-ups of five layers inside one run.
  opts.budget_seconds = a.quick ? 0.05 : 0.4;
  std::vector<std::unique_ptr<select::AutoConv>> execs(nl);

  // Plans every layer into `execs`; returns the seconds spent in plan_auto.
  const auto plan_all = [&](const char* what) {
    double total = 0;
    for (std::size_t i = 0; i < nl; ++i) {
      Timer t;
      {
        ONDWIN_TRACE_SPAN("bench.plan_auto");
        execs[i] = select::plan_auto(layers[i].shape, opts);
      }
      total += t.seconds();
      execs[i]->set_kernels(weights[i].data());
      execs[i]->execute_pretransformed(inputs[i][0].data(), outs[i].data());
      run.check_output(outs[i].data(), outs[i].size(), refs[i][0], what);
    }
    return total;
  };
  const auto count = [&](auto pred) {
    double n = 0;
    for (const auto& e : execs) n += pred(e->config());
    return n;
  };

  // Set-up: cold selection on a fresh wisdom file, through to each chosen
  // executor's first checked output.
  TraceLog log;
  if (a.trace) {
    calibrated_profile(run);
    obs::Tracer::instance().set_enabled(true);
  }
  int cold = 0;
  double plan_s = 0, measured = 0;
  const double setup_s = median_setup(a, 3, [&] {
    opts.plan.wisdom_path = tmp + "/wisdom" + std::to_string(cold++) + ".txt";
    plan_s = plan_all("cold plan_auto");
    measured = count([](const select::SelectedConfig& c) { return c.measured; });
  });
  if (a.trace) {
    obs::Tracer::instance().set_enabled(false);
    log.harvest();
    log.group_ms.clear();  // planner spans are not per-pass self time
  }

  // Warm re-plan from the wisdom file the last cold set-up wrote: the
  // executors a restarted process gets. The timed passes run these.
  const double warm_s = plan_all("warm plan_auto");

  std::vector<double> pass_ms;
  std::vector<std::vector<double>> layer_ms(nl);
  const double cpu0 = cpu_seconds();
  Timer loop;
  for (long i = 0; loop.seconds() < a.seconds || i == 0; ++i) {
    const bool traced = a.trace && traced_chunk(loop.seconds());
    if (traced != obs::trace_enabled()) {
      if (!traced) log.harvest();
      obs::Tracer::instance().set_enabled(traced);
    }
    // One pass runs every layer on every generated input (about 30 ms),
    // so a short stall of the host moves one sample less.
    double total = 0;
    for (std::size_t k = 0; k < kInputs; ++k) {
      ONDWIN_TRACE_SPAN("bench.pass");
      for (std::size_t l = 0; l < nl; ++l) {
        Timer t;
        execs[l]->execute_pretransformed(inputs[l][k].data(), outs[l].data());
        const double ms = t.millis();
        total += ms;
        if (!traced) layer_ms[l].push_back(ms);
        run.check_output(outs[l].data(), outs[l].size(), refs[l][k], "pass");
      }
    }
    if (traced) {
      log.on_ms.push_back(total);
      ++log.traced_samples;
    } else {
      log.off_ms.push_back(total);
      pass_ms.push_back(total);
    }
  }
  const double cpu_s = cpu_seconds() - cpu0;
  if (obs::trace_enabled()) {
    obs::Tracer::instance().set_enabled(false);
    log.harvest();
  }

  run.set("samples_per_s",
          1e3 * static_cast<double>(pass_ms.size()) /
              std::accumulate(pass_ms.begin(), pass_ms.end(), 0.0));
  report_latency(run, pass_ms);
  run.set("setup_s", setup_s);
  double exec_ms = 0;
  for (std::size_t l = 0; l < nl; ++l) {
    const select::SelectedConfig& c = execs[l]->config();
    const double med = quantile(layer_ms[l], 0.5);
    exec_ms += med;
    std::fprintf(stderr, "%-10s %-8s m%-9s blocking %d/%d/%d/%d  %.4f ms\n",
                 layers[l].name, select::algorithm_name(c.algorithm),
                 c.tile_m.to_string().c_str(), c.blocking.n_blk,
                 c.blocking.c_blk, c.blocking.cp_blk, c.blocking.f_blk, med);
  }
  if (!a.trace) return;

  double pred = 0;
  for (std::size_t l = 0; l < nl; ++l) {
    pred += predicted_seconds(layers[l].shape, execs[l]->config(), opts);
  }
  run.set("select.plan_s", plan_s);
  run.set("select.warm_plan_s", warm_s);
  run.set("select.wisdom_hits",
          count([](const select::SelectedConfig& c) { return c.from_wisdom; }));
  run.set("select.measured", measured);
  run.set("select.fft_layers", count([](const select::SelectedConfig& c) {
            return c.algorithm == select::Algorithm::kFft;
          }));
  run.set("select.exec_ms", exec_ms);
  run.set("select.pred_over_meas", exec_ms > 0 ? pred * 1e3 / exec_ms : 0);
  run.set("sched.cpu_s_per_sample",
          cpu_s / static_cast<double>(pass_ms.size() + log.on_ms.size()));
  run.set("sched.process_threads", process_threads());
  log.report(run);

  // Stage breakdown of the Winograd-backed choices, on the executors
  // themselves.
  ProbeTotals pt;
  for (std::size_t l = 0; l < nl; ++l) {
    if (ConvPlan* plan = execs[l]->winograd_plan()) {
      sample_plan(
          *plan,
          [&] {
            execs[l]->execute_pretransformed(inputs[l][0].data(),
                                             outs[l].data());
          },
          1, probe_reps(a), pt);
    }
  }
  report_probes(pt, run);
}

// ----------------------------------------------------------- rpc tiers ----

constexpr int kMaxBatch = 8;
// Generous on purpose: these workloads measure latency below saturation,
// and no request should be shed or expire on a healthy build. Responses
// slower than kLateMs are reported as rpc.late_share.
constexpr double kDeadlineMs = 1000.0;
constexpr double kLateMs = 50.0;

/// An InferenceServer behind an RpcServer on a unix socket, and a client
/// with two pooled connections. Tears down client → rpc → server.
struct RpcStack {
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<rpc::RpcServer> rpc;
  std::unique_ptr<rpc::RpcClient> client;

  RpcStack() = default;
  RpcStack(const RpcStack&) = delete;
  RpcStack& operator=(const RpcStack&) = delete;
  ~RpcStack() {
    client.reset();
    if (rpc) rpc->stop();
    rpc.reset();
    if (server) server->stop();
  }
};

/// Arrival schedule of an open-loop run: due times in seconds from the
/// start and the generated input each request carries.
struct Arrivals {
  std::vector<double> due_s;
  std::vector<std::size_t> input;
};

/// Independent users: Poisson arrivals at `rate` per second, conditioned
/// on their count (rate × seconds uniform arrival times), so every seed
/// offers the same load.
Arrivals poisson_arrivals(double rate, double seconds, Rng& rng) {
  Arrivals arr;
  const std::size_t n = static_cast<std::size_t>(std::lround(rate * seconds));
  for (std::size_t i = 0; i < n; ++i) {
    arr.due_s.push_back(seconds * rng.next_double());
  }
  std::sort(arr.due_s.begin(), arr.due_s.end());
  for (std::size_t i = 0; i < n; ++i) {
    arr.input.push_back(rng.uniform_index(kInputs));
  }
  return arr;
}

/// Fan-out callers: bursts of `size` simultaneous requests, one burst per
/// `period` seconds, each burst's start jittered by up to a quarter period.
Arrivals burst_arrivals(int size, double period, double seconds, Rng& rng) {
  Arrivals arr;
  for (double start = 0; start < seconds; start += period) {
    const double t = start + 0.25 * period * rng.next_double();
    if (t >= seconds) break;
    for (int j = 0; j < size; ++j) {
      arr.due_s.push_back(t);
      arr.input.push_back(rng.uniform_index(kInputs));
    }
  }
  return arr;
}

/// One request of the open-loop schedule, from send to response.
struct Pending {
  std::size_t input = 0;
  bool traced = false;
  obs::TraceContext ctx;
  Clock::time_point due, sent;
  std::future<rpc::RpcResponse> response;
};

struct Outcome {
  double error = INFINITY;
  bool ok = false;
  bool traced = false;
  double latency_ms = 0, wire_ms = 0, lag_ms = 0;
  double queue_ms = 0, exec_ms = 0;
  int batch = 0;
  u32 status = rpc::kOk;
};

void run_rpc(const Args& a,
             const std::function<Arrivals(double, Rng&)>& arrivals,
             const std::string& tmp, Run& run) {
  const NetSpec net = rpc_net();
  Rng wrng = stream(a.seed, kWeightStream), irng = stream(a.seed, kInputStream);
  const NetWeights nw = make_weights(net, wrng);
  const auto inputs =
      make_inputs(ImageLayout(1, net.channels, net.image), kInputs, irng);
  std::vector<AlignedBuffer<float>> refs;
  for (const auto& in : inputs) {
    refs.push_back(reference_forward(net, nw, 1, in.data()));
  }
  const std::size_t sin = inputs[0].size();

  Rng srng = stream(a.seed, kScheduleStream);
  const Arrivals arr = arrivals(a.seconds, srng);
  const std::vector<double>& due_s = arr.due_s;

  serve::ModelConfig mc;
  mc.plan.threads = 1;
  mc.batching.max_batch = kMaxBatch;
  mc.batching.max_delay_ms = 2.0;
  const std::string sock = tmp + "/rpc.sock";
  std::unique_ptr<RpcStack> stack;

  // Relative error of a response against its input's reference.
  const auto error_of = [&](const rpc::RpcResponse& r, std::size_t k) {
    return r.ok() && r.output.size() == refs[k].size()
               ? rel_error(r.output.data(), refs[k].data(), refs[k].size())
               : INFINITY;
  };

  // Set-up: generated weights → served net → socket → every batch bucket
  // built by bursts of 1..max_batch concurrent requests, all checked.
  const double setup_s = median_setup(a, 5, [&] {
    stack.reset();
    stack = std::make_unique<RpcStack>();
    stack->server = std::make_unique<serve::InferenceServer>();
    stack->server->register_network(
        "net", std::shared_ptr<const Sequential>(build_sequential(net, nw, 1, mc.plan)),
        mc);
    rpc::RpcServerOptions so;
    so.unix_path = sock;
    so.admission.slo_ms = kDeadlineMs;
    stack->rpc = std::make_unique<rpc::RpcServer>(*stack->server, so);
    stack->rpc->start();
    rpc::RpcClientOptions co;
    co.unix_path = sock;
    co.connections = 2;
    stack->client = std::make_unique<rpc::RpcClient>(co);
    for (int round = 0; round < 2; ++round) {
      for (std::size_t b = 1; b <= static_cast<std::size_t>(kMaxBatch); ++b) {
        std::vector<std::future<rpc::RpcResponse>> burst;
        for (std::size_t j = 0; j < b; ++j) {
          burst.push_back(stack->client->submit(
              "net", inputs[j % kInputs].data(), sin, kDeadlineMs));
        }
        for (std::size_t j = 0; j < b; ++j) {
          run.count_output(error_of(burst[j].get(), j % kInputs),
                           "warm-up request");
        }
      }
    }
  });
  if (a.trace) calibrated_profile(run);

  // Open loop: one sender paces the schedule, one collector takes the
  // responses in send order.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool sending = true;
  std::vector<Outcome> outcomes;
  outcomes.reserve(due_s.size());
  Clock::time_point last_done;  // written by the collector only

  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || !sending; });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      const rpc::RpcResponse r = p.response.get();
      const Clock::time_point done = Clock::now();
      last_done = done;
      Outcome o;
      o.error = error_of(r, p.input);
      o.ok = o.error <= kTolerance;
      o.traced = p.traced;
      o.status = r.status;
      o.latency_ms = ms_between(p.due, done);
      o.lag_ms = ms_between(p.due, p.sent);
      o.queue_ms = r.queue_ms;
      o.exec_ms = r.exec_ms;
      o.batch = r.batch_size;
      o.wire_ms = ms_between(p.sent, done) - r.queue_ms - r.exec_ms;
      if (p.traced) {
        obs::record_span("bench.request", ns_of(p.due), ns_of(done) - ns_of(p.due),
                         {p.ctx.trace_id, 0}, p.ctx.span_id);
      }
      outcomes.push_back(o);
    }
  });

  TraceLog log;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::thread sender([&] {
    for (std::size_t i = 0; i < due_s.size(); ++i) {
      Pending p;
      p.input = arr.input[i];
      p.due = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
      std::this_thread::sleep_until(p.due);
      p.traced = obs::trace_enabled();
      std::optional<obs::TraceContextScope> scope;
      if (p.traced) {
        // Roots the request's trace, so server spans chain under it.
        p.ctx = {obs::new_trace_id(), obs::new_span_id()};
        scope.emplace(p.ctx);
      }
      p.sent = Clock::now();
      p.response = stack->client->submit("net", inputs[p.input].data(), sin,
                                         kDeadlineMs);
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(p));
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    sending = false;
    cv.notify_one();
  });

  // Traced runs alternate tracing by chunk while traffic flows; a chunk's
  // spans are harvested once tracing is off and in-flight batches are done.
  if (a.trace) {
    for (double t = 0.5; t < a.seconds; t += 0.5) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(t)));
      const bool traced = traced_chunk(t);
      obs::Tracer::instance().set_enabled(traced);
      if (!traced) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        log.harvest();
      }
    }
  }
  sender.join();
  collector.join();
  if (obs::trace_enabled()) {
    obs::Tracer::instance().set_enabled(false);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    log.harvest();
  }
  const double cpu_s = cpu_seconds() - cpu0;
  if (outcomes.empty()) throw Error("the schedule sent no requests");

  std::vector<double> lat_ms, wire_ms, lag_ms, queue_ms, exec_ms;
  double ok = 0, shed = 0, late = 0, inv_batch = 0;
  for (const Outcome& o : outcomes) {
    run.count_output(o.error, o.status == rpc::kOk
                                  ? "request"
                                  : rpc::status_name(o.status));
    lag_ms.push_back(o.lag_ms);
    if (rpc::status_is_shed(o.status)) ++shed;
    if (!o.ok) continue;
    ++ok;
    // rpc.wire_ms: client time not spent queued or executing server-side.
    if (o.wire_ms < 0) run.fail_check("negative wire time");
    if (o.latency_ms > kLateMs) ++late;
    inv_batch += 1.0 / std::max(1, o.batch);
    if (o.traced) {
      log.on_ms.push_back(o.latency_ms);
      ++log.traced_samples;
    } else {
      log.off_ms.push_back(o.latency_ms);
    }
    if (a.trace && o.traced) continue;
    lat_ms.push_back(o.latency_ms);
    wire_ms.push_back(o.wire_ms);
    queue_ms.push_back(o.queue_ms);
    exec_ms.push_back(o.exec_ms);
  }

  // Completed requests per second of wall time, schedule start to the
  // last response.
  run.set("samples_per_s", ok * 1e3 / ms_between(t0, last_done));
  report_latency(run, lat_ms);
  run.set("setup_s", setup_s);
  if (!a.trace) return;

  const double n = std::max<double>(1, static_cast<double>(outcomes.size()));
  const double mean_batch = inv_batch > 0 ? ok / inv_batch : 0;
  run.set("rpc.wire_ms_p50", quantile(wire_ms, 0.5));
  run.set("rpc.gen_lag_ms_p99", quantile(lag_ms, 0.99));
  run.set("rpc.late_share", late / n);
  run.set("rpc.shed_share", shed / n);
  run.set("rpc.transport_errors",
          static_cast<double>(stack->client->stats().transport_errors));
  run.set("serve.queue_ms_p50", quantile(queue_ms, 0.5));
  run.set("serve.queue_ms_p95", quantile(queue_ms, 0.95));
  run.set("serve.exec_ms_p50", quantile(exec_ms, 0.5));
  run.set("serve.mean_batch", mean_batch);
  run.set("serve.pool_hit_rate",
          stack->server->stats().models.at("net").pool.hit_rate());
  run.set("sched.cpu_s_per_sample", cpu_s / n);
  run.set("sched.process_threads", process_threads());
  log.report(run);

  // The served net's convolutions at the replica bucket the mean batch
  // lands in, with the serving stack torn down first.
  stack.reset();
  i64 bucket = 1;
  while (bucket < kMaxBatch && static_cast<double>(bucket) < mean_batch) {
    bucket *= 2;
  }
  Rng prng = stream(a.seed, kProbeStream);
  report_probes(probe_net(net, bucket, mc.plan, probe_reps(a), prng), run);
}

// -------------------------------------------------------------- output ----

bench::HostFingerprint host_fingerprint() {
  bench::HostFingerprint h;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      h.cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  }
  h.nproc = hardware_threads();
  h.isa = cpu_feature_string();
  h.l2_bytes = l2_cache_bytes();
  h.llc_bytes = llc_cache_bytes();
  return h;
}

void write_report(const Args& a, const Run& run, const MetricDef* defs,
                  std::size_t ndefs) {
  bench::BenchReportV2 report("e2e");
  report.set_host(host_fingerprint());
  report.set_run(a.git_sha, a.seed, a.workload, run.repetitions);
  const select::MachineProfile& prof = select::measured_machine_profile();
  report.set_calibration({prof.stream_gbps, prof.llc_bytes, prof.gemm_gflops});
  for (std::size_t i = 0; i < ndefs; ++i) {
    const auto s = run.samples.find(defs[i].name);
    report.metric(defs[i].name, defs[i].unit,
                  s != run.samples.end()
                      ? s->second
                      : std::vector<double>{run.value.at(defs[i].name)});
  }
  report.row()
      .set("workload", a.workload)
      .set("trace", a.trace)
      .set("attempted", static_cast<double>(run.attempted))
      .set("failed", static_cast<double>(run.failed));
  if (!report.write_json(a.json_path)) {
    std::fprintf(stderr, "cannot write %s\n", a.json_path.c_str());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload "
               "<vgg2d_offline|unet3d_2t|select_cold|rpc_light|rpc_burst> "
               "[--seed N] [--seconds S] [--trace 0|1] [--json PATH] "
               "[--git-sha SHA] [--quick]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has = i + 1 < argc;
    if (k == "--quick") {
      a.quick = true;
      a.seconds = 1;
    } else if (k == "--workload" && has) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has) {
      a.seconds = std::atof(argv[++i]);
    } else if (k == "--trace" && has) {
      a.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (k == "--json" && has) {
      a.json_path = argv[++i];
    } else if (k == "--git-sha" && has) {
      a.git_sha = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(a.seconds > 0) || a.seconds > 120) return usage();

  // Scratch files (wisdom, the rpc socket) live under the working
  // directory and are removed on exit.
  const std::string tmp = ".bench_tmp/" + std::to_string(::getpid());
  std::filesystem::create_directories(tmp);

  Run run;
  for (const MetricDef& m : kEndToEnd) run.value[m.name] = 0;
  for (const MetricDef& m : kPerLayer) run.value[m.name] = 0;
  int status = 0;
  try {
    if (a.workload == "vgg2d_offline") {
      run_offline(a, vgg2d_net(), 1, run);
    } else if (a.workload == "unet3d_2t") {
      run_offline(a, unet3d_net(), 2, run);
    } else if (a.workload == "select_cold") {
      run_select(a, tmp, run);
    } else if (a.workload == "rpc_light") {
      run_rpc(
          a, [](double s, Rng& r) { return poisson_arrivals(100.0, s, r); },
          tmp, run);
    } else if (a.workload == "rpc_burst") {
      // 8 requests every 40 ms: full batches at ~55% of the engine's time.
      run_rpc(
          a,
          [](double s, Rng& r) { return burst_arrivals(kMaxBatch, 0.04, s, r); },
          tmp, run);
    } else {
      status = usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    status = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(tmp, ec);
  std::filesystem::remove(".bench_tmp", ec);  // only when empty
  if (status != 0) return status;

  run.set("peak_rss_mb", peak_rss_mb());
  const MetricDef* defs = a.trace ? kPerLayer : kEndToEnd;
  const std::size_t ndefs = a.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (std::size_t i = 0; i < ndefs; ++i) {
    if (!std::isfinite(run.value.at(defs[i].name))) {
      run.fail_check(std::string(defs[i].name) + " is not finite");
    }
  }
  for (const std::string& why : run.check_failures) {
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }
  std::fprintf(stderr, "%s: %ld outputs checked, %ld wrong, max relative "
               "error %.3g (tolerance %g)\n", a.workload.c_str(),
               run.attempted, run.failed, run.max_error, kTolerance);
  const bool correct = run.failed == 0 && run.check_failures.empty() &&
                       run.attempted > 0;
  std::string metrics;
  for (std::size_t i = 0; i < ndefs; ++i) {
    const double v = run.value.at(defs[i].name);
    std::printf("%s %s %s %s\n", a.workload.c_str(), defs[i].name,
                bench::json_number(v).c_str(), defs[i].unit);
    if (i) metrics += ",";
    metrics += std::string("\"") + defs[i].name + "\":{\"value\":" +
               (std::isfinite(v) ? bench::json_number(v) : "0") +
               ",\"unit\":\"" + defs[i].unit + "\"}";
  }
  if (!a.json_path.empty()) write_report(a, run, defs, ndefs);
  std::printf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false", run.attempted, run.failed,
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
