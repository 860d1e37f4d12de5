#include "graph/executor.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <sstream>

#include "graph/ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cpu.h"
#include "util/timer.h"

namespace ondwin::graph {

namespace {

// Live-executor registry backing the static attribution_report(): an
// executor is visible from construction to destruction, and the report
// holds the mutex while reading, so a concurrently-scraping /statusz
// never sees a dying executor.
std::mutex& executors_mu() {
  static std::mutex mu;
  return mu;
}

std::vector<Executor*>& live_executors() {
  static std::vector<Executor*> v;
  return v;
}

}  // namespace

/// Per-step attribution state. Wall times are written by the (single)
/// executing thread and read by scrape threads, hence the atomic-double
/// Gauges; the registry-owned instruments are shared by every executor
/// of the same network (same node label → same identity).
struct Executor::StepAttr {
  std::string label;           // "conv#3"
  const char* op = "";         // static op_name() string
  const char* span_name = "";  // interned "graph.conv#3"
  double sample_flops = 0;     // per sample (model-derived)
  double sample_bytes = 0;     // per sample: in + out
  double weight_bytes = 0;     // per execution, whatever its batch
  std::atomic<i64> last_n{0};  // samples of the last execution
  std::atomic<u64> executions{0};
  obs::Gauge last_ms;
  obs::Gauge total_ms;
  obs::Histogram* seconds = nullptr;
  obs::Gauge* gflops = nullptr;
  obs::Counter* bytes_total = nullptr;
};

Executor::Executor(Graph graph, const CompileOptions& options)
    : graph_(std::move(graph)), options_(options) {
  graph_.output();  // requires a marked output
  // ONDWIN_PREC flips the storage precision of every conv step at once —
  // applied here (not inside ConvPlan) so the per-step plans and the
  // metrics all agree on one precision.
  precision_env_override(&options_.plan.precision);
  fusion_ = fuse(graph_, options_.fusion);
  memory_ = plan_memory(graph_, fusion_);

  // The whole net's activation slab, checked out once and first-touched
  // (zeroed) at compile time — steady-state execution allocates nothing.
  if (memory_.slab_bytes > 0) {
    mem::WorkspacePool& pool =
        options_.pool != nullptr ? *options_.pool : mem::WorkspacePool::global();
    arena_ = mem::Workspace::from_pool(
        pool, static_cast<std::size_t>(memory_.slab_bytes) / sizeof(float),
        /*zero=*/true);
  }

  // One team of threads for the whole net (paper §4.5): steps run one
  // after another, so every conv step forks and joins the same workers.
  pool_ = std::make_shared<ThreadPool>(options_.plan.threads > 0
                                           ? options_.plan.threads
                                           : hardware_threads());

  for (const Step& st : fusion_.steps) {
    ExecStep es;
    es.step = st;
    es.in_layout = graph_.layout(st.in0);
    if (st.kind == OpKind::kConv) {
      const Node& n = graph_.nodes()[static_cast<std::size_t>(st.node)];
      es.conv = std::make_unique<select::AutoConv>(n.problem.shape, n.config,
                                                   options_.plan, pool_);
      es.conv->set_kernels(n.weights.data());
    }
    exec_.push_back(std::move(es));
  }
  step_seconds_.assign(exec_.size(), 0.0);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  // Per-node attribution: model-derived per-sample flops/bytes computed
  // once here, scaled by each execution's samples and observed into
  // node-labelled instruments.
  for (ExecStep& es : exec_) {
    const Step& st = es.step;
    const Node& n = graph_.nodes()[static_cast<std::size_t>(st.node)];
    const ImageLayout& out_layout = graph_.layout(st.out);
    auto attr = std::make_unique<StepAttr>();
    attr->op = op_name(st.kind);
    attr->label = str_cat(attr->op, "#", st.node);
    attr->span_name = obs::intern_name(str_cat("graph.", attr->label));
    attr->last_n.store(out_layout.batch, std::memory_order_relaxed);
    const auto batch = static_cast<double>(out_layout.batch);
    const double in_f =
        static_cast<double>(es.in_layout.total_floats()) / batch;
    const double out_f = static_cast<double>(out_layout.total_floats()) / batch;
    switch (st.kind) {
      case OpKind::kConv: {
        // Direct-equivalent FLOPs (the roofline convention, so Winograd
        // speedups show up as super-arithmetic GFLOP/s). A folded pool
        // shrinks out_layout; the conv itself still computed every
        // pre-pool pixel.
        double conv_pixels = static_cast<double>(out_layout.pixels());
        if (st.pool_window > 1) {
          for (int d = 0; d < out_layout.spatial.rank(); ++d) {
            conv_pixels *= static_cast<double>(st.pool_window);
          }
        }
        attr->sample_flops =
            2.0 * static_cast<double>(n.problem.shape.in_channels) *
            static_cast<double>(n.problem.shape.out_channels) * conv_pixels *
            static_cast<double>(n.problem.shape.kernel.product());
        attr->sample_bytes = (in_f + out_f) * sizeof(float);
        attr->weight_bytes =
            static_cast<double>(n.problem.kernel_layout().total_floats()) *
            sizeof(float);
        break;
      }
      case OpKind::kEltwiseAdd:
        attr->sample_flops = out_f;
        attr->sample_bytes = (2 * in_f + out_f) * sizeof(float);
        break;
      default:  // bias/relu/pool: ~one op per element moved
        attr->sample_flops = std::max(in_f, out_f);
        attr->sample_bytes = (in_f + out_f) * sizeof(float);
        break;
    }
    const obs::Labels labels = {{"node", attr->label}, {"op", attr->op}};
    attr->seconds = &reg.histogram(
        "ondwin_graph_node_seconds",
        "Per-graph-node execution wall time (seconds)",
        {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0},
        labels);
    attr->gflops = &reg.gauge(
        "ondwin_graph_node_gflops",
        "Direct-equivalent GFLOP/s of the node's last execution", labels);
    attr->bytes_total = &reg.counter(
        "ondwin_graph_node_bytes_total",
        "Model-derived bytes moved by the node (in + out + weights)",
        labels);
    es.attr = std::move(attr);
  }
  reg.counter("ondwin_graph_compiles_total", "Graph executors compiled")
      .inc();
  reg.counter("ondwin_graph_nodes_folded_total",
              "Epilogue nodes folded into convolutions by the fusion pass")
      .inc(static_cast<u64>(fusion_.folded_nodes));
  reg.gauge("ondwin_graph_planned_bytes",
            "Planned activation-slab bytes of the last compiled graph")
      .set(static_cast<double>(memory_.slab_bytes));
  reg.gauge("ondwin_graph_naive_bytes",
            "Sum of per-edge activation bytes of the last compiled graph "
            "(what one-buffer-per-edge allocation would cost)")
      .set(static_cast<double>(memory_.naive_bytes));

  // Visible to attribution_report() only once fully constructed.
  std::lock_guard<std::mutex> lock(executors_mu());
  live_executors().push_back(this);
}

Executor::~Executor() {
  std::lock_guard<std::mutex> lock(executors_mu());
  auto& v = live_executors();
  v.erase(std::remove(v.begin(), v.end(), this), v.end());
}

const float* Executor::src_of(ValueId v, const float* input) const {
  if (v == graph_.input()) return input;
  const i64 off = memory_.offset_of(v);
  ONDWIN_CHECK(off >= 0, "edge v", v, " has no planned placement");
  return arena_.data() + off / static_cast<i64>(sizeof(float));
}

float* Executor::dst_of(ValueId v, float* output) {
  if (graph_.value(v).output) return output;
  const i64 off = memory_.offset_of(v);
  ONDWIN_CHECK(off >= 0, "edge v", v, " has no planned placement");
  return arena_.data() + off / static_cast<i64>(sizeof(float));
}

void Executor::execute(const float* input, float* output, i64 n) {
  if (n == 0) n = batch();
  ONDWIN_CHECK(n >= 1 && n <= batch(), "execute of ", n,
               " samples on an executor compiled for ", batch());
  ONDWIN_TRACE_SPAN("graph.execute");
  obs::MetricsRegistry::global()
      .counter("ondwin_graph_runs_total", "Graph executions")
      .inc();
  const bool tracing = obs::trace_enabled();
  Timer total;
  for (std::size_t i = 0; i < exec_.size(); ++i) {
    ExecStep& es = exec_[i];
    const Step& st = es.step;
    const float* src = src_of(st.in0, input);
    float* dst = dst_of(st.out, output);
    const ImageLayout in_layout(n, es.in_layout.channels,
                                es.in_layout.spatial);
    const u64 step_begin_ns = tracing ? obs::trace_now_ns() : 0;
    Timer t;
    switch (st.kind) {
      case OpKind::kConv: {
        ONDWIN_TRACE_SPAN("graph.conv");
        Epilogue ep;
        ep.bias = st.bias;
        ep.relu = st.relu;
        ep.pool_window = st.pool_window;
        es.conv->execute_pretransformed(src, dst, ep, n);
        break;
      }
      case OpKind::kBias: {
        ONDWIN_TRACE_SPAN("graph.bias");
        const Node& node = graph_.nodes()[static_cast<std::size_t>(st.node)];
        bias_blocked(in_layout, node.bias.data(), src, dst);
        break;
      }
      case OpKind::kRelu: {
        ONDWIN_TRACE_SPAN("graph.relu");
        relu_blocked(in_layout, src, dst);
        break;
      }
      case OpKind::kMaxPool: {
        ONDWIN_TRACE_SPAN("graph.maxpool");
        const Node& node = graph_.nodes()[static_cast<std::size_t>(st.node)];
        max_pool_blocked(in_layout, node.window, src, dst);
        break;
      }
      case OpKind::kEltwiseAdd: {
        ONDWIN_TRACE_SPAN("graph.add");
        eltwise_add_blocked(in_layout, src, src_of(st.in1, input), dst);
        break;
      }
      case OpKind::kInput:
        break;  // never lowered to a step
    }
    const double sec = t.seconds();
    step_seconds_[i] = sec;
    if (es.attr != nullptr) {
      StepAttr& a = *es.attr;
      a.executions.fetch_add(1, std::memory_order_relaxed);
      a.last_n.store(n, std::memory_order_relaxed);
      a.last_ms.set(sec * 1e3);
      a.total_ms.add(sec * 1e3);
      a.seconds->observe(sec);
      const auto samples = static_cast<double>(n);
      if (sec > 0) a.gflops->set(a.sample_flops * samples / sec * 1e-9);
      a.bytes_total->inc(
          static_cast<u64>(a.sample_bytes * samples + a.weight_bytes));
      if (tracing) {
        // The node-labelled span ("graph.conv#3") chains under whatever
        // trace context the caller established — for served requests,
        // the originating request's distributed trace.
        obs::record_span(a.span_name, step_begin_ns,
                         obs::trace_now_ns() - step_begin_ns,
                         obs::current_trace_context());
      }
    }
  }
  last_seconds_ = total.seconds();
}

std::vector<Executor::NodeAttr> Executor::attribution() const {
  std::vector<NodeAttr> out;
  out.reserve(exec_.size());
  for (const ExecStep& es : exec_) {
    if (es.attr == nullptr) continue;
    const StepAttr& a = *es.attr;
    NodeAttr na;
    na.node = a.label;
    na.op = a.op;
    na.executions = a.executions.load(std::memory_order_relaxed);
    na.last_ms = a.last_ms.value();
    na.mean_ms =
        na.executions > 0
            ? a.total_ms.value() / static_cast<double>(na.executions)
            : 0;
    const auto samples =
        static_cast<double>(a.last_n.load(std::memory_order_relaxed));
    na.flops = a.sample_flops * samples;
    na.bytes = a.sample_bytes * samples + a.weight_bytes;
    const double last_s = na.last_ms * 1e-3;
    if (last_s > 0) {
      na.gflops = na.flops / last_s * 1e-9;
      na.gbps = na.bytes / last_s * 1e-9;
    }
    out.push_back(std::move(na));
  }
  return out;
}

std::string Executor::attribution_report() {
  std::lock_guard<std::mutex> lock(executors_mu());
  const std::vector<Executor*>& execs = live_executors();
  if (execs.empty()) return "  no live graph executors\n";
  std::string out;
  int k = 0;
  for (const Executor* e : execs) {
    out += str_cat("  executor ", k++, ": ", e->step_count(), " steps, ",
                   e->arena_bytes(), " B arena\n");
    for (const NodeAttr& na : e->attribution()) {
      char line[192];
      std::snprintf(line, sizeof(line),
                    "    %-12s x%-7llu last %9.3f ms  mean %9.3f ms  "
                    "%8.2f GFLOP/s  %7.2f GB/s\n",
                    na.node.c_str(),
                    static_cast<unsigned long long>(na.executions),
                    na.last_ms, na.mean_ms, na.gflops, na.gbps);
      out += line;
    }
  }
  return out;
}

std::string Executor::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < exec_.size(); ++i) {
    const Step& st = exec_[i].step;
    const Node& n = graph_.nodes()[static_cast<std::size_t>(st.node)];
    os << "  [" << i << "] " << op_name(st.kind);
    if (st.kind == OpKind::kConv) {
      os << " " << conv_label(n);
      if (st.bias != nullptr) os << " +bias";
      if (st.relu) os << " +relu";
      if (st.pool_window > 1) os << " +pool" << st.pool_window;
    } else if (st.kind == OpKind::kMaxPool) {
      os << " " << n.window;
    }
    const i64 off = memory_.offset_of(st.out);
    os << " -> v" << st.out;
    if (graph_.value(st.out).output) {
      os << " (output)";
    } else {
      os << " @" << off;
    }
    os << "\n";
  }
  os << "  slab " << memory_.slab_bytes << " B (naive " << memory_.naive_bytes
     << " B), " << fusion_.folded_nodes << " nodes folded\n";
  return os.str();
}

}  // namespace ondwin::graph
