// graph::Executor — compiles a Graph into an executable network. It is
// the one way ondwin runs a network: Sequential lowers to a Graph, and
// serving compiles one Executor per model at its max_batch.
//
//   compile:  fusion pass → memory plan → one arena slab checked out of a
//             mem::WorkspacePool (first-touched/zeroed at compile time) →
//             one ThreadPool of plan.threads → a select::AutoConv per
//             surviving conv step, built from the node's backend config
//             (Winograd, FFT or direct) on that shared pool, with its
//             weights transformed once, here
//   execute:  run the step list in order on the first n ≤ B samples of
//             the compiled batch B; every intermediate activation lands at
//             its planned slab offset (layouts are batch-major, so the
//             n-sample prefix of each edge sits where it sits at B), and
//             the steady state allocates nothing. Conv steps carry their
//             composed Epilogue; unfused bias/relu/pool/add run as
//             standalone blocked ops.
//
// Per-step spans ("graph.conv", "graph.maxpool", ...) feed the obs tracer
// and ondwin_graph_* metrics record fused-node counts and planned-vs-
// naive slab bytes. execute() is stateful per instance — one caller at a
// time (a serving model has one engine thread per executor).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/fusion.h"
#include "graph/ir.h"
#include "graph/memory_planner.h"
#include "mem/workspace_pool.h"
#include "sched/thread_pool.h"

namespace ondwin::graph {

struct CompileOptions {
  /// Plan knobs shared by every conv step (threads, JIT switches, fusion
  /// mode, wisdom). `plan.threads` sizes the executor's one worker pool,
  /// which every conv step runs on. Each node's backend config (tile,
  /// blocking) applies on top, by AutoConv's rules. `plan.precision` (or
  /// the ONDWIN_PREC environment variable, which overrides it at compile
  /// time) switches every conv step to reduced bf16/fp16 intermediate
  /// storage with fp32 accumulation.
  PlanOptions plan;

  /// Fold bias/relu/pool chains into conv epilogues (graph/fusion.h).
  /// Off = every node runs standalone — the bitwise reference.
  bool fusion = true;

  /// Pool the activation slab is checked out of (nullptr = the process
  /// global pool). Serving models pass their per-model pool so planned
  /// lifetimes compose with the serving tier's no-allocation guarantee.
  mem::WorkspacePool* pool = nullptr;
};

class Executor {
 public:
  /// Compiles `graph` (moved in — the executor owns weights and topology).
  /// The graph must have a marked output; its input batch is the
  /// executor's batch().
  explicit Executor(Graph graph, const CompileOptions& options = {});
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  const ImageLayout& input_layout() const { return graph_.input_layout(); }
  const ImageLayout& output_layout() const { return graph_.output_layout(); }
  /// The compiled batch B: the most samples one execute() runs.
  i64 batch() const { return input_layout().batch; }

  /// Runs the network on the first `n` samples (0 = all batch();
  /// otherwise 1 ≤ n ≤ batch()): `input` holds n samples in
  /// input_layout(), `output` (caller-owned) receives the marked output's
  /// n samples. Sample i's output does not depend on n. Neither may alias
  /// the arena slab. One caller at a time.
  void execute(const float* input, float* output, i64 n = 0);

  const Graph& graph() const { return graph_; }
  const FusionPlan& fusion() const { return fusion_; }
  const MemoryPlan& memory_plan() const { return memory_; }

  /// Bytes of the planned activation slab (the whole net's steady-state
  /// intermediate footprint).
  i64 arena_bytes() const { return memory_.slab_bytes; }

  std::size_t step_count() const { return exec_.size(); }
  /// The executor behind step `i` (nullptr unless it is a conv step).
  const select::AutoConv* step_conv(std::size_t i) const {
    return exec_.at(i).conv.get();
  }
  double last_execute_seconds() const { return last_seconds_; }
  /// Wall seconds of step `i` in the last execute().
  double step_seconds(std::size_t i) const { return step_seconds_.at(i); }

  /// Human-readable per-step dump: op, folded epilogue, planned offset.
  std::string summary() const;

  /// One node's performance attribution. flops/bytes are those of the
  /// last execution (of the compiled batch before any), model-derived
  /// (direct-equivalent FLOPs for convs — the roofline convention — and in
  /// + out + weights bytes moved) and scaled by the samples it ran, weight
  /// bytes excepted; the rates divide them by the node's last wall time.
  struct NodeAttr {
    std::string node;      // "conv#3" — stable per-graph node label
    const char* op = "";   // op_name(kind)
    u64 executions = 0;
    double last_ms = 0;
    double mean_ms = 0;
    double flops = 0;
    double bytes = 0;
    double gflops = 0;  // GFLOP/s of the last execution
    double gbps = 0;    // GB/s of the last execution
  };
  std::vector<NodeAttr> attribution() const;

  /// The /statusz roofline section: attribution() of every live Executor
  /// in the process, one table each (executors of the same network report
  /// separately but share the ondwin_graph_node_* instruments).
  static std::string attribution_report();

 private:
  struct StepAttr;  // per-step attribution state (defined in the .cpp)

  struct ExecStep {
    Step step;
    std::unique_ptr<select::AutoConv> conv;  // kConv steps only
    ImageLayout in_layout;                   // layout of step.in0
    std::unique_ptr<StepAttr> attr;
  };

  const float* src_of(ValueId v, const float* input) const;
  float* dst_of(ValueId v, float* output);

  Graph graph_;
  CompileOptions options_;
  FusionPlan fusion_;
  MemoryPlan memory_;
  mem::Workspace arena_;
  std::shared_ptr<ThreadPool> pool_;  // lent to every conv step
  std::vector<ExecStep> exec_;
  std::vector<double> step_seconds_;
  double last_seconds_ = 0;
};

}  // namespace ondwin::graph
