// Umbrella header: the public API of the ondwin library.
//
//   ConvProblem  — layer shape + per-dimension Winograd tile sizes
//   PlanOptions  — threads, blocking, streaming/scatter/JIT switches
//   ConvPlan     — plan once, execute many (training & FX inference paths)
//   auto_tune    — empirical blocking search persisted as wisdom
//   select::plan_auto — don't pick the algorithm or tile sizes at all:
//                  the selection planner enumerates direct/FFT/Winograd
//                  F(m, r) candidates, prunes by a numeric-accuracy
//                  bound, ranks with a cost model, benchmarks the
//                  short list, and caches the decision in wisdom v2
//   pack_image / pack_kernels / unpack_image — layout conversion helpers
//   Sequential   — a builder for networks of conv/pool layers
//                  (add_conv_auto for planner-chosen layers); it runs
//                  nothing itself — to_graph() lowers it to the graph IR
//   graph::Graph / graph::Executor — the one network executor: each conv
//                  node runs any AutoConv backend (Winograd, FFT, direct),
//                  bias/ReLU(/pool, Winograd only) chains fuse into conv
//                  epilogues, and every intermediate activation is
//                  lifetime-planned onto one arena slab
//   fftconv::FftConvPlan — the first-class FFT engine behind the
//                  planner's "fft" class: R2C overlap-save transforms
//                  over the blocked layout, a JIT'd complex GEMM stage,
//                  fused epilogues — same FX contract as ConvPlan
//   serve::InferenceServer — concurrent serving with dynamic
//                  micro-batching; every model (a conv model is a
//                  one-layer network) runs on one graph::Executor
//                  compiled at its max_batch, which executes any batch of
//                  n ≤ max_batch requests as exactly n samples
//   rpc::RpcServer / rpc::RpcClient / rpc::ShardRouter — the network
//                  tier: zero-copy length-prefixed tensor framing over
//                  unix/TCP sockets into the same batcher queues as
//                  in-proc callers, SLO-aware admission control, and
//                  consistent-hash sharding with replicated failover
//   obs::Tracer / obs::MetricsRegistry / obs::PerfCounterSet — scoped
//                  span tracing (ONDWIN_TRACE=1 → Chrome trace JSON),
//                  Prometheus/JSON metrics, and perf_event hardware
//                  counters
//   mem::Arena / mem::WorkspacePool / mem::Topology — hugepage-backed
//                  aligned slabs, size-class workspace reuse, and the
//                  NUMA topology probe behind schedule-aware first-touch
//                  (env toggles: ONDWIN_NO_HUGEPAGES, ONDWIN_HUGETLB)
//
// The baselines the planner chooses between (DirectConv/DirectConvBlocked,
// FftConv, SimpleWinograd) are exported here too — they are useful as
// reference implementations and correctness oracles in their own right.
#pragma once

#include "baseline/direct_conv.h"          // IWYU pragma: export
#include "baseline/direct_conv_blocked.h"  // IWYU pragma: export
#include "baseline/fft_conv.h"             // IWYU pragma: export
#include "baseline/simple_winograd.h"      // IWYU pragma: export
#include "core/conv_plan.h"                // IWYU pragma: export
#include "core/conv_problem.h"             // IWYU pragma: export
#include "core/plan_options.h"             // IWYU pragma: export
#include "core/tuner.h"                    // IWYU pragma: export
#include "core/wisdom.h"                   // IWYU pragma: export
#include "fftconv/fftconv_plan.h"          // IWYU pragma: export
#include "fftconv/rfft.h"                  // IWYU pragma: export
#include "graph/executor.h"                // IWYU pragma: export
#include "graph/ir.h"                      // IWYU pragma: export
#include "mem/arena.h"                     // IWYU pragma: export
#include "mem/topology.h"                  // IWYU pragma: export
#include "mem/workspace_pool.h"            // IWYU pragma: export
#include "net/sequential.h"                // IWYU pragma: export
#include "obs/http_exporter.h"             // IWYU pragma: export
#include "obs/metrics.h"                   // IWYU pragma: export
#include "obs/perf_counters.h"             // IWYU pragma: export
#include "obs/trace.h"                     // IWYU pragma: export
#include "obs/trace_merge.h"               // IWYU pragma: export
#include "rpc/frame.h"                     // IWYU pragma: export
#include "rpc/rpc_client.h"                // IWYU pragma: export
#include "rpc/rpc_server.h"                // IWYU pragma: export
#include "rpc/shard_router.h"              // IWYU pragma: export
#include "select/select.h"                 // IWYU pragma: export
#include "serve/server.h"                  // IWYU pragma: export
#include "tensor/layout.h"                 // IWYU pragma: export
