// Fused vs staged execution on the Fig. 5 / Tbl. 2 layers.
//
//   $ ./bench_fusion [--full] [--xl] [--json out.json]
//   $ ./bench_fusion --graph [--xl] [--json BENCH_graph.json]
//
// --graph switches to the CROSS-LAYER section: conv→relu→pool chains run
// on graph::Executor twice — unfused (CompileOptions::fusion = false:
// every bias/relu/pool is its own step, so each intermediate round-trips
// DRAM) and fused (bias/relu/pool folded into the conv epilogues) — both
// with intermediates lifetime-planned onto one arena slab, reporting wall
// time, LLC-miss GB moved per execution, and planned-vs-naive slab bytes.
// --xl adds batch-1 large-image chains whose unfused intermediates far
// exceed the LLC — the regime where skipping the unactivated DRAM
// round-trip pays the most.
//
// Each layer runs the SAME plan twice — once with FusionMode::kStaged
// (the paper's four fork–join stages with full-tensor V̂/X̂) and once with
// FusionMode::kFused (per-thread cache-resident tile blocks, no global
// stage barriers) — on identical data, and reports:
//
//   ms            best-of-N execute_pretransformed wall time
//   speedup       staged_ms / fused_ms (on the fused row)
//   LLC miss/ex   hardware LLC misses per execution (perf_event; the
//                 whole timing loop divided by its iterations)
//   bytes/flop    LLC-miss bytes (64 B lines) per direct-equivalent FLOP
//
// Fusion pays exactly where the staged intermediates exceed the LLC — the
// large-image, batch-1 segmentation layers (FusionNet, 3DUNet). --xl adds
// two oversized FusionNet-style rows whose intermediates exceed any
// plausible LLC even at CI scale, so the DRAM-round-trip regime is always
// represented. The bench also cross-checks the two modes' outputs are
// bitwise identical before timing (fusion is a scheduling transformation,
// not a numeric one).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "layers.h"
#include "ondwin/ondwin.h"
#include "report.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ondwin;

namespace {

struct ModeResult {
  double best_secs = 0;
  double llc_miss_per_exec = 0;
  double l1d_miss_per_exec = 0;
  bool perf_valid = false;
  ConvPlanStats stats;
  i64 workspace = 0;
  FusionPolicy policy;
};

// Fixed-iteration timing loop with the perf counters around it: counts
// divide exactly by the iteration count.
ModeResult bench_mode(ConvPlan& plan, const float* in, float* out,
                      obs::PerfCounterSet& perf) {
  ModeResult r;
  plan.execute_pretransformed(in, out);  // warm-up
  Timer est;
  plan.execute_pretransformed(in, out);
  const double once = est.seconds();
  const int iters =
      std::max(3, static_cast<int>(std::ceil(0.15 / std::max(once, 1e-6))));

  perf.start();
  double best = 1e300;
  for (int i = 0; i < iters; ++i) {
    Timer t;
    plan.execute_pretransformed(in, out);
    best = std::min(best, t.seconds());
  }
  perf.stop();
  const obs::PerfReading hw = perf.read();
  r.best_secs = best;
  r.perf_valid = hw.valid;
  if (hw.valid) {
    r.llc_miss_per_exec = static_cast<double>(hw.llc_misses) / iters;
    r.l1d_miss_per_exec = static_cast<double>(hw.l1d_misses) / iters;
  }
  r.stats = plan.last_stats();
  r.workspace = plan.workspace_bytes();
  r.policy = plan.fusion_policy();
  return r;
}

// Fixed-iteration timing of an arbitrary whole-network run.
template <typename Fn>
ModeResult bench_net(Fn&& run, obs::PerfCounterSet& perf) {
  ModeResult r;
  run();  // warm-up
  Timer est;
  run();
  const double once = est.seconds();
  const int iters =
      std::max(3, static_cast<int>(std::ceil(0.15 / std::max(once, 1e-6))));
  perf.start();
  double best = 1e300;
  for (int i = 0; i < iters; ++i) {
    Timer t;
    run();
    best = std::min(best, t.seconds());
  }
  perf.stop();
  const obs::PerfReading hw = perf.read();
  r.best_secs = best;
  r.perf_valid = hw.valid;
  if (hw.valid) {
    r.llc_miss_per_exec = static_cast<double>(hw.llc_misses) / iters;
    r.l1d_miss_per_exec = static_cast<double>(hw.l1d_misses) / iters;
  }
  return r;
}

// Analytic activation traffic of a step list: every step reads its input
// edge(s) and writes its output edge in full, so summing the tensor sizes
// is exactly the DRAM traffic the schedule asks for (caches can only
// reduce it). Folding a chain deletes the intermediate reads AND writes,
// which is the GB-moved saving the LLC counters confirm where available.
double step_tensor_gb(const graph::Graph& g,
                      const std::vector<graph::Step>& steps) {
  i64 bytes = 0;
  for (const graph::Step& st : steps) {
    bytes += g.layout(st.in0).total_floats() * static_cast<i64>(sizeof(float));
    if (st.in1 >= 0) {
      bytes +=
          g.layout(st.in1).total_floats() * static_cast<i64>(sizeof(float));
    }
    bytes += g.layout(st.out).total_floats() * static_cast<i64>(sizeof(float));
  }
  return static_cast<double>(bytes) / 1e9;
}

int run_graph_section(bool xl, const std::string& json_path,
                      obs::PerfCounterSet& perf) {
  struct ChainSpec {
    const char* net;
    const char* name;
    i64 batch, cin, cout;
    Dims image;
    Dims tile;
    int convs;  // conv+relu pairs feeding the trailing pool
    i64 pool;
  };
  std::vector<ChainSpec> chains = {
      {"VGGish", "2.x", 1, 64, 64, {56, 56}, {4, 4}, 2, 2},
      {"VGGish", "3.x", 1, 128, 128, {28, 28}, {4, 4}, 3, 2},
      // Deep enough (4 convs -> 3 planned intermediates) that the
      // lifetime planner's ping-pong reuse beats one-buffer-per-edge.
      {"VGGish", "deep", 1, 64, 64, {56, 56}, {4, 4}, 4, 2},
      {"C3Dish", "1.x", 1, 32, 32, {16, 24, 24}, {2, 2, 2}, 1, 2},
  };
  if (xl) {
    // Batch-1 large-image chains: the unfused conv output alone is
    // 16–18 MB per pass, so unfused execution moves it through DRAM three
    // extra times (conv store, relu load+store, pool load) that the fused
    // epilogue never performs.
    chains.push_back(
        {"ChainXL", "512", 1, 16, 16, {512, 512}, {4, 4}, 1, 2});
    chains.push_back(
        {"ChainXL", "384", 1, 32, 32, {384, 384}, {4, 4}, 1, 2});
  }

  bench::BenchReport report("graph");
  Rng rng(2026);

  std::printf("== cross-layer fusion: conv->relu->pool chains, "
              "graph::Executor unfused vs fused%s ==\n",
              xl ? " (+ XL rows)" : "");
  std::printf("%-9s %-5s %-8s %10s %8s %10s %12s %10s\n", "net", "chain",
              "mode", "ms", "speedup", "act GB/ex", "LLCmiss/ex",
              "LLC GB/ex");

  double log_speedup_sum = 0;
  int chain_count = 0, wins_12 = 0, planned_wins = 0;

  // Default options: every core. Both executors of a chain stay alive
  // while the other is timed; the idle one's pool workers park on the
  // barrier instead of competing for the cores.
  for (const auto& C : chains) {
    const int rank = C.image.rank();
    Sequential net(C.batch, C.cin, C.image);
    for (int i = 0; i < C.convs; ++i) {
      net.add_conv(C.cout, Dims::filled(rank, 3), Dims::filled(rank, 1),
                   C.tile, /*relu=*/true);
    }
    net.add_max_pool(C.pool);
    net.randomize_weights(rng);

    graph::CompileOptions copts;
    copts.plan = net.plan_options();
    graph::Executor exec(net.to_graph(), copts);
    graph::CompileOptions unfused_opts = copts;
    unfused_opts.fusion = false;
    graph::Executor unfused(net.to_graph(), unfused_opts);

    const std::size_t sin =
        static_cast<std::size_t>(net.input_layout().total_floats());
    const std::size_t sout =
        static_cast<std::size_t>(net.output_layout().total_floats());
    AlignedBuffer<float> in(sin), out_unfused(sout), out_graph(sout);
    for (auto& v : in) v = rng.uniform(-1.0f, 1.0f);

    // Identity cross-check before timing anything: cross-layer fusion is
    // a scheduling transformation, never a numeric one.
    unfused.execute(in.data(), out_unfused.data());
    exec.execute(in.data(), out_graph.data());
    if (std::memcmp(out_unfused.data(), out_graph.data(),
                    sout * sizeof(float)) != 0) {
      std::fprintf(stderr,
                   "FATAL: fused graph output diverges from unfused on %s "
                   "%s\n",
                   C.net, C.name);
      return 1;
    }

    const double gb_unfused =
        step_tensor_gb(unfused.graph(), unfused.fusion().steps);
    const double gb_graph = step_tensor_gb(exec.graph(), exec.fusion().steps);

    const ModeResult rl = bench_net(
        [&] { unfused.execute(in.data(), out_unfused.data()); }, perf);
    const ModeResult rg = bench_net(
        [&] { exec.execute(in.data(), out_graph.data()); }, perf);
    const double speedup = rl.best_secs / rg.best_secs;
    log_speedup_sum += std::log(speedup);
    ++chain_count;
    if (speedup >= 1.2) ++wins_12;
    const graph::MemoryPlan& mp = exec.memory_plan();
    if (mp.slab_bytes < mp.naive_bytes) ++planned_wins;

    auto llc_gb = [](const ModeResult& r) {
      return r.perf_valid ? r.llc_miss_per_exec * 64.0 / 1e9 : 0.0;
    };
    auto print_mode = [&](const char* mode, const ModeResult& r,
                          double spd) {
      const double act_gb = spd > 0 ? gb_graph : gb_unfused;
      std::printf("%-9s %-5s %-8s %10.2f %8s %10.4f %12.3e %10.4f\n", C.net,
                  C.name, mode, r.best_secs * 1e3,
                  spd > 0 ? (std::to_string(spd).substr(0, 5) + "x").c_str()
                          : "-",
                  act_gb, r.llc_miss_per_exec, llc_gb(r));
      bench::BenchReport::Row& row =
          report.row()
              .set("net", C.net)
              .set("layer", C.name)
              .set("mode", mode)
              .set("ms", r.best_secs * 1e3)
              .set("activation_gb_per_exec", act_gb);
      if (r.perf_valid) {
        row.set("llc_miss_per_exec", r.llc_miss_per_exec)
            .set("llc_gb_per_exec", llc_gb(r))
            .set("l1d_miss_per_exec", r.l1d_miss_per_exec);
      }
      if (spd > 0) {
        row.set("speedup", spd)
            .set("folded_nodes",
                 static_cast<double>(exec.fusion().folded_nodes))
            .set("fused_pools",
                 static_cast<double>(exec.fusion().fused_pools))
            .set("planned_bytes", static_cast<double>(mp.slab_bytes))
            .set("naive_bytes", static_cast<double>(mp.naive_bytes));
      }
    };
    print_mode("unfused", rl, 0);
    print_mode("fused", rg, speedup);
    if (rl.perf_valid && rg.perf_valid && rl.llc_miss_per_exec > 0) {
      std::printf("%24s LLC-miss delta %+.1f%%, slab %.2f MB (naive %.2f "
                  "MB), %d nodes folded\n",
                  "",
                  (rg.llc_miss_per_exec / rl.llc_miss_per_exec - 1.0) * 100,
                  static_cast<double>(mp.slab_bytes) / (1 << 20),
                  static_cast<double>(mp.naive_bytes) / (1 << 20),
                  exec.fusion().folded_nodes);
    }
  }

  const double geomean =
      chain_count > 0 ? std::exp(log_speedup_sum / chain_count) : 0.0;
  std::printf("\ngeomean speedup %.3fx over %d chains; %d chains >= 1.2x; "
              "planned slab < naive on %d/%d\n",
              geomean, chain_count, wins_12, planned_wins, chain_count);
  report.row()
      .set("net", "_summary")
      .set("layer", "-")
      .set("mode", "-")
      .set("geomean_speedup", geomean)
      .set("chains", static_cast<double>(chain_count))
      .set("chains_ge_1_2x", static_cast<double>(wins_12))
      .set("planned_lt_naive", static_cast<double>(planned_wins));

  if (!json_path.empty()) {
    if (report.write_json(json_path)) {
      std::printf("wrote %zu rows to %s\n", report.size(), json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false, xl = false, graph = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) full = true;
    if (std::strcmp(argv[i], "--xl") == 0) xl = true;
    if (std::strcmp(argv[i], "--graph") == 0) graph = true;
  }
  const std::string json_path = bench::json_flag(argc, argv);

  // Open the counters before any plan exists: inherit=1 only covers
  // threads spawned after the open, and plans spawn pools at construction.
  obs::PerfCounterSet perf;
  if (!perf.available()) {
    std::printf("(perf counters unavailable: %s)\n",
                perf.unavailable_reason().c_str());
  }

  if (graph) return run_graph_section(xl, json_path, perf);

  auto layers = table2_layers(full);
  if (xl) {
    // Batch-1 large-image rows sized so the staged V̂+X̂ clearly exceed the
    // LLC: at F(4²,3²), 320² with C=C'=64 is ≈118 MB of intermediates and
    // 448² with C=C'=32 is ≈116 MB — both DRAM-resident when staged.
    layers.push_back(
        {"FusionNetXL", "1.2", layer(1, 64, 64, {320, 320}, {0, 0}, {3, 3})});
    layers.push_back(
        {"FusionNetXL", "0.2", layer(1, 32, 32, {448, 448}, {0, 0}, {3, 3})});
  }

  bench::BenchReport report("fusion");
  Rng rng(2025);

  std::printf("== fused vs staged execution (%s sizes%s) ==\n",
              full ? "paper" : "CI", xl ? " + XL rows" : "");
  std::printf("%-12s %-5s %-7s %10s %8s %12s %11s\n", "net", "layer", "mode",
              "ms", "speedup", "LLCmiss/ex", "bytes/flop");

  double log_speedup_sum = 0;
  int layer_count = 0, wins_12 = 0;

  for (const auto& L : layers) {
    const ConvShape& s = L.shape;
    const int rank = s.image.rank();
    ConvProblem p;
    p.shape = s;
    p.tile_m = Dims::filled(rank, 4);
    const double direct_flops = 2.0 * static_cast<double>(s.direct_macs());

    const ImageLayout in_l{s.batch, s.in_channels, s.image};
    const ImageLayout out_l{s.batch, s.out_channels, s.output()};
    const KernelLayout k_l{s.in_channels, s.out_channels, s.kernel};
    AlignedBuffer<float> in_b(static_cast<std::size_t>(in_l.total_floats()));
    AlignedBuffer<float> w_b(static_cast<std::size_t>(k_l.total_floats()));
    AlignedBuffer<float> out_staged(
        static_cast<std::size_t>(out_l.total_floats()));
    AlignedBuffer<float> out_fused(out_staged.size());
    for (auto& v : in_b) v = rng.uniform(-1.0f, 1.0f);
    for (auto& v : w_b) v = rng.gaussian(0.0f, 0.05f);

    PlanOptions staged_opts;
    staged_opts.fusion = FusionMode::kStaged;
    PlanOptions fused_opts;
    fused_opts.fusion = FusionMode::kFused;

    ConvPlan staged(p, staged_opts);
    ConvPlan fused(p, fused_opts);
    staged.set_kernels(w_b.data());
    fused.set_kernels(w_b.data());

    // Identity cross-check before timing anything.
    out_staged.fill_zero();
    out_fused.fill_zero();
    staged.execute_pretransformed(in_b.data(), out_staged.data());
    fused.execute_pretransformed(in_b.data(), out_fused.data());
    if (std::memcmp(out_staged.data(), out_fused.data(),
                    out_staged.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "FATAL: fused output diverges from staged on %s "
                   "%s\n", L.net.c_str(), L.name.c_str());
      return 1;
    }

    const ModeResult rs =
        bench_mode(staged, in_b.data(), out_staged.data(), perf);
    const ModeResult rf =
        bench_mode(fused, in_b.data(), out_fused.data(), perf);
    const double speedup = rs.best_secs / rf.best_secs;
    log_speedup_sum += std::log(speedup);
    ++layer_count;
    if (speedup >= 1.2) ++wins_12;

    auto bytes_per_flop = [&](const ModeResult& r) {
      return r.perf_valid ? r.llc_miss_per_exec * 64.0 / direct_flops : 0.0;
    };
    auto print_mode = [&](const std::string& mode, const ModeResult& r,
                          double spd) {
      std::printf("%-12s %-5s %-7s %10.2f %8s %12.3e %11.4f\n",
                  L.net.c_str(), L.name.c_str(), mode.c_str(),
                  r.best_secs * 1e3,
                  spd > 0 ? (std::to_string(spd).substr(0, 5) + "x").c_str()
                          : "-",
                  r.llc_miss_per_exec, bytes_per_flop(r));
      bench::BenchReport::Row& row =
          report.row()
              .set("net", L.net)
              .set("layer", L.name)
              .set("mode", mode)
              .set("ms", r.best_secs * 1e3)
              .set("workspace_bytes", static_cast<double>(r.workspace))
              .set("input_ms", r.stats.input_transform * 1e3)
              .set("gemm_ms", r.stats.gemm * 1e3)
              .set("inverse_ms", r.stats.inverse_transform * 1e3)
              .set("fused_accounting", r.stats.fused);
      if (r.perf_valid) {
        row.set("llc_miss_per_exec", r.llc_miss_per_exec)
            .set("l1d_miss_per_exec", r.l1d_miss_per_exec)
            .set("bytes_per_flop", bytes_per_flop(r));
      }
      if (spd > 0) row.set("speedup", spd);
      if (r.policy.fused) {
        row.set("f_blk", static_cast<double>(r.policy.f_blk))
            .set("fused_blocks", static_cast<double>(r.policy.blocks));
      }
    };
    print_mode("staged", rs, 0);
    print_mode("fused", rf, speedup);
    if (rs.perf_valid && rf.perf_valid && rs.llc_miss_per_exec > 0) {
      std::printf("%26s LLC-miss delta %+.1f%%, workspace %.1f -> %.1f MB, "
                  "f_blk %d (%lld blocks)\n", "",
                  (rf.llc_miss_per_exec / rs.llc_miss_per_exec - 1.0) * 100,
                  static_cast<double>(rs.workspace) / (1 << 20),
                  static_cast<double>(rf.workspace) / (1 << 20),
                  rf.policy.f_blk,
                  static_cast<long long>(rf.policy.blocks));
    }
  }

  const double geomean =
      layer_count > 0 ? std::exp(log_speedup_sum / layer_count) : 0.0;
  std::printf("\ngeomean speedup %.3fx over %d layers; %d layers >= 1.2x\n",
              geomean, layer_count, wins_12);
  report.row()
      .set("net", "_summary")
      .set("layer", "-")
      .set("mode", "-")
      .set("geomean_speedup", geomean)
      .set("layers", static_cast<double>(layer_count))
      .set("layers_ge_1_2x", static_cast<double>(wins_12));

  if (!json_path.empty()) {
    if (report.write_json(json_path)) {
      std::printf("wrote %zu rows to %s\n", report.size(),
                  json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}
