// Fig. 5 reproduction: runtime of every Tbl. 2 convolutional layer under
// each implementation.
//
//   $ ./bench_fig5_layers [--full] [--prec fp32|bf16|fp16] [--csv out.csv]
//                         [--json out.json] [--obs-overhead]
//
// Columns per layer (the paper's bar groups):
//   direct         optimized direct convolution on the blocked layout
//                  (stand-in for MKL-DNN-direct / Zlateski [58])
//   simpleWino     FALCON/early-MKL-DNN-style Winograd F(2,3)
//   fft            FFT-based convolution (cuDNN-FFT class; CI sizes only —
//                  its workspace explodes on full sizes, which is itself a
//                  finding the paper reports for 3D FFT on GPUs)
//   ours F(m,r)    this library, training mode (kernels transformed)
//   ours F(m,r) FX this library, inference mode (memoized transforms)
//
// The "ours ... FX" rows additionally break the run into the paper's three
// stages using ConvPlanStats: per-stage milliseconds, per-thread load
// imbalance (max/mean task time — §4.5's static-schedule efficiency), and
// two GFLOP/s figures for the GEMM stage: raw (Winograd MACs actually
// executed) vs effective (direct-equivalent — the algorithmic saving).
// When perf_event_open is available, hardware counters (IPC, L1D/LLC
// misses) are reported for the whole FX timing loop.
//
// --obs-overhead runs a smoke check instead of the sweep: the obs tracer
// must cost <2% on a Fig. 5 layer even when ENABLED (the disabled path —
// one relaxed load per span — is a strict subset of that work, so passing
// bounds the disabled overhead well under the budget). Exits 0/1.
//
// Expected shape (paper): ours beats direct and the simple Winograd on
// every layer; larger m helps until padding waste dominates; FX helps most
// where C,C' are large and batch is 1 (FusionNet 4.2/5.2).
//
// --prec bf16|fp16 (default: ONDWIN_PREC, else fp32) stores the Winograd
// intermediates Û/W/I' in the reduced format (fp32 accumulate). The
// "ours ... FX" rows then also time an fp32 plan of the same tile and
// report speedup_vs_fp32 — bandwidth-bound layers approach the 2×
// streaming-traffic reduction that the per-stage u/w/iout byte fields
// (effective workspace traffic, halved under reduced storage) make
// explicit.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/direct_conv_blocked.h"
#include "baseline/fft_conv.h"
#include "baseline/simple_winograd.h"
#include "layers.h"
#include "ondwin/ondwin.h"
#include "report.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ondwin;

namespace {

double bench_secs(const std::function<void()>& fn) {
  fn();  // warm-up
  return bench_min_seconds(fn, 0.05, 2);
}

// Analytic transform FLOPs of one fork–join transform stage (matches the
// selection cost model): every tile is `rank` passes of α×α (resp. m×α)
// matrix products over α^(rank-1) pencils, once per input (c) or output
// (cp) channel.
double transform_flops(const ConvProblem& p, double channels) {
  const double nb = static_cast<double>(p.tiles_total() * p.shape.batch);
  const double t_elems = static_cast<double>(p.tile_elements());
  double alpha_max = 0;
  for (int d = 0; d < p.rank(); ++d) {
    alpha_max = std::max(alpha_max, static_cast<double>(p.alpha()[d]));
  }
  return nb * channels * static_cast<double>(p.rank()) * 2.0 * alpha_max *
         t_elems;
}

// Best single-call times of `base` and `probe`, called alternately for at
// least 0.25 s: a busy spell on a shared machine then slows calls of both
// sides alike instead of one side's whole timing window.
std::pair<double, double> interleaved_best(const std::function<void()>& base,
                                           const std::function<void()>& probe) {
  base();  // warm-up
  probe();
  double b = 1e300, p = 1e300;
  Timer total;
  for (int i = 0; i < 20 || total.seconds() < 0.25; ++i) {
    Timer t;
    base();
    b = std::min(b, t.seconds());
    t.restart();
    probe();
    p = std::min(p, t.seconds());
  }
  return {b, p};
}

// --obs-overhead: tracer cost on one Fig. 5 layer, enabled vs disabled.
// Up to 3 attempts (timing noise on shared CI machines); pass if any
// attempt keeps the enabled-tracing slowdown under 2%.
int run_obs_overhead_check() {
  const auto layers = table2_layers(/*full=*/false);
  const BenchLayer& L = layers.front();
  ConvProblem p;
  p.shape = L.shape;
  p.tile_m = Dims::filled(L.shape.image.rank(), 4);

  const ImageLayout in_l = p.input_layout();
  const ImageLayout out_l = p.output_layout();
  const KernelLayout k_l = p.kernel_layout();
  AlignedBuffer<float> in(static_cast<std::size_t>(in_l.total_floats()));
  AlignedBuffer<float> w(static_cast<std::size_t>(k_l.total_floats()));
  AlignedBuffer<float> out(static_cast<std::size_t>(out_l.total_floats()));
  Rng rng(7);
  for (auto& v : in) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : w) v = rng.gaussian(0.0f, 0.05f);

  ConvPlan plan(p);
  plan.set_kernels(w.data());
  const std::function<void()> run = [&] {
    plan.execute_pretransformed(in.data(), out.data());
  };

  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_enabled = tracer.enabled();
  std::printf("obs-overhead smoke: %s %s, tracing enabled vs disabled\n",
              L.net.c_str(), L.name.c_str());

  bool pass = false;
  for (int attempt = 0; attempt < 3 && !pass; ++attempt) {
    const auto [off, on] = interleaved_best(
        [&] {
          tracer.set_enabled(false);
          run();
        },
        [&] {
          tracer.set_enabled(true);
          run();
        });
    tracer.set_enabled(false);
    tracer.clear();  // drop the smoke's events; don't pollute a real trace
    const double overhead = on / off - 1.0;
    std::printf("  attempt %d: off %.3f ms, on %.3f ms, overhead %+.2f%%\n",
                attempt + 1, off * 1e3, on * 1e3, overhead * 100.0);
    pass = overhead < 0.02;
  }

  // Second contract: the distributed-tracing plumbing (an active trace
  // context installed, tracing compiled in but DISABLED — the always-on
  // production configuration) must also stay under 2% vs plain disabled.
  bool ctx_pass = false;
  for (int attempt = 0; attempt < 3 && !ctx_pass; ++attempt) {
    tracer.set_enabled(false);
    const auto [off, with_ctx] = interleaved_best(run, [&] {
      obs::TraceContext ctx{obs::new_trace_id(), obs::new_span_id()};
      obs::TraceContextScope scope(ctx);
      run();
    });
    const double overhead = with_ctx / off - 1.0;
    std::printf("  ctx attempt %d: off %.3f ms, ctx (disabled) %.3f ms, "
                "overhead %+.2f%%\n",
                attempt + 1, off * 1e3, with_ctx * 1e3, overhead * 100.0);
    ctx_pass = overhead < 0.02;
  }

  tracer.set_enabled(was_enabled);
  std::printf("obs-overhead: %s (budget 2%%)\n",
              pass && ctx_pass ? "PASS" : "FAIL");
  return pass && ctx_pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  std::string csv_path;
  Precision prec = Precision::kFp32;
  precision_env_override(&prec);  // --prec below beats the environment
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) full = true;
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    }
    if (std::strcmp(argv[i], "--prec") == 0 && i + 1 < argc) {
      if (!parse_precision(argv[++i], &prec)) {
        std::fprintf(stderr, "bad --prec '%s' (fp32|bf16|fp16)\n", argv[i]);
        return 2;
      }
    }
    if (std::strcmp(argv[i], "--obs-overhead") == 0) {
      return run_obs_overhead_check();
    }
  }
  const std::string json_path = bench::json_flag(argc, argv);
  PlanOptions plan_opts;
  plan_opts.precision = prec;

  // Open hardware counters before any plan exists: inherit=1 only covers
  // threads spawned after the open, and plans spawn their worker pools at
  // construction.
  obs::PerfCounterSet perf;
  if (!perf.available()) {
    std::printf("(perf counters unavailable: %s)\n",
                perf.unavailable_reason().c_str());
  }

  const auto layers = table2_layers(full);
  bench::BenchReport report("fig5_layers");
  report.set_precision(precision_name(prec));
  std::vector<std::string> csv_rows;
  Rng rng(2024);

  std::printf("== Fig. 5: convolution layer runtimes (%s sizes, %s, "
              "convert tier %s) ==\n",
              full ? "paper" : "CI", precision_name(prec),
              precision_tier_string().c_str());
  std::printf("%-10s %-5s %-22s %10s %10s\n", "net", "layer", "impl", "ms",
              "GFLOP/s*");

  for (const auto& L : layers) {
    const ConvShape& s = L.shape;
    const int rank = s.image.rank();
    const double direct_flops = 2.0 * static_cast<double>(s.direct_macs());

    // Shared data.
    const ImageLayout in_l{s.batch, s.in_channels, s.image};
    const ImageLayout out_l{s.batch, s.out_channels, s.output()};
    const KernelLayout k_l{s.in_channels, s.out_channels, s.kernel};
    AlignedBuffer<float> in_b(static_cast<std::size_t>(in_l.total_floats()));
    AlignedBuffer<float> w_b(static_cast<std::size_t>(k_l.total_floats()));
    AlignedBuffer<float> out_b(
        static_cast<std::size_t>(out_l.total_floats()));
    for (auto& v : in_b) v = rng.uniform(-1.0f, 1.0f);
    for (auto& v : w_b) v = rng.gaussian(0.0f, 0.05f);

    auto emit = [&](const std::string& impl, double secs) -> bench::BenchReport::Row& {
      const double ms = secs * 1e3;
      const double gflops = direct_flops / secs / 1e9;
      std::printf("%-10s %-5s %-22s %10.2f %10.2f\n", L.net.c_str(),
                  L.name.c_str(), impl.c_str(), ms, gflops);
      csv_rows.push_back(L.net + "," + L.name + "," + impl + "," +
                         std::to_string(ms) + "," + std::to_string(gflops));
      return report.row()
          .set("net", L.net)
          .set("layer", L.name)
          .set("impl", impl)
          .set("ms", ms)
          .set("gflops_direct_equiv", gflops);
    };

    // --- direct (blocked, vectorized) ---
    {
      DirectConvBlocked direct(s);
      emit("direct", bench_secs([&] {
             direct.execute(in_b.data(), w_b.data(), out_b.data());
           }));
    }

    // --- simple Winograd (plain layout, F(2,...)) and FFT: CI only, the
    // plain-layout buffers at paper sizes do not fit alongside ours ---
    if (!full) {
      std::vector<float> in_p(static_cast<std::size_t>(s.input_floats()));
      std::vector<float> w_p(static_cast<std::size_t>(s.weight_floats()));
      std::vector<float> out_p(static_cast<std::size_t>(s.output_floats()));
      unpack_image(in_b.data(), in_p.data(), in_l);
      unpack_kernels(w_b.data(), w_p.data(), k_l);
      {
        ConvProblem p;
        p.shape = s;
        p.tile_m = Dims::filled(rank, 2);
        SimpleWinograd wino(p);
        emit("simpleWino F(2,3)", bench_secs([&] {
               wino.execute(in_p.data(), w_p.data(), out_p.data());
             }));
      }
      // FFT conv holds C·C' frequency-domain kernels of the padded FFT
      // extent — cap the workspace so the column stays cheap to produce.
      if (s.in_channels * s.out_channels <= 128 * 128) {
        FftConv fft(s);
        fft.set_kernels(w_p.data());
        emit("fft", bench_secs([&] {
               fft.execute(in_p.data(), out_p.data());
             }));
      }
    }

    // --- ours, multiple F(m, r), training and FX ---
    for (const Dims& m : bench_tiles(rank)) {
      ConvProblem p;
      p.shape = s;
      p.tile_m = m;
      std::string fm = "ours F(";
      for (int d = 0; d < rank; ++d) {
        fm += (d ? "x" : "") + std::to_string(m[d]);
      }
      fm += ",3)";

      ConvPlan plan(p, plan_opts);
      emit(fm, bench_secs([&] {
             plan.execute(in_b.data(), w_b.data(), out_b.data());
           }));
      plan.set_kernels(w_b.data());

      perf.start();
      const double fx_secs = bench_secs([&] {
        plan.execute_pretransformed(in_b.data(), out_b.data());
      });
      perf.stop();
      const obs::PerfReading hw = perf.read();

      // Reduced runs time the fp32 plan of the same tile as the in-place
      // baseline (same blocking heuristics, same schedule — the storage
      // precision is the only variable).
      double fx32_secs = 0;
      if (prec != Precision::kFp32) {
        ConvPlan plan32(p);
        plan32.set_kernels(w_b.data());
        fx32_secs = bench_secs([&] {
          plan32.execute_pretransformed(in_b.data(), out_b.data());
        });
      }

      bench::BenchReport::Row& row = emit(fm + " FX", fx_secs);

      // Per-stage breakdown of the LAST execute (stats are per-call; the
      // minimum-timed call differs only by noise). GEMM gets two GFLOP/s
      // figures: raw = Winograd MACs actually executed, effective =
      // direct-equivalent work. Their ratio is the algorithmic saving;
      // raw vs machine peak is the implementation efficiency.
      const ConvPlanStats& st = plan.last_stats();
      const double gemm_raw =
          2.0 * static_cast<double>(p.winograd_macs());
      const double in_tr =
          transform_flops(p, static_cast<double>(s.in_channels));
      const double inv_tr =
          transform_flops(p, static_cast<double>(s.out_channels));
      auto gfs = [](double flops, double secs) {
        return secs > 0 ? flops / secs / 1e9 : 0.0;
      };
      std::printf(
          "%18s in %.2fms (imb %.2f, %.0f GF/s)  gemm %.2fms "
          "(imb %.2f, raw %.0f, eff %.0f GF/s)  inv %.2fms "
          "(imb %.2f, %.0f GF/s)\n",
          "stages:", st.input_transform * 1e3,
          st.input_balance.imbalance(),
          gfs(in_tr, st.input_transform), st.gemm * 1e3,
          st.gemm_balance.imbalance(), gfs(gemm_raw, st.gemm),
          gfs(direct_flops, st.gemm), st.inverse_transform * 1e3,
          st.inverse_balance.imbalance(),
          gfs(inv_tr, st.inverse_transform));
      row.set("input_ms", st.input_transform * 1e3)
          .set("input_imbalance", st.input_balance.imbalance())
          .set("input_gflops", gfs(in_tr, st.input_transform))
          .set("gemm_ms", st.gemm * 1e3)
          .set("gemm_imbalance", st.gemm_balance.imbalance())
          .set("gemm_gflops_raw", gfs(gemm_raw, st.gemm))
          .set("gemm_gflops_effective", gfs(direct_flops, st.gemm))
          .set("inverse_ms", st.inverse_transform * 1e3)
          .set("inverse_imbalance", st.inverse_balance.imbalance())
          .set("inverse_gflops", gfs(inv_tr, st.inverse_transform));
      // Effective per-stage workspace traffic (storage-precision bytes of
      // Û / W / I' — halved under reduced storage) and, on reduced runs,
      // the same-tile fp32 FX baseline.
      row.set("precision", precision_name(st.precision))
          .set("u_bytes", static_cast<double>(st.u_bytes))
          .set("w_bytes", static_cast<double>(st.w_bytes))
          .set("iout_bytes", static_cast<double>(st.iout_bytes));
      if (prec != Precision::kFp32 && fx32_secs > 0) {
        const double speedup = fx32_secs / fx_secs;
        std::printf("%18s fp32 FX %.2f ms → %s FX %.2f ms  (%.2fx)\n",
                    "prec:", fx32_secs * 1e3, precision_name(prec),
                    fx_secs * 1e3, speedup);
        row.set("fp32_ms", fx32_secs * 1e3)
            .set("speedup_vs_fp32", speedup);
      }
      if (hw.valid) {
        std::printf("%18s IPC %.2f  L1D miss/kinst %.2f  LLC miss/kinst "
                    "%.3f  (whole FX timing loop)\n",
                    "perf:", hw.ipc(),
                    1e3 * static_cast<double>(hw.l1d_misses) /
                        static_cast<double>(hw.instructions),
                    1e3 * static_cast<double>(hw.llc_misses) /
                        static_cast<double>(hw.instructions));
        row.set("ipc", hw.ipc())
            .set("cycles", static_cast<double>(hw.cycles))
            .set("instructions", static_cast<double>(hw.instructions))
            .set("l1d_misses", static_cast<double>(hw.l1d_misses))
            .set("llc_misses", static_cast<double>(hw.llc_misses));
      }
    }
    std::printf("\n");
  }

  std::printf("* GFLOP/s is normalized to the DIRECT method's FLOP count, "
              "so Winograd rows can exceed machine peak — that is the "
              "algorithmic saving.\n");

  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    csv << "net,layer,impl,ms,gflops_direct_equiv\n";
    for (const auto& r : csv_rows) csv << r << "\n";
    std::printf("wrote %zu rows to %s (use --json for the per-stage "
                "fields)\n",
                csv_rows.size(), csv_path.c_str());
  }
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
