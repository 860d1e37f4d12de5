// Algorithm-selection crossover: the fixed historical default — Winograd
// F(2, r) with auto-tuned blocking — versus the selection planner
// (select::plan_auto), which may answer with a larger tile, the blocked
// direct baseline, or FFT convolution depending on the layer.
//
//   $ ./bench_select_crossover [--full] [--csv out.csv] [--wisdom file]
//                              [--json out.json]
//
// Layers: the Fig. 5 / Tbl. 2 set (2-D and 3-D), plus a large-kernel
// layer (7×7, r ≥ 7) outside the paper's tables — exactly where F(2, 7)'s
// transform overhead and accuracy penalty make the crossover interesting.
//
// Both contenders are measured through the same harness on the same
// buffers. Expected shape: the planner never loses (the F(2, r) default
// is pinned into its measurement short list), and wins big where a larger
// tile amortizes transforms over more output (high-resolution batch-1
// layers) or where Winograd's tile count explodes (3-D, large kernels).
// With --wisdom the second run of this binary does no selection
// measurements — the planner's decisions come back from the wisdom cache
// (contender 1's auto_tune still measures: the tuner persists nothing).
//
// --json additionally records the calibrated cost model's predictions
// next to the measurements: per layer, the predicted seconds for the best
// candidate of each algorithm class (CostEstimate::seconds from the
// bandwidth-aware model) and an explicitly measured FFT-engine run, so
// the document shows whether the model put the Winograd↔FFT crossover on
// the same side the hardware did.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "layers.h"
#include "ondwin/ondwin.h"
#include "report.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ondwin;

namespace {

std::string config_label(const select::SelectedConfig& sel) {
  std::string label = select::algorithm_name(sel.algorithm);
  if (sel.algorithm == select::Algorithm::kWinograd) {
    label += " F" + sel.tile_m.to_string();
  }
  return label;
}

/// Predicted seconds of the cheapest enumerated candidate of `algo`
/// (calibrated model), or 0 when the class was not enumerated.
double predicted_secs(const std::vector<select::Candidate>& cands,
                      select::Algorithm algo) {
  for (const auto& c : cands) {
    if (c.algorithm == algo) return c.est.seconds;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  std::string csv_path;
  std::string wisdom_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) full = true;
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    }
    if (std::strcmp(argv[i], "--wisdom") == 0 && i + 1 < argc) {
      wisdom_path = argv[++i];
    }
  }

  const std::string json_path = bench::json_flag(argc, argv);

  std::vector<BenchLayer> layers = table2_layers(full);
  // The crossover cases the paper's tables don't cover: a large kernel
  // (r = 7 per dimension: F(2,7) has α = 8, so Winograd spends 4× more
  // input-transform volume per output than F(2,3)) at two batch sizes.
  // ... and past the Winograd-viable range entirely: r = 11 forces
  // α = 12 even at m = 2, where the transform does 36 points of work per
  // output point and the Vandermonde conditioning is hopeless — the
  // territory FFT convolution owns (the working set spills L2: the
  // frequency-domain kernel bank alone is several MB).
  if (full) {
    layers.push_back({"LargeK", "7x7",
                      layer(8, 64, 64, {112, 112}, {3, 3}, {7, 7})});
    layers.push_back({"LargeK", "11x11",
                      layer(8, 64, 64, {112, 112}, {5, 5}, {11, 11})});
  } else {
    layers.push_back(
        {"LargeK", "7x7", layer(1, 32, 32, {40, 40}, {3, 3}, {7, 7})});
    layers.push_back(
        {"LargeK", "7x7b4", layer(4, 32, 32, {40, 40}, {3, 3}, {7, 7})});
    layers.push_back(
        {"LargeK", "11x11", layer(4, 32, 32, {40, 40}, {5, 5}, {11, 11})});
  }

  PlanOptions plan;
  plan.wisdom_path = wisdom_path;

  std::printf("== selection crossover: fixed F(2,r)+tuned blocking vs "
              "plan_auto (%s sizes) ==\n",
              full ? "paper" : "CI");
  std::printf("%-10s %-6s %10s %10s %8s  %-18s\n", "net", "layer",
              "fixed ms", "auto ms", "speedup", "selected");

  std::ofstream csv;
  if (!csv_path.empty()) {
    csv.open(csv_path);
    csv << "net,layer,fixed_ms,auto_ms,speedup,selected\n";
  }

  bench::BenchReport report("select_crossover");
  Rng rng(2026);
  double worst = 1e300, best = 0;
  int crossovers = 0, crossovers_agree = 0;
  for (const auto& L : layers) {
    const ConvShape& s = L.shape;
    const int rank = s.image.rank();

    const ImageLayout in_l{s.batch, s.in_channels, s.image};
    const ImageLayout out_l{s.batch, s.out_channels, s.output()};
    const KernelLayout k_l{s.in_channels, s.out_channels, s.kernel};
    AlignedBuffer<float> in_b(static_cast<std::size_t>(in_l.total_floats()));
    AlignedBuffer<float> w_b(static_cast<std::size_t>(k_l.total_floats()));
    AlignedBuffer<float> out_b(
        static_cast<std::size_t>(out_l.total_floats()));
    for (auto& v : in_b) v = rng.uniform(-1.0f, 1.0f);
    for (auto& v : w_b) v = rng.gaussian(0.0f, 0.05f);

    // Contender 1: the historical fixed choice — F(2, r) with blocking
    // from the §4.3.2 empirical search.
    ConvProblem p;
    p.shape = s;
    p.tile_m = Dims::filled(rank, 2);
    const TuneResult tuned = auto_tune(p, plan, /*budget_seconds=*/1.0);
    PlanOptions fixed_opts = plan;
    fixed_opts.n_blk = tuned.best.n_blk;
    fixed_opts.c_blk = tuned.best.c_blk;
    fixed_opts.cp_blk = tuned.best.cp_blk;
    ConvPlan fixed_plan(p, fixed_opts);
    fixed_plan.set_kernels(w_b.data());

    // Contender 2: the planner.
    select::SelectOptions sopts;
    sopts.plan = plan;
    // Per measured candidate this is an even share across the ~4-entry
    // shortlist — sized so the planner's blocking search for the pinned
    // F(2, r) default gets the same time contender 1's dedicated
    // auto_tune call does, keeping the head-to-head fair.
    sopts.budget_seconds = 4.0;
    const select::SelectedConfig sel = select::select_config(s, sopts);
    select::AutoConv auto_conv(s, sel, plan);
    auto_conv.set_kernels(w_b.data());

    // ... and the FFT engine explicitly, for the predicted-vs-measured
    // crossover below (auto covers it only when the planner picked it).
    select::SelectedConfig fft_cfg;
    fft_cfg.algorithm = select::Algorithm::kFft;
    select::AutoConv fft_conv(s, fft_cfg, plan);
    fft_conv.set_kernels(w_b.data());

    // Interleaved best-of-N: alternating short windows per contender, so
    // an external load burst (shared CI hosts) degrades every contender's
    // window equally instead of poisoning whichever happened to be on the
    // clock — a separate 50 ms block per contender flips verdicts on
    // sub-2 ms layers.
    const auto fixed_fn = [&] {
      fixed_plan.execute_pretransformed(in_b.data(), out_b.data());
    };
    const auto auto_fn = [&] {
      auto_conv.execute_pretransformed(in_b.data(), out_b.data());
    };
    const auto fft_fn = [&] {
      fft_conv.execute_pretransformed(in_b.data(), out_b.data());
    };
    fixed_fn();  // warm-up (first-touch, JIT, workspace checkout)
    auto_fn();
    fft_fn();
    double fixed_secs = 1e300, auto_secs = 1e300, fft_secs = 1e300;
    for (int round = 0; round < 8; ++round) {
      fixed_secs =
          std::min(fixed_secs, bench_min_seconds(fixed_fn, 0.015, 1));
      auto_secs = std::min(auto_secs, bench_min_seconds(auto_fn, 0.015, 1));
      fft_secs = std::min(fft_secs, bench_min_seconds(fft_fn, 0.015, 1));
    }

    const double speedup = fixed_secs / auto_secs;
    worst = std::min(worst, speedup);
    best = std::max(best, speedup);
    const std::string label = config_label(sel);
    std::printf("%-10s %-6s %10.2f %10.2f %7.2fx  %-18s%s\n", L.net.c_str(),
                L.name.c_str(), fixed_secs * 1e3, auto_secs * 1e3, speedup,
                label.c_str(), sel.from_wisdom ? " (wisdom)" : "");
    if (csv.is_open()) {
      csv << L.net << ',' << L.name << ',' << fixed_secs * 1e3 << ','
          << auto_secs * 1e3 << ',' << speedup << ',' << label << '\n';
    }

    // Predicted vs measured Winograd↔FFT crossover: the calibrated model
    // prices every enumerated candidate in seconds; check its verdict
    // lands on the same side the interleaved measurements did.
    const std::vector<select::Candidate> cands =
        select::enumerate_candidates(s, sopts);
    const double pred_fft = predicted_secs(cands, select::Algorithm::kFft);
    const double pred_wino =
        predicted_secs(cands, select::Algorithm::kWinograd);
    const double pred_direct =
        predicted_secs(cands, select::Algorithm::kDirect);
    // Best measured Winograd: the pinned F(2, r) default, improved by the
    // planner's pick when that pick was itself a Winograd tile.
    double wino_secs = fixed_secs;
    if (sel.algorithm == select::Algorithm::kWinograd) {
      wino_secs = std::min(wino_secs, auto_secs);
    }
    const bool measured_fft_wins = fft_secs < wino_secs;
    const bool predicted_fft_wins =
        pred_fft > 0 && pred_wino > 0 && pred_fft < pred_wino;
    const bool agree = measured_fft_wins == predicted_fft_wins;
    ++crossovers;
    crossovers_agree += agree ? 1 : 0;
    std::printf("    fft %8.2f ms vs wino %8.2f ms  (predicted %8.2f vs "
                "%8.2f) — model %s\n",
                fft_secs * 1e3, wino_secs * 1e3, pred_fft * 1e3,
                pred_wino * 1e3, agree ? "agrees" : "DISAGREES");

    report.row()
        .set("net", L.net)
        .set("layer", L.name)
        .set("fixed_ms", fixed_secs * 1e3)
        .set("auto_ms", auto_secs * 1e3)
        .set("speedup", speedup)
        .set("selected", label)
        .set("from_wisdom", sel.from_wisdom)
        .set("fft_ms", fft_secs * 1e3)
        .set("wino_best_ms", wino_secs * 1e3)
        .set("predicted_fft_ms", pred_fft * 1e3)
        .set("predicted_wino_ms", pred_wino * 1e3)
        .set("predicted_direct_ms", pred_direct * 1e3)
        .set("measured_fft_wins", measured_fft_wins)
        .set("predicted_fft_wins", predicted_fft_wins)
        .set("crossover_agrees", agree);
  }

  std::printf("\nspeedup range: %.2fx .. %.2fx (>= 1.0 everywhere means "
              "the planner never loses to the fixed default)\n",
              worst, best);
  std::printf("crossover agreement: %d/%d layers (calibrated model puts "
              "the Winograd-vs-FFT verdict on the measured side)\n",
              crossovers_agree, crossovers);
  if (!json_path.empty()) {
    if (!report.write_json(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu rows)\n", json_path.c_str(), report.size());
  }
  return 0;
}
