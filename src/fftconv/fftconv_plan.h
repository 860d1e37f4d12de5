// ondwin::fftconv — first-class FFT convolution engine (ROADMAP item 4).
//
// The same three-stage structure as the Winograd ConvPlan, with the
// Winograd tile transforms replaced by real-input FFTs (overlap-save):
//
//   stage 1  per (tile row, channel group): gather the padded input patch
//            into a lane-blocked real grid, R2C along the last dimension
//            (Hermitian symmetry: binsL = gridL/2+1 bins — half the
//            intermediate footprint), lane FFTs along the leading
//            dimensions, scatter each frequency bin's 16-lane vector into
//            the blocked Û planes (re, im, and a pre-negated im plane);
//   stage 2  per frequency bin f: the complex multiplication
//            X[f] = U[f]·V[f] (rows×C times C×C'), executed as two real
//            GEMM accumulation chains through the PR 1 JIT microkernels —
//            re: U_re·V_re then U_imneg·V_im, im: U_re·V_im then
//            U_im·V_re — each a single k-chain of 2·(C/c_blk) steps with
//            a streaming final store;
//   stage 3  per (tile row, output group): gather the bins back, inverse
//            lane FFTs, C2R, crop the overlap-save valid region (offset
//            kernel−1 per dim) with the bias/ReLU epilogue fused into the
//            store, write the blocked output.
//
// Tiling: each dimension's FFT grid is the next power of two covering the
// full padded problem, capped at 32 — beyond that the image is cut into
// overlap-save tiles of tile_out = grid − kernel + 1 valid outputs, and
// (batch · tiles) becomes the GEMM row dimension, exactly like Winograd
// tile rows. This bounds the frequency-domain kernel bank at
// 2·F·C·C' floats with F ≤ 32^(rank-1)·17 instead of growing with the
// image.
//
// The engine fulfils the same FX/AutoConv contract as ConvPlan:
// set_kernels() once, execute_pretransformed() many on any n ≤ B of the
// compiled batch's samples, blocked layouts in and out.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baseline/direct_conv.h"
#include "core/conv_plan.h"
#include "fftconv/rfft.h"
#include "gemm/batched_gemm.h"
#include "mem/workspace_pool.h"
#include "sched/thread_pool.h"
#include "tensor/layout.h"
#include "transform/epilogue.h"

namespace ondwin::fftconv {

/// Resolved transform geometry for a shape — exposed so the selection
/// cost model predicts exactly the grids/tiling the real plan builds.
struct FftGeometry {
  Dims grid;      // FFT grid per dimension (powers of two, capped)
  Dims tile_out;  // valid outputs per overlap-save tile per dimension
  Dims tiles;     // tiles per dimension
  i64 bins = 0;   // frequency bins F (Hermitian last dimension)
  i64 rows = 0;   // batch · tiles — the GEMM row dimension
};
FftGeometry fft_conv_geometry(const ConvShape& shape);

class FftConvPlan {
 public:
  /// `blocking`: optional n/c/cp overrides (zeros = heuristic; invalid
  /// overrides fall back to the heuristic rather than throwing, so tuner
  /// ladders probing Winograd-flavoured blockings stay safe). `pool`: the
  /// worker pool to run on (see ConvPlan); null = build one of
  /// options.threads.
  FftConvPlan(const ConvShape& shape, const PlanOptions& options = {},
              const Blocking& blocking = {},
              std::shared_ptr<ThreadPool> pool = nullptr);
  ~FftConvPlan();

  FftConvPlan(const FftConvPlan&) = delete;
  FftConvPlan& operator=(const FftConvPlan&) = delete;

  /// Transforms the blocked kernel bank (shape's KernelLayout) into the
  /// frequency-domain V planes. Afterwards execute_pretransformed()
  /// reuses them — the FX inference mode.
  void set_kernels(const float* kernels_blocked);

  /// `input`/`output`: blocked image batches of the first `n` samples
  /// (n = 0: all shape().batch; as ConvPlan::execute_pretransformed).
  /// Fuses the bias/ReLU epilogue into the stage-3 store; pooled
  /// epilogues are not supported (checked) — the planner only routes them
  /// to Winograd.
  void execute_pretransformed(const float* input, float* output,
                              const Epilogue& epilogue = {}, i64 n = 0);

  bool kernels_ready() const { return !v_.empty(); }
  const ConvShape& shape() const { return shape_; }

  // Resolved geometry (tests / cost-model validation).
  const Dims& grid() const { return grid_; }
  const Dims& tiles() const { return tiles_; }
  i64 bins() const { return bins_; }       // F: frequency bins (Hermitian)
  i64 rows() const { return rows_; }       // batch · tiles (compiled batch)
  const Blocking& blocking() const { return blocking_; }

  i64 workspace_bytes() const;

 private:
  // `rows`: the n-sample execution's n · tiles GEMM rows.
  void transform_input_task(int tid, int threads, i64 rows,
                            const float* input);
  void gemm_task(int tid, int threads, i64 rows);
  void inverse_task(int tid, int threads, i64 rows, float* output,
                    const Epilogue& epilogue);
  void forward_grid(float* realg, float* fre, float* fim) const;

  ConvShape shape_;
  PlanOptions options_;
  ImageLayout in_layout_, out_layout_;
  KernelLayout kernel_layout_;

  Dims grid_;         // FFT grid per dimension (powers of two)
  Dims tiles_;        // overlap-save tiles per dimension
  Dims tile_out_;     // valid outputs per tile per dimension
  Dims freq_extent_;  // grid with the last dim reduced to binsL
  i64 bins_ = 0;      // F = freq_extent_.product()
  i64 rows_ = 0;      // batch · tiles
  i64 rows_padded_ = 0;  // rows rounded up to n_blk
  i64 grid_floats_ = 0;  // grid_.product()
  i64 freq_floats_ = 0;  // freq_extent_.product() (== bins_)

  Blocking blocking_;
  i64 kb_ = 0, jb_ = 0;  // C/c_blk, C'/cp_blk

  std::vector<std::shared_ptr<const FftTables>> lead_tables_;  // dims 0..r-2
  RealFft1d rfft_;

  std::unique_ptr<KernelSet> kernels_;
  std::shared_ptr<ThreadPool> pool_;

  // Û (re, im, −im) then X̂ (re, im) planes, each bins_·rows_padded_·C
  // (resp. ·C') floats, checked out of the global workspace pool once.
  mem::Workspace work_;
  mem::Workspace scratch_;  // per-thread transform scratch
  i64 plane_u_ = 0, plane_x_ = 0, scratch_per_thread_ = 0;

  // Frequency-domain kernel bank: V_re then V_im, each bins_·C·C'.
  AlignedBuffer<float> v_;
};

/// Process-wide counters for /statusz and tests.
struct FftconvTotals {
  u64 plans = 0;           // FftConvPlan instances constructed
  u64 executes = 0;        // execute_pretransformed calls
  u64 selected_fft = 0;    // planner decisions that chose FFT
  u64 selected_other = 0;  // planner decisions that chose another class
  i64 workspace_bytes = 0; // currently-live fftconv workspace
};
FftconvTotals fftconv_totals();

/// Called by the selection planner after every decision; feeds the
/// selected-vs-winograd counters without making fftconv depend on select.
void note_selection(const char* algorithm_name);

/// Human-readable block for the /statusz debug page.
std::string statusz_report();

}  // namespace ondwin::fftconv
