// AutoConv: a uniform blocked-layout executor over the three algorithmic
// classes the selection planner chooses between. Whatever the planner
// picked, callers see the ConvPlan FX contract — set_kernels() once,
// execute_pretransformed() many on any n ≤ B of the compiled batch,
// blocked layouts in and out, fused bias/ReLU epilogue — so graph conv
// nodes can hold an AutoConv wherever they held a ConvPlan.
//
//   Winograd  → ConvPlan with the selected tile_m and blocking overrides
//   direct    → DirectConvBlocked (epilogue applied as a post-pass)
//   FFT       → fftconv::FftConvPlan — native blocked layouts, R2C
//               overlap-save transforms, JIT complex GEMM, fused epilogue
#pragma once

#include <memory>

#include "baseline/direct_conv_blocked.h"
#include "core/conv_plan.h"
#include "fftconv/fftconv_plan.h"
#include "select/cost_model.h"

namespace ondwin::select {

/// The planner's decision, ready to construct an executor from.
struct SelectedConfig {
  Algorithm algorithm = Algorithm::kWinograd;
  Dims tile_m;        // rank 0 for non-Winograd algorithms
  Blocking blocking;  // zeros = plan-time heuristic
  /// Storage precision the executor runs at: the *requested* precision
  /// (SelectOptions::plan.precision), demoted to fp32 when the selected
  /// tile's storage-error proxy exceeds SelectOptions::max_storage_err —
  /// the planner never emits a budget-violating precision. kFp32 falls
  /// through to PlanOptions::precision like the zero blocking fields do.
  Precision precision = Precision::kFp32;
  double seconds = 0;        // best measured wall time (0 if unmeasured)
  bool from_wisdom = false;  // decision served from wisdom v2
  int measured = 0;          // executor benchmarks the call performed
};

/// Applies a fused-epilogue-equivalent pass (per-channel bias, ReLU) over
/// a blocked image batch in place. The Winograd path fuses this into
/// stage 3; the baseline classes run it here.
void apply_epilogue_blocked(const ImageLayout& layout, float* data,
                            const Epilogue& epilogue);

class AutoConv {
 public:
  /// `pool` is lent to the backend (see ConvPlan); null = the backend
  /// builds its own of options.threads.
  AutoConv(const ConvShape& shape, const SelectedConfig& config,
           const PlanOptions& options = {},
           std::shared_ptr<ThreadPool> pool = nullptr);
  ~AutoConv();

  AutoConv(const AutoConv&) = delete;
  AutoConv& operator=(const AutoConv&) = delete;

  /// Memoizes `kernels` (blocked bank, shape's kernel_layout()) in the
  /// algorithm's preferred form: transformed W (Winograd), the
  /// frequency-domain bank (FFT), or a plain copy (direct).
  void set_kernels(const float* kernels_blocked);

  /// Requires set_kernels first. Runs the first `n` samples (0 = all of
  /// shape().batch), as ConvPlan::execute_pretransformed.
  void execute_pretransformed(const float* input, float* output,
                              const Epilogue& epilogue = {}, i64 n = 0);

  bool kernels_ready() const { return kernels_ready_; }
  const ConvShape& shape() const { return shape_; }
  const SelectedConfig& config() const { return config_; }

  /// The wrapped ConvPlan (nullptr unless Winograd-backed).
  ConvPlan* winograd_plan() { return plan_.get(); }

  i64 workspace_bytes() const;

 private:
  ConvShape shape_;
  SelectedConfig config_;

  // Exactly one backend is non-null, per config_.algorithm.
  std::unique_ptr<ConvPlan> plan_;
  std::unique_ptr<DirectConvBlocked> direct_;
  std::unique_ptr<fftconv::FftConvPlan> fft_;

  // direct: blocked weight copy.
  AlignedBuffer<float> w_blocked_;
  bool kernels_ready_ = false;
};

}  // namespace ondwin::select
