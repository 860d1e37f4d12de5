// Tunable knobs of the Winograd convolution plan. Defaults reproduce the
// paper's configuration; the ablation benches flip individual flags.
#pragma once

#include <string>

#include "util/common.h"
#include "util/precision.h"

namespace ondwin {

/// Execution structure of a plan (paper §4 staged vs fused tile blocks).
enum class FusionMode : u8 {
  /// Decide per shape: fuse when one sample's tiles fill a row block per
  /// thread and V̂ is under six row blocks' Û+X̂ (ConvPlan::choose_fusion),
  /// stay staged otherwise.
  kAuto,
  /// Four fork–join stages with global barriers; V̂/X̂ are full tensors.
  /// This is the paper's original structure and the correctness oracle.
  kStaged,
  /// Cache-resident pipeline: each thread drives its tile blocks through
  /// input-transform → GEMM → (scatter) → inverse back-to-back with no
  /// global stage barriers; V̂/X̂ shrink to per-thread block scratch.
  kFused,
};

struct PlanOptions {
  /// Total threads (including the calling thread). 0 = hardware threads.
  /// A plan built on a lent pool (graph::Executor lends one to all its
  /// conv steps) runs at that pool's size instead.
  int threads = 0;

  /// Use the JIT AVX-512 GEMM microkernels (falls back to the portable
  /// reference kernel automatically when the host lacks AVX-512).
  bool use_jit = true;

  /// JIT-compile the tile transforms as well (plan-time lowering of each
  /// whole-tile pipeline, and of the interior inverse tiles' epilogue, to
  /// native code; falls back to the interpreting executor and the staged
  /// epilogue store when unavailable).
  bool jit_transforms = true;

  /// Non-temporal streaming stores for transform outputs (paper §4.2.1;
  /// ablation E6).
  bool streaming_stores = true;

  /// Scatter stage-2 results to the stage-3 layout inside the JIT kernel
  /// (paper §4.3.1, "+20% overall"; ablation E7). When false, a separate
  /// copy pass reshapes I'_tmp into I'.
  bool scatter_in_gemm = true;

  /// Apply the Fig. 2 even/odd codelet reduction (ablation E5).
  bool codelet_pairing = true;

  /// Staged barriers vs fused cache-resident tile blocks (see FusionMode).
  FusionMode fusion = FusionMode::kAuto;

  /// Storage precision of the transformed intermediates Û, W, and I'
  /// (bf16/fp16 words instead of fp32) — accumulation stays fp32
  /// throughout, and the image input, kernels, and output keep their fp32
  /// layouts. Halves the workspace footprint and the stage-2 streaming
  /// traffic; on AVX512_BF16 hosts the bf16 GEMM runs on vdpbf16ps.
  /// Values are bitwise identical across the JIT and emulated paths and
  /// across staged/fused execution. See DESIGN.md §15.
  Precision precision = Precision::kFp32;

  /// Blocking overrides; 0 = heuristic. Constraints (checked by
  /// ConvPlan::choose_blocking): n_blk ∈ [1,30]; c_blk | C; cp_blk | C';
  /// both multiples of 16 with c_blk·cp_blk ≤ 128².
  int n_blk = 0;
  int c_blk = 0;
  int cp_blk = 0;

  /// Fused-mode tile-block size in row blocks of n_blk tiles each; 0 =
  /// heuristic (one row block, see ConvPlan::choose_fusion).
  /// Ignored when the plan resolves to staged execution.
  int fuse_blk = 0;

  /// Check the Û/I'_tmp/I' workspaces out of the shared
  /// mem::WorkspacePool instead of private allocations: plans of one
  /// shape constructed repeatedly (tuner, selection planner) recycle
  /// slabs — and the hugepage
  /// promotions already paid for — instead of re-faulting them. Off =
  /// the legacy private-allocation path (the mem tests' bitwise oracle).
  bool pooled_workspace = true;

  /// Page-in each workspace partition (and build each thread's scratch)
  /// on the pool thread that owns it per the static schedule, so
  /// first-touch places pages on the owning thread's NUMA node. Only
  /// affects placement, never values. Ignored when pooled_workspace is
  /// off (the legacy path keeps legacy first-touch too).
  bool numa_first_touch = true;

  /// Wisdom file of the selection planner (FFTW-style, paper §4.3.2):
  /// select_config reads and writes its decisions there, and the machine
  /// calibration lives there too (select/wisdom2.h). Read by the planner
  /// only — ConvPlan and auto_tune never open it. Empty = no wisdom.
  std::string wisdom_path;
};

}  // namespace ondwin
