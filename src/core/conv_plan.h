// The N-D Winograd convolution engine (paper §4): plan once, execute many.
//
// A plan owns everything derived from the problem shape: the Cook–Toom
// transform programs, the JIT GEMM kernels, the statically scheduled task
// grids, the worker pool, and the auxiliary buffers (I, W, I'_tmp, I').
// Staged execution runs the paper's three stages, each as one fork–join:
//
//   stage 1   input tile transform     image  → I      (+ kernels → W)
//   stage 2   T batched GEMMs          I × W  → I'     (scatter in-kernel)
//   stage 3   inverse tile transform   I'     → output image
//
// A plan compiled for B samples executes any n ≤ B of them: the batch
// only sets how many tile rows the stage grids hold (N·n), all layouts
// are batch-major, so the workspaces sized for B hold every n-sample
// offset unchanged, and W does not depend on the batch at all.
//
// Fused execution (PlanOptions::fusion) removes the global barriers: the
// tile grid is cut into per-thread runs of tile blocks small enough that a
// block's Û and X̂ panels stay L2-resident next to V̂, and each thread
// drives its blocks through transform → GEMM → inverse back-to-back — I
// and I' shrink from full tensors to per-thread block scratch, so the
// transformed activations never leave the L2 between stages.
//
// Inputs/outputs use the SIMD-blocked layouts of tensor/layout.h, so the
// output of one plan feeds the next plan without reshuffling.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/conv_problem.h"
#include "core/plan_options.h"
#include "gemm/batched_gemm.h"
#include "mem/workspace_pool.h"
#include "sched/static_schedule.h"
#include "sched/thread_pool.h"
#include "transform/epilogue.h"
#include "transform/tile_pipeline.h"
#include "util/aligned.h"
#include "util/timer.h"

namespace ondwin {

/// Per-thread load balance of one fork–join stage: the stage's wall time
/// is its slowest participant, so max/mean task time is exactly the
/// efficiency the static scheduler (paper §4.5) claims to deliver —
/// imbalance() == 1.0 is a perfect partition, 2.0 means half the pool
/// idled at the join barrier.
struct StageBalance {
  double max_s = 0;   // slowest participant
  double mean_s = 0;  // average over all pool participants
  double imbalance() const { return mean_s > 0 ? max_s / mean_s : 1.0; }
};

/// Per-stage seconds of the last execute() call, plus the per-thread
/// balance of every stage. execute_pretransformed() transforms no kernels
/// and reports kernel_transform = 0; kernel_balance keeps describing the
/// last kernel transform (set_kernels() or execute()).
///
/// Staged execution times each fork–join with wall clocks between the
/// barriers. Fused execution has no barriers between stages — the stages
/// of different tile blocks interleave freely — so there the per-stage
/// seconds come from thread-local accumulators: each thread sums the time
/// its own blocks spent in each stage, and the reported stage times are
/// those of the critical thread — the one whose blocks took longest — so
/// the stages sum to ≈ the execute wall time even on an unbalanced run, as
/// the staged barrier-to-barrier times do. `fused` records which
/// accounting produced the numbers; StageBalance is max/mean of the
/// per-thread figures either way.
struct ConvPlanStats {
  double input_transform = 0;
  double kernel_transform = 0;
  double gemm = 0;
  double scatter_copy = 0;  // only when scatter_in_gemm is off
  double inverse_transform = 0;
  bool fused = false;  // true: thread-local accumulation (see above)
  double total() const {
    return input_transform + kernel_transform + gemm + scatter_copy +
           inverse_transform;
  }

  /// Storage precision of the transformed intermediates during the last
  /// execute, and the effective per-stage workspace traffic it implies:
  /// bytes the input transform wrote into Û, the W bytes one GEMM k-sweep
  /// reads, and the bytes the final store wrote into I' (which the inverse
  /// reads back). Reduced-precision storage halves all three relative to
  /// the same shape at fp32 — the quantity the Fig. 5 bandwidth model is
  /// built on.
  Precision precision = Precision::kFp32;
  i64 u_bytes = 0;
  i64 w_bytes = 0;
  i64 iout_bytes = 0;

  StageBalance input_balance;
  StageBalance kernel_balance;
  StageBalance gemm_balance;
  StageBalance scatter_balance;
  StageBalance inverse_balance;
};

/// Resolved blocking parameters (explicit overrides, else the heuristic).
/// `f_blk` is the fused-mode tile-block size (row blocks per block); it
/// rides along with the GEMM blocking through the tuner and wisdom v2 but
/// is not part of the legacy v1 wisdom line (0 = heuristic).
struct Blocking {
  int n_blk = 0;
  int c_blk = 0;
  int cp_blk = 0;
  int f_blk = 0;
};

/// Resolved execution structure of a plan (see PlanOptions::fusion and
/// ConvPlan::choose_fusion): how the tile grid is cut into per-thread
/// blocks, or that the plan runs the classic four-stage fork–join pipeline.
struct FusionPolicy {
  bool fused = false;
  int f_blk = 0;       // row blocks of n_blk tiles per fused block
  i64 blocks = 0;      // ⌈(NB/n_blk) / f_blk⌉ tile blocks (reported only)
  i64 scratch_floats = 0;  // per-thread Û+X̂ block scratch (0 when staged)
};

class ConvPlan {
 public:
  /// `pool`: the worker pool to run on, typically one lent by a
  /// graph::Executor to all its conv steps; its size() is the plan's
  /// thread count. Null = the plan builds its own of options.threads.
  ConvPlan(const ConvProblem& problem, const PlanOptions& options = {},
           std::shared_ptr<ThreadPool> pool = nullptr);
  ~ConvPlan();

  ConvPlan(const ConvPlan&) = delete;
  ConvPlan& operator=(const ConvPlan&) = delete;

  /// Full convolution including the kernel transform (training mode).
  /// `input`: blocked image batch (problem.input_layout());
  /// `kernels`: blocked kernel bank (problem.kernel_layout());
  /// `output`: blocked image batch (problem.output_layout()) — unless the
  /// epilogue fuses a max-pool (Epilogue::pool_window > 1), in which case
  /// `output` is the POOLED image: out_dims[d] / pool_window per
  /// dimension, same batch/channels. A pooled epilogue requires
  /// tile_m[d] % pool_window == 0 for every dimension (checked).
  void execute(const float* input, const float* kernels, float* output,
               const Epilogue& epilogue = {});

  /// Transforms `kernels` into the internal W buffer. Afterwards
  /// execute_pretransformed() reuses it — the paper's "FX" inference mode.
  void set_kernels(const float* kernels);

  /// Convolution with memoized kernel transforms (requires set_kernels or
  /// a prior execute()) over the first `n` samples of the batch: `input`
  /// and `output` hold n samples in the plan's layouts (batch-major, so
  /// sample i sits where it sits in a full batch). n = 0 runs all
  /// problem().shape.batch samples; otherwise 1 ≤ n ≤ that batch. Sample
  /// i's output does not depend on n.
  void execute_pretransformed(const float* input, float* output,
                              const Epilogue& epilogue = {}, i64 n = 0);

  /// True once set_kernels()/execute() provided W.
  bool kernels_ready() const { return kernels_ready_; }

  const ConvProblem& problem() const { return problem_; }
  const PlanOptions& options() const { return options_; }
  const Blocking& blocking() const { return blocking_; }
  const FusionPolicy& fusion_policy() const { return fusion_; }
  /// Storage precision of Û/W/I' (PlanOptions::precision as resolved).
  Precision precision() const { return prec_; }
  int threads() const { return pool_->size(); }
  const ConvPlanStats& last_stats() const { return stats_; }

  /// Resolves `mode` for `problem` under `blocking` — a pure function of
  /// its arguments, so the rule is testable for any host. A tile block is
  /// one row block unless blocking.f_blk pins more. kAuto fuses when one
  /// sample's tiles fill at least one row block per thread (the unit the
  /// fused schedule partitions; a plan runs any n ≤ batch samples, so a
  /// lone sample must keep every thread busy too) and V̂ is under six
  /// row blocks' Û+X̂ (see the rule's comment). It reads no batch size
  /// beyond the blocking, so a plan runs the same schedule at every n.
  static FusionPolicy choose_fusion(const ConvProblem& problem,
                                    const Blocking& blocking, int threads,
                                    FusionMode mode, Precision precision);

  /// The blocking a plan of `problem` at `precision` runs with — the one
  /// place the blocking rule lives. Non-zero fields of `requested` are
  /// kept (fp16 clamps n_blk to its 29 accumulators); zero fields take
  /// the heuristic: n_blk minimising padding waste, c_blk/cp_blk the
  /// largest multiple of 16 ≤ 128 dividing C/C'. Returns nullopt, with
  /// the reason in `*why` when non-null, for a blocking no plan can run:
  /// n_blk outside [1, 30], c_blk/cp_blk not a multiple of 16 dividing
  /// C/C', c_blk·cp_blk > 128², or a negative f_blk. The constructor
  /// throws on exactly these; wisdom lookups count them as misses.
  static std::optional<Blocking> choose_blocking(const ConvProblem& problem,
                                                 Blocking requested,
                                                 Precision precision,
                                                 std::string* why = nullptr);

  /// Auxiliary buffer footprint in bytes (paper §4.4 "Memory overhead").
  i64 workspace_bytes() const;

  /// Seconds the construction-time first-touch pass spent paging the
  /// workspaces in on their owning threads (0 when it did not run — see
  /// PlanOptions::numa_first_touch).
  double first_touch_seconds() const { return first_touch_seconds_; }

  /// Bytes of the staged workspaces currently backed by huge pages
  /// (reads /proc/self/smaps — probe after the buffers were touched).
  std::size_t workspace_hugepage_bytes() const {
    std::size_t n = 0;
    for (const mem::Workspace* w : {&buf_i_, &buf_itmp_, &buf_iout_}) {
      n += w->hugepage_coverage();
    }
    return n;
  }

  /// Slab bytes actually backing the staged workspaces (size-class and
  /// hugepage rounding included) — the denominator for
  /// workspace_hugepage_bytes(); >= workspace_bytes().
  std::size_t workspace_slab_bytes() const {
    std::size_t n = 0;
    for (const mem::Workspace* w : {&buf_i_, &buf_itmp_, &buf_iout_}) {
      n += w->slab_bytes();
    }
    return n;
  }

 private:
  struct ThreadScratch;

  /// The task grids of an n-sample execution, statically partitioned
  /// among the pool's threads. Staged plans fill input/gemm/copy/inverse;
  /// fused plans fill `fused`, the 1-D list of row blocks each thread owns
  /// a contiguous run of.
  struct Grids {
    i64 nb = 0;  // N·n tile rows
    i64 ib = 0;  // ⌈nb / n_blk⌉ row blocks
    std::vector<GridBox> input, gemm, copy, inverse, fused;
  };

  void build_programs();
  void build_pipelines();
  void build_kernels();
  /// The grids of an n-sample execution.
  Grids grids(i64 n) const;
  void allocate_buffers();
  void build_scratch();
  void first_touch_workspaces();

  void stage_input_transform(const float* input, const Grids& g);
  void stage_kernel_transform(const float* kernels);
  /// Converts the fp32 W into w_red_'s bf16/fp16 blocks (bf16
  /// pair-interleaved for vdpbf16ps) after stage_kernel_transform.
  void convert_kernel_storage();
  void stage_gemm(const Grids& g);
  void stage_scatter_copy(const Grids& g);
  void stage_inverse_transform(float* output, const Epilogue& epilogue,
                               const Grids& g);

  void execute_staged(const float* input, float* output,
                      const Epilogue& epilogue, const Grids& g);
  void execute_fused(const float* input, float* output,
                     const Epilogue& epilogue, const Grids& g);
  void fused_block(int tid, i64 iblk0, i64 iblk1, i64 nb, const float* input,
                   float* output, const Epilogue& epilogue);

  void input_transform_task(int tid, i64 b, i64 cg,
                            const std::array<i64, kMaxGridRank>& tile_coord,
                            const float* input, float* i_buf, i64 iblk_base);
  void kernel_transform_task(int tid, i64 c, i64 g, const float* kernels);
  void gemm_task(int tid, const GridBox& box, i64 t, i64 j, i64 i);
  void inverse_transform_task(int tid, i64 np, i64 g, const float* iout_buf,
                              i64 np_base, float* output,
                              const Epilogue& epilogue);
  /// Spatial extents of the plane an execute writes: the output, or
  /// out_dims / pool_window under a pooled epilogue.
  Dims output_plane(const Epilogue& epilogue) const;
  /// The interior inverse kernel with `epilogue` inside, compiled on first
  /// use (nullptr when inactive or not JIT-compilable; such tiles take the
  /// staged store path).
  const TilePipeline* epilogue_pipeline(const Epilogue& epilogue);

  ConvProblem problem_;
  PlanOptions options_;
  Blocking blocking_;
  FusionPolicy fusion_;

  // Geometry (cached from problem_ + blocking_).
  int rank_ = 0;
  Dims alpha_;          // tile extents per dim
  Dims tiles_;          // tile counts per dim
  Dims out_dims_;       // output spatial extents
  i64 tile_count_ = 0;  // N
  i64 t_elems_ = 0;     // T
  i64 nb_ = 0;          // N·B of the compiled batch B
  i64 nb_pad_ = 0;      // NB rounded up to n_blk (sizes the workspaces)
  i64 ib_ = 0, kb_ = 0, jb_ = 0;  // block counts at B: rows, C, C'
  i64 in_groups_ = 0, out_groups_ = 0;

  // Transform programs per dimension and their stride-frozen pipelines.
  // Under fusion the input pipelines are built with plain (cacheable)
  // stores instead of the staged mode's non-temporal ones: the block
  // scratch they write is consumed immediately by the same thread's GEMM,
  // so streaming stores would evict exactly the lines fusion keeps hot.
  std::vector<TransformProgram> bt_, g_, at_;
  std::unique_ptr<TilePipeline> pipe_in_interior_, pipe_in_border_,
      pipe_kernel_, pipe_inv_interior_, pipe_inv_border_;
  // Interior inverse kernels with the epilogue inside, one per (relu,
  // pool window) an execute asked for; `inv_epilogue_` is the one the
  // current execute runs (null: staged store path).
  struct EpiloguePipeline {
    bool relu = false;
    i64 pool_window = 0;
    std::unique_ptr<TilePipeline> pipe;
  };
  std::vector<EpiloguePipeline> pipe_inv_epilogue_;
  const TilePipeline* inv_epilogue_ = nullptr;

  // GEMM kernels (+ the fused per-block driver when fusion_.fused).
  std::unique_ptr<KernelSet> kernels_;
  std::unique_ptr<FusedBlockGemm> fused_gemm_;

  // Buffers. The staged workspaces come from the shared
  // mem::WorkspacePool (PlanOptions::pooled_workspace), are sized for the
  // compiled batch, and are paged in on their owning threads per its
  // static schedule. W (`w_`) is allocated by the first set_kernels().
  // Under a reduced precision, buf_i_ and buf_iout_ hold bf16/fp16 words
  // (u16, reinterpret_cast at the access sites) in half the footprint —
  // the Workspace is checked out as elems/2 floats. buf_itmp_ (the k-loop
  // accumulator) always stays fp32 so accumulation never re-rounds, and
  // w_red_* carries the converted (bf16 pair-interleaved / fp16 plain)
  // kernel blocks that stage 2 actually streams.
  Precision prec_ = Precision::kFp32;
  mem::Workspace buf_i_;      // transformed inputs  (I)
  AlignedBuffer<float> w_;    // transformed kernels (W)
  AlignedBuffer<u16> w_red_;
  mem::Workspace buf_itmp_;   // GEMM accumulators   (I'_tmp)
  mem::Workspace buf_iout_;   // scattered results   (I')
  bool kernels_ready_ = false;
  double first_touch_seconds_ = 0;

  // Scheduling: the kernel-transform grid is batch-independent; the
  // n-sample grids are built by each execute (grids()).
  std::shared_ptr<ThreadPool> pool_;
  std::vector<GridBox> sched_kernel_;
  std::vector<std::unique_ptr<ThreadScratch>> scratch_;

  ConvPlanStats stats_;
};

}  // namespace ondwin
