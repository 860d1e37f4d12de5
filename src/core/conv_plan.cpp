#include "core/conv_plan.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cpu.h"
#include "util/precision.h"
#include "wincnn/cook_toom.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace ondwin {
namespace {

// Drains the write-combining buffers of non-temporal stores before the
// join barrier publishes a stage's results to other threads.
void streaming_fence() {
#if defined(__x86_64__) || defined(_M_X64)
  _mm_sfence();
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

// Largest multiple of 16 that divides `x` and is ≤ cap (x % 16 == 0 so 16
// always qualifies).
int divisor16(i64 x, i64 cap) {
  for (i64 v = std::min(x, cap) / 16 * 16; v >= 16; v -= 16) {
    if (x % v == 0) return static_cast<int>(v);
  }
  fail("no 16-divisor for ", x);
}

StageBalance balance_of(const std::vector<double>& task_seconds) {
  StageBalance b;
  if (task_seconds.empty()) return b;
  double sum = 0;
  for (double s : task_seconds) {
    sum += s;
    b.max_s = std::max(b.max_s, s);
  }
  b.mean_s = sum / static_cast<double>(task_seconds.size());
  return b;
}

}  // namespace

struct ConvPlan::ThreadScratch {
  TransformScratch transform;
  AlignedBuffer<float> gather;     // border-tile input staging (T vectors)
  AlignedBuffer<float> stage_out;  // border-tile output staging (Πm vectors)
  AlignedBuffer<float> dump;       // X̂ accumulator block / placeholder
  std::vector<float*> scatter_rows;

  // Fused-mode block scratch: one tile block's Û panel and X̂ panel (both
  // empty when the plan runs staged; u16 storage under a reduced
  // precision, allocated as half the float count). Per-thread, so blocks
  // never cross a cache-coherence boundary between stages.
  AlignedBuffer<float> fuse_u;
  AlignedBuffer<float> fuse_x;

  // Reduced-precision staging (both empty at fp32): the input transform
  // writes one tile's fp32 output here ([t][16], alpha strides) before the
  // convert-scatter into the u16 Û, and the inverse transform up-converts
  // one tile's u16 I' rows here before running the fp32 pipeline.
  AlignedBuffer<float> stage_in;
  AlignedBuffer<float> widen;

  // Fused-mode per-stage time accumulators (barrier wall-clock is
  // meaningless once stages interleave — see ConvPlanStats).
  double acc_input = 0, acc_gemm = 0, acc_inverse = 0;

  ThreadScratch(int max_extent, int rank, i64 t_elems, i64 m_prod, int n_blk,
                int cp_blk, i64 fuse_u_floats, i64 fuse_x_floats,
                i64 prec_stage_floats)
      : transform(max_extent, rank),
        gather(static_cast<std::size_t>(t_elems * kSimdWidth)),
        stage_out(static_cast<std::size_t>(m_prod * kSimdWidth)),
        dump(static_cast<std::size_t>(static_cast<i64>(n_blk) * cp_blk)),
        scatter_rows(static_cast<std::size_t>(n_blk)),
        fuse_u(static_cast<std::size_t>(fuse_u_floats)),
        fuse_x(static_cast<std::size_t>(fuse_x_floats)),
        stage_in(static_cast<std::size_t>(prec_stage_floats)),
        widen(static_cast<std::size_t>(prec_stage_floats)) {}
};

ConvPlan::ConvPlan(const ConvProblem& problem, const PlanOptions& options,
                   std::shared_ptr<ThreadPool> pool)
    : problem_(problem),
      options_(options),
      pool_(pool != nullptr ? std::move(pool)
                            : std::make_shared<ThreadPool>(
                                  options.threads > 0 ? options.threads
                                                      : hardware_threads())) {
  problem_.validate();
  prec_ = options_.precision;
  static obs::Counter* prec_plans[3] = {nullptr, nullptr, nullptr};
  {
    static std::once_flag once;
    std::call_once(once, [] {
      for (Precision p :
           {Precision::kFp32, Precision::kBf16, Precision::kFp16}) {
        prec_plans[static_cast<int>(p)] = &obs::MetricsRegistry::global().counter(
            "ondwin_prec_plans_total",
            "Convolution plans constructed, by storage precision of the "
            "transformed intermediates",
            {{"precision", precision_name(p)}});
      }
    });
  }
  prec_plans[static_cast<int>(prec_)]->inc();
  rank_ = problem_.rank();
  alpha_ = problem_.alpha();
  tiles_ = problem_.tiles();
  out_dims_ = problem_.shape.output();
  tile_count_ = tiles_.product();
  t_elems_ = alpha_.product();
  nb_ = tile_count_ * problem_.shape.batch;
  in_groups_ = problem_.shape.in_channels / kSimdWidth;
  out_groups_ = problem_.shape.out_channels / kSimdWidth;

  std::string why;
  const std::optional<Blocking> blocking = choose_blocking(
      problem_,
      {options_.n_blk, options_.c_blk, options_.cp_blk, options_.fuse_blk},
      prec_, &why);
  if (!blocking) fail("invalid blocking: ", why);
  blocking_ = *blocking;
  nb_pad_ = round_up(nb_, blocking_.n_blk);
  ib_ = nb_pad_ / blocking_.n_blk;
  kb_ = problem_.shape.in_channels / blocking_.c_blk;
  jb_ = problem_.shape.out_channels / blocking_.cp_blk;
  fusion_ = choose_fusion(problem_, blocking_, pool_->size(),
                          options_.fusion, prec_);

  build_programs();
  build_pipelines();
  build_kernels();
  if (fusion_.fused) {
    fused_gemm_ = std::make_unique<FusedBlockGemm>(
        *kernels_, blocking_.n_blk, blocking_.c_blk, blocking_.cp_blk, kb_,
        jb_, t_elems_, out_groups_, options_.scatter_in_gemm, prec_);
  }

  sched_kernel_ = static_partition({problem_.shape.in_channels, out_groups_},
                                   pool_->size());
  allocate_buffers();
  build_scratch();
}

ConvPlan::~ConvPlan() = default;

std::optional<Blocking> ConvPlan::choose_blocking(const ConvProblem& problem,
                                                  Blocking b,
                                                  Precision precision,
                                                  std::string* why) {
  const i64 c = problem.shape.in_channels;
  const i64 cp = problem.shape.out_channels;
  const i64 nb = problem.tiles_total() * problem.shape.batch;
  const auto reject = [&](auto&&... reason) -> std::optional<Blocking> {
    if (why != nullptr) *why = str_cat(reason...);
    return std::nullopt;
  };

  // fp16 Û broadcasts widen through a reserved register (zmm29), leaving
  // one fewer accumulator than the fp32/bf16 kernels.
  const int n_cap = precision == Precision::kFp16 ? 29 : 30;
  if (b.c_blk == 0) b.c_blk = divisor16(c, 128);
  if (b.cp_blk == 0) b.cp_blk = divisor16(cp, 128);
  if (b.n_blk == 0) {
    // Prefer large register blocks, but avoid padding waste when N·B is
    // small: pick the n_blk in [6,30] minimizing rounded-up waste
    // (ties favour the larger block).
    if (nb <= n_cap) {
      b.n_blk = static_cast<int>(nb);
    } else {
      i64 best_waste = -1;
      for (int n = 6; n <= n_cap; ++n) {
        const i64 waste = round_up(nb, n) - nb;
        if (best_waste < 0 || waste <= best_waste) {
          best_waste = waste;
          b.n_blk = n;
        }
      }
    }
  } else if (precision == Precision::kFp16) {
    b.n_blk = std::min(b.n_blk, n_cap);
  }

  if (b.n_blk < 1 || b.n_blk > n_cap) {
    return reject("n_blk out of range: ", b.n_blk);
  }
  if (b.c_blk <= 0 || b.c_blk % 16 != 0 || c % b.c_blk != 0) {
    return reject("c_blk (", b.c_blk,
                  ") must be a multiple of 16 dividing C (", c, ")");
  }
  if (b.cp_blk <= 0 || b.cp_blk % 16 != 0 || cp % b.cp_blk != 0) {
    return reject("cp_blk (", b.cp_blk,
                  ") must be a multiple of 16 dividing C' (", cp, ")");
  }
  if (static_cast<i64>(b.c_blk) * b.cp_blk > 128 * 128) {
    return reject("c_blk x cp_blk exceeds the L2 budget (128^2 floats)");
  }
  if (b.f_blk < 0) {
    return reject("f_blk must be non-negative, got ", b.f_blk);
  }
  return b;
}

FusionPolicy ConvPlan::choose_fusion(const ConvProblem& problem,
                                     const Blocking& blocking, int threads,
                                     FusionMode mode, Precision precision) {
  const i64 esz = precision_bytes(precision);
  const i64 t = problem.tile_elements();
  const i64 c = problem.shape.in_channels;
  const i64 cp = problem.shape.out_channels;
  const i64 n_blk = blocking.n_blk;
  const i64 ib = ceil_div(problem.tiles_total() * problem.shape.batch, n_blk);
  const i64 row_block_bytes = n_blk * (c + cp) * t * esz;
  const i64 v_bytes = c * cp * t * esz;

  // One row block per tile block unless pinned: the microkernel already
  // reuses each V̂ row n_blk times, and every larger block measured slower
  // (its Û/X̂ footprint crowds the L2 while V̂ re-reads from L2 are cheap).
  FusionPolicy f;
  f.f_blk = static_cast<int>(std::min<i64>(std::max(blocking.f_blk, 1), ib));
  f.blocks = ceil_div(ib, static_cast<i64>(f.f_blk));
  switch (mode) {
    case FusionMode::kStaged:
      f.fused = false;
      break;
    case FusionMode::kFused:
      f.fused = true;
      break;
    case FusionMode::kAuto:
      // Fusing keeps each row block's Û and X̂ in cache instead of
      // round-tripping them through memory, but streams all of V̂ once per
      // row block, where the staged GEMM (row blocks innermost) reuses
      // each V̂ block across all of them. Measured at one thread: fused
      // wins with V̂ at up to ~5 row blocks' Û+X̂ and ties or loses at 8
      // (DESIGN.md §11). The fused schedule hands each thread
      // a run of row blocks, counted for ONE sample: a plan runs any
      // n ≤ batch, and a lone sample on fewer row blocks than threads
      // would leave some idle where the staged grids keep them all busy.
      f.fused = ceil_div(problem.tiles_total(), n_blk) >= threads &&
                v_bytes < 6 * row_block_bytes;
      break;
  }
  if (!f.fused) return FusionPolicy{};
  // Float-unit footprint of the per-thread Û+X̂ block scratch (reduced
  // storage packs two u16 words per float slot).
  f.scratch_floats =
      f.f_blk * row_block_bytes / static_cast<i64>(sizeof(float));
  return f;
}

void ConvPlan::build_programs() {
  const TransformBuildOptions topts{
      .enable_pairing = options_.codelet_pairing,
      .enable_column_pairing = options_.codelet_pairing};
  for (int d = 0; d < rank_; ++d) {
    const WinogradMatrices wm = cook_toom(
        static_cast<int>(problem_.tile_m[d]),
        static_cast<int>(problem_.shape.kernel[d]));
    bt_.push_back(build_transform_program(wm.BT, topts));
    g_.push_back(build_transform_program(wm.G, topts));
    at_.push_back(build_transform_program(wm.AT, topts));
  }
}

void ConvPlan::build_pipelines() {
  const bool jit = options_.jit_transforms;
  const bool stream = options_.streaming_stores;
  const bool reduced = prec_ != Precision::kFp32;
  // Under fusion the input pipelines write per-thread block scratch that
  // the same thread's GEMM consumes immediately — non-temporal stores
  // would evict exactly the lines fusion keeps hot, so use plain stores.
  // Reduced-precision plans also keep plain stores: the pipelines then
  // write the per-thread fp32 staging tile that the convert-scatter reads
  // right back.
  const bool in_stream = stream && !fusion_.fused && !reduced;
  const Dims alpha_strides = alpha_.strides();
  const Dims img_strides = problem_.shape.image.strides();
  const Dims out_strides_sp = out_dims_.strides();
  const Dims kext_strides = problem_.shape.kernel.strides();
  const Dims m_strides = problem_.tile_m.strides();

  const TransformProgram* bt[kMaxNd];
  const TransformProgram* g[kMaxNd];
  const TransformProgram* at[kMaxNd];
  i64 s_img[kMaxNd], s_alpha[kMaxNd], s_i[kMaxNd], s_w[kMaxNd],
      s_out[kMaxNd], s_m[kMaxNd], s_kext[kMaxNd];
  const i64 i_block = static_cast<i64>(blocking_.n_blk) * blocking_.c_blk;
  const i64 w_block = static_cast<i64>(blocking_.c_blk) * blocking_.cp_blk;
  for (int d = 0; d < rank_; ++d) {
    bt[d] = &bt_[static_cast<std::size_t>(d)];
    g[d] = &g_[static_cast<std::size_t>(d)];
    at[d] = &at_[static_cast<std::size_t>(d)];
    s_img[d] = img_strides[d] * kSimdWidth;
    s_alpha[d] = alpha_strides[d] * kSimdWidth;
    // Reduced-precision plans transform into a compact per-thread fp32
    // staging tile ([t][16], alpha strides) and convert-scatter into the
    // u16 Û afterwards — the pipeline never sees the blocked layout then.
    s_i[d] = reduced ? s_alpha[d] : alpha_strides[d] * i_block;
    s_w[d] = alpha_strides[d] * w_block;
    s_out[d] = out_strides_sp[d] * kSimdWidth;
    s_m[d] = m_strides[d] * kSimdWidth;
    s_kext[d] = kext_strides[d] * kSimdWidth;
  }

  pipe_in_interior_ =
      std::make_unique<TilePipeline>(bt, rank_, s_img, s_i, in_stream, jit);
  pipe_in_border_ =
      std::make_unique<TilePipeline>(bt, rank_, s_alpha, s_i, in_stream, jit);
  pipe_kernel_ =
      std::make_unique<TilePipeline>(g, rank_, s_kext, s_w, stream, jit);
  pipe_inv_interior_ =
      std::make_unique<TilePipeline>(at, rank_, s_alpha, s_out, stream, jit);
  pipe_inv_border_ = std::make_unique<TilePipeline>(at, rank_, s_alpha, s_m,
                                                    /*stream=*/false, jit);
}

Dims ConvPlan::output_plane(const Epilogue& epilogue) const {
  Dims plane = out_dims_;
  if (epilogue.pooled()) {
    for (int d = 0; d < rank_; ++d) plane[d] /= epilogue.pool_window;
  }
  return plane;
}

const TilePipeline* ConvPlan::epilogue_pipeline(const Epilogue& epilogue) {
  if (!epilogue.active() || !options_.jit_transforms) return nullptr;
  const i64 w = epilogue.pooled() ? epilogue.pool_window : 0;
  for (const EpiloguePipeline& e : pipe_inv_epilogue_) {
    if (e.relu == epilogue.relu && e.pool_window == w) return e.pipe.get();
  }
  // Same inverse programs and source strides as the interior pipeline;
  // the destination is the output plane, or the pooled plane when pooled.
  // Plain stores, as store_tile makes: callers may hand in outputs that
  // are not 64-byte aligned, and the next layer reads them right back.
  const TransformProgram* at[kMaxNd];
  i64 s_alpha[kMaxNd], s_dst[kMaxNd];
  const Dims alpha_strides = alpha_.strides();
  const Dims plane_strides = output_plane(epilogue).strides();
  for (int d = 0; d < rank_; ++d) {
    at[d] = &at_[static_cast<std::size_t>(d)];
    s_alpha[d] = alpha_strides[d] * kSimdWidth;
    s_dst[d] = plane_strides[d] * kSimdWidth;
  }
  const TileEpilogue te{.relu = epilogue.relu, .pool_window = w};
  auto pipe = std::make_unique<TilePipeline>(
      at, rank_, s_alpha, s_dst, /*stream_dst=*/false, /*use_jit=*/true, &te);
  if (!pipe->jitted()) pipe.reset();
  pipe_inv_epilogue_.push_back({epilogue.relu, w, std::move(pipe)});
  return pipe_inv_epilogue_.back().pipe.get();
}

void ConvPlan::build_kernels() {
  // Fused plans scatter into the thread's own X̂ block scratch, which the
  // inverse transform reads back within microseconds — cacheable scatter
  // stores, not the staged mode's non-temporal ones (same values either
  // way; only the store instruction differs). Reduced-precision scatter
  // rows are 32-byte converted stores, half a cache line — non-temporal
  // stores would leave partially filled write-combining buffers, so those
  // use cacheable stores even in staged mode.
  const bool reduced = prec_ != Precision::kFp32;
  const StoreMode final_store =
      options_.scatter_in_gemm
          ? (fusion_.fused || reduced ? StoreMode::kScatterCached
                                      : StoreMode::kScatter)
          : StoreMode::kAccumulate;
  // The final store converts to the I' precision only when it scatters;
  // the kAccumulate fallback keeps the fp32 X̂ intermediate, and the
  // separate copy pass does the conversion instead.
  const Precision out_prec =
      options_.scatter_in_gemm ? prec_ : Precision::kFp32;
  kernels_ = std::make_unique<KernelSet>(blocking_.n_blk, blocking_.c_blk,
                                         blocking_.cp_blk, final_store,
                                         options_.use_jit, prec_, out_prec);
}

ConvPlan::Grids ConvPlan::grids(i64 n) const {
  const int k = pool_->size();
  Grids g;
  g.nb = tile_count_ * n;
  g.ib = ceil_div(g.nb, static_cast<i64>(blocking_.n_blk));

  if (fusion_.fused) {
    // One grid only: the 1-D list of row blocks. Each thread owns a
    // contiguous run (balanced to one row block, not one tile block) and
    // cuts it into tile blocks of at most f_blk, each driven end-to-end
    // (transform → GEMM → inverse).
    g.fused = static_partition({g.ib}, k);
  } else {
    std::vector<i64> in_grid = {n, in_groups_};
    for (int d = 0; d < rank_; ++d) in_grid.push_back(tiles_[d]);
    g.input = static_partition(in_grid, k);

    // (NB/n_blk) least significant: consecutive row blocks multiply the
    // same V̂, which then stays in cache (paper §4.5).
    g.gemm = static_partition({t_elems_, jb_, g.ib}, k);

    if (!options_.scatter_in_gemm) {
      g.copy = static_partition({g.ib, jb_, t_elems_}, k);
    }

    g.inverse = static_partition({n, out_groups_, tile_count_}, k);
  }
  return g;
}

void ConvPlan::allocate_buffers() {
  // Fused plans hold no full-size intermediates: I and I' live as
  // per-thread block scratch (ThreadScratch::fuse_u / fuse_x), and the
  // GEMM accumulates through the per-thread `dump` block.
  if (fusion_.fused) return;
  // Sized for the compiled batch: an n-sample execute uses the first
  // ⌈N·n/n_blk⌉ row blocks. Rows of the last one past N·n hold whatever an
  // earlier execute left there (zeros at first); the GEMM computes rows
  // independently, so their garbage lands only in I' rows the inverse
  // never reads.
  // Reduced-precision Û and I' pack two u16 words per float slot, so their
  // workspace checkouts halve (the element counts are multiples of 16).
  // I'_tmp is the fp32 k-loop accumulator and never shrinks.
  const i64 esz = precision_bytes(prec_);
  const auto i_floats = static_cast<std::size_t>(
      nb_pad_ * problem_.shape.in_channels * t_elems_ * esz /
      static_cast<i64>(sizeof(float)));
  const auto x_floats = static_cast<std::size_t>(
      nb_pad_ * problem_.shape.out_channels * t_elems_);
  const auto iout_floats = static_cast<std::size_t>(
      nb_pad_ * problem_.shape.out_channels * t_elems_ * esz /
      static_cast<i64>(sizeof(float)));
  const bool need_itmp = (kb_ > 1) || !options_.scatter_in_gemm;
  if (options_.pooled_workspace) {
    // Pool checkout. With numa_first_touch the slabs come back unzeroed
    // and first_touch_workspaces() writes the zeros partition-by-partition
    // on the thread that owns each partition in stage 2, so first-touch
    // places the pages on the owning thread's NUMA node.
    auto& pool = mem::WorkspacePool::global();
    const bool lazy = options_.numa_first_touch;
    buf_i_ = mem::Workspace::from_pool(pool, i_floats, /*zero=*/!lazy);
    if (need_itmp) {
      buf_itmp_ = mem::Workspace::from_pool(pool, x_floats, /*zero=*/!lazy);
    }
    buf_iout_ = mem::Workspace::from_pool(pool, iout_floats, /*zero=*/!lazy);
    if (lazy) first_touch_workspaces();
  } else {
    buf_i_ = mem::Workspace::owned(i_floats);
    if (need_itmp) buf_itmp_ = mem::Workspace::owned(x_floats);
    buf_iout_ = mem::Workspace::owned(iout_floats);
  }
}

void ConvPlan::first_touch_workspaces() {
  Timer timer;
  const i64 u_blk = static_cast<i64>(blocking_.n_blk) * blocking_.c_blk;
  const i64 x_blk = static_cast<i64>(blocking_.n_blk) * blocking_.cp_blk;
  const i64 groups_per_j = blocking_.cp_blk / kSimdWidth;
  // Û and I' offsets are in elements of the storage precision; memsets run
  // over bytes so reduced (u16) workspaces page in at half the traffic.
  const i64 esz = precision_bytes(prec_);
  char* i_base = reinterpret_cast<char*>(buf_i_.data());
  char* iout_base = reinterpret_cast<char*>(buf_iout_.data());
  // Û is indexed by (i, k, t) only, so it gets its own disjoint (t, i)
  // partition: two GEMM boxes can share a (t, i) range with
  // different j ranges, and concurrent memsets of the same bytes — even
  // of the same zeros — are a data race.
  const std::vector<GridBox> sched_u =
      static_partition({t_elems_, ib_}, pool_->size());
  const std::vector<GridBox> sched_gemm = grids(problem_.shape.batch).gemm;
  pool_->run([&](int tid) {
    const auto id = static_cast<std::size_t>(tid);
    {
      const GridBox& box = sched_u[id];
      const i64 t0 = box.begin[0], t1 = box.end[0];
      for (i64 i = box.begin[1]; i < box.end[1]; ++i) {
        for (i64 k = 0; k < kb_; ++k) {
          std::memset(
              i_base + ((i * kb_ + k) * t_elems_ + t0) * u_blk * esz, 0,
              static_cast<std::size_t>((t1 - t0) * u_blk * esz));
        }
      }
    }
    // I'_tmp and I' follow the GEMM schedule exactly: the partition tiles
    // the (t, j, i) grid, so the union of boxes covers every byte and no
    // two threads touch the same one.
    const GridBox& box = sched_gemm[id];
    const i64 t0 = box.begin[0], t1 = box.end[0];
    if (t1 <= t0) return;
    for (i64 j = box.begin[1]; j < box.end[1]; ++j) {
      for (i64 i = box.begin[2]; i < box.end[2]; ++i) {
        if (!buf_itmp_.empty()) {
          std::memset(
              buf_itmp_.data() + ((i * jb_ + j) * t_elems_ + t0) * x_blk, 0,
              static_cast<std::size_t>((t1 - t0) * x_blk) * sizeof(float));
        }
        for (int jr = 0; jr < blocking_.n_blk; ++jr) {
          const i64 np = i * blocking_.n_blk + jr;
          for (i64 q = 0; q < groups_per_j; ++q) {
            const i64 g = j * groups_per_j + q;
            std::memset(iout_base +
                            ((np * out_groups_ + g) * t_elems_ + t0) *
                                kSimdWidth * esz,
                        0,
                        static_cast<std::size_t>((t1 - t0) * kSimdWidth *
                                                 esz));
          }
        }
      }
    }
  });
  first_touch_seconds_ = timer.seconds();
  static obs::Gauge& gauge = obs::MetricsRegistry::global().gauge(
      "ondwin_mem_first_touch_seconds",
      "Workspace first-touch pass duration of the most recently "
      "constructed staged plan");
  gauge.set(first_touch_seconds_);
}

void ConvPlan::build_scratch() {
  int max_extent = 2;
  for (int d = 0; d < rank_; ++d)
    max_extent = static_cast<int>(std::max<i64>(max_extent, alpha_[d]));
  const i64 esz = precision_bytes(prec_);
  const i64 fuse_u_floats =
      fusion_.fused ? static_cast<i64>(fusion_.f_blk) * blocking_.n_blk *
                          problem_.shape.in_channels * t_elems_ * esz /
                          static_cast<i64>(sizeof(float))
                    : 0;
  const i64 fuse_x_floats =
      fusion_.fused ? static_cast<i64>(fusion_.f_blk) * blocking_.n_blk *
                          problem_.shape.out_channels * t_elems_ * esz /
                          static_cast<i64>(sizeof(float))
                    : 0;
  const i64 prec_stage_floats =
      prec_ != Precision::kFp32 ? t_elems_ * kSimdWidth : 0;
  scratch_.resize(static_cast<std::size_t>(pool_->size()));
  auto make = [&](int tid) {
    scratch_[static_cast<std::size_t>(tid)] = std::make_unique<ThreadScratch>(
        max_extent, rank_, t_elems_, problem_.tile_m.product(),
        blocking_.n_blk, blocking_.cp_blk, fuse_u_floats, fuse_x_floats,
        prec_stage_floats);
  };
  if (options_.numa_first_touch && pool_->size() > 1) {
    // Construct each thread's scratch on the thread that will use it, so
    // first-touch places the fused Û/X̂ block scratch (the big one) and
    // the transform staging on the owner's NUMA node. An allocation
    // failure on a worker is rethrown here by ThreadPool::run.
    pool_->run(make);
  } else {
    for (int t = 0; t < pool_->size(); ++t) make(t);
  }
}

i64 ConvPlan::workspace_bytes() const {
  const i64 fuse_floats = fusion_.scratch_floats * pool_->size();
  return static_cast<i64>((buf_i_.size() + w_.size() + buf_itmp_.size() +
                           buf_iout_.size() + fuse_floats) *
                              sizeof(float) +
                          w_red_.size() * sizeof(u16));
}

// ------------------------------------------------------------ execution ----

void ConvPlan::execute(const float* input, const float* kernels,
                       float* output, const Epilogue& epilogue) {
  set_kernels(kernels);
  const double kt = stats_.kernel_transform;
  execute_pretransformed(input, output, epilogue);
  stats_.kernel_transform = kt;
}

void ConvPlan::set_kernels(const float* kernels) {
  ONDWIN_TRACE_SPAN("conv.set_kernels");
  Timer t;
  const auto w_elems = static_cast<std::size_t>(
      problem_.shape.in_channels * problem_.shape.out_channels * t_elems_);
  if (w_.empty()) {
    w_.reset(w_elems);
    if (prec_ != Precision::kFp32) w_red_.reset(w_elems);
  }
  stage_kernel_transform(kernels);
  const StageBalance kb = balance_of(pool_->last_task_seconds());
  if (prec_ != Precision::kFp32) convert_kernel_storage();
  stats_.kernel_transform = t.seconds();
  stats_.kernel_balance = kb;
  kernels_ready_ = true;
}

void ConvPlan::convert_kernel_storage() {
  ONDWIN_TRACE_SPAN("conv.convert_kernels");
  const i64 v_blk = static_cast<i64>(blocking_.c_blk) * blocking_.cp_blk;
  const i64 blocks = kb_ * jb_ * t_elems_;
  const std::vector<GridBox> sched =
      static_partition({blocks}, pool_->size());
  const float* src_all = w_.data();
  u16* dst_all = w_red_.data();
  pool_->run([&](int tid) {
    const GridBox& box = sched[static_cast<std::size_t>(tid)];
    // bf16 V̂ blocks pair-interleave rows for vdpbf16ps; the plain u16
    // staging block is per-thread so the conversion stays lock-free.
    std::vector<u16> plain(
        prec_ == Precision::kBf16 ? static_cast<std::size_t>(v_blk) : 0);
    for (i64 b = box.begin[0]; b < box.end[0]; ++b) {
      const float* src = src_all + b * v_blk;
      u16* dst = dst_all + b * v_blk;
      if (prec_ == Precision::kBf16) {
        convert_fp32_to_storage(prec_, src, plain.data(), v_blk);
        pack_v_bf16_pairs(plain.data(), reinterpret_cast<u32*>(dst),
                          blocking_.c_blk, blocking_.cp_blk);
      } else {
        convert_fp32_to_storage(prec_, src, dst, v_blk);
      }
    }
  });
}

void ConvPlan::execute_pretransformed(const float* input, float* output,
                                      const Epilogue& epilogue, i64 n) {
  ONDWIN_CHECK(kernels_ready_,
               "execute_pretransformed() requires set_kernels() first");
  if (n == 0) n = problem_.shape.batch;
  ONDWIN_CHECK(n >= 1 && n <= problem_.shape.batch, "execute of ", n,
               " samples on a plan compiled for ", problem_.shape.batch);
  if (epilogue.pooled()) {
    for (int d = 0; d < rank_; ++d) {
      ONDWIN_CHECK(problem_.tile_m[d] % epilogue.pool_window == 0,
                   "pooled epilogue needs tile_m % window == 0, got tile_m[",
                   d, "] = ", problem_.tile_m[d], " with window ",
                   epilogue.pool_window);
      ONDWIN_CHECK(out_dims_[d] >= epilogue.pool_window, "pool window ",
                   epilogue.pool_window, " larger than output dimension ", d);
    }
  }
  ONDWIN_TRACE_SPAN("conv.execute");
  const Grids g = grids(n);
  inv_epilogue_ = epilogue_pipeline(epilogue);
  // No kernel transform runs here, so none is reported: total() must not
  // carry the last set_kernels() time (execute() adds its own back).
  const StageBalance kb = stats_.kernel_balance;
  stats_ = ConvPlanStats{};
  stats_.kernel_balance = kb;
  stats_.precision = prec_;
  // Effective footprints of the transformed intermediates: what one
  // execute writes into Û and I' and what one GEMM k-sweep reads from W.
  // The fused path moves the same totals through per-thread block scratch.
  const i64 esz = precision_bytes(prec_);
  const i64 rows = g.ib * blocking_.n_blk;
  stats_.u_bytes = rows * problem_.shape.in_channels * t_elems_ * esz;
  stats_.w_bytes = problem_.shape.in_channels *
                   problem_.shape.out_channels * t_elems_ * esz;
  stats_.iout_bytes = rows * problem_.shape.out_channels * t_elems_ * esz;

  if (fusion_.fused) {
    execute_fused(input, output, epilogue, g);
  } else {
    execute_staged(input, output, epilogue, g);
  }
}

void ConvPlan::execute_staged(const float* input, float* output,
                              const Epilogue& epilogue, const Grids& g) {
  Timer t;
  stage_input_transform(input, g);
  stats_.input_transform = t.seconds();
  stats_.input_balance = balance_of(pool_->last_task_seconds());

  t.restart();
  stage_gemm(g);
  stats_.gemm = t.seconds();
  stats_.gemm_balance = balance_of(pool_->last_task_seconds());

  if (!options_.scatter_in_gemm) {
    t.restart();
    stage_scatter_copy(g);
    stats_.scatter_copy = t.seconds();
    stats_.scatter_balance = balance_of(pool_->last_task_seconds());
  }

  t.restart();
  stage_inverse_transform(output, epilogue, g);
  stats_.inverse_transform = t.seconds();
  stats_.inverse_balance = balance_of(pool_->last_task_seconds());
}

// ------------------------------------------------------ fused execution ----

void ConvPlan::execute_fused(const float* input, float* output,
                             const Epilogue& epilogue, const Grids& g) {
  for (auto& sc : scratch_) {
    sc->acc_input = sc->acc_gemm = sc->acc_inverse = 0;
  }

  // One fork–join for the whole convolution: each thread drives its
  // contiguous run of tile blocks through all three stages back-to-back.
  pool_->run_static([&](int tid) {
    const bool traced = obs::trace_enabled();
    const u64 start_ns = traced ? obs::trace_now_ns() : 0;
    const GridBox& box = g.fused[static_cast<std::size_t>(tid)];
    for (i64 iblk0 = box.begin[0]; iblk0 < box.end[0];
         iblk0 += fusion_.f_blk) {
      const i64 iblk1 = std::min<i64>(iblk0 + fusion_.f_blk, box.end[0]);
      fused_block(tid, iblk0, iblk1, g.nb, input, output, epilogue);
    }
    streaming_fence();  // inverse-transform NT stores into `output`
    if (traced) {
      // The stages interleave per tile block; a span per block and stage
      // (three per row block) would wrap the trace rings on large grids.
      // Each thread records its stage totals as three consecutive spans
      // from its start instead.
      const ThreadScratch& sc = *scratch_[static_cast<std::size_t>(tid)];
      const obs::TraceContext ctx = obs::current_trace_context();
      u64 at = start_ns;
      for (const auto& [name, s] :
           {std::pair{"fuse.input", sc.acc_input},
            std::pair{"fuse.gemm", sc.acc_gemm},
            std::pair{"fuse.inverse", sc.acc_inverse}}) {
        const auto dur = static_cast<u64>(s * 1e9);
        obs::record_span(name, at, dur, ctx);
        at += dur;
      }
    }
  });

  // Per-stage seconds from the thread-local accumulators of the critical
  // thread, so the stages sum to ≈ the execute wall time (see
  // ConvPlanStats).
  stats_.fused = true;
  const std::size_t n = scratch_.size();
  std::vector<double> in_s(n), gm_s(n), inv_s(n), busy(n);
  std::size_t crit = 0;
  for (std::size_t i = 0; i < n; ++i) {
    in_s[i] = scratch_[i]->acc_input;
    gm_s[i] = scratch_[i]->acc_gemm;
    inv_s[i] = scratch_[i]->acc_inverse;
    busy[i] = in_s[i] + gm_s[i] + inv_s[i];
    if (busy[i] > busy[crit]) crit = i;
  }
  stats_.input_balance = balance_of(in_s);
  stats_.gemm_balance = balance_of(gm_s);
  stats_.inverse_balance = balance_of(inv_s);
  stats_.input_transform = in_s[crit];
  stats_.gemm = gm_s[crit];
  stats_.inverse_transform = inv_s[crit];
}

void ConvPlan::fused_block(int tid, i64 iblk0, i64 iblk1, i64 nb,
                           const float* input, float* output,
                           const Epilogue& epilogue) {
  ThreadScratch& sc = *scratch_[static_cast<std::size_t>(tid)];
  const i64 np0 = iblk0 * blocking_.n_blk;
  // Rows past nb are alignment padding: never transformed, never read
  // back (the GEMM computes garbage there that the inverse skips — same
  // contract as the staged buffers' padded tail).
  const i64 np_end = std::min(iblk1 * blocking_.n_blk, nb);

  Timer t;
  {
    // cg outer / tile inner: one sweep over the block's tiles per channel
    // group, walking each input channel plane contiguously.
    std::array<i64, kMaxGridRank> coord{};
    for (i64 cg = 0; cg < in_groups_; ++cg) {
      coord[1] = cg;
      for (i64 np = np0; np < np_end; ++np) {
        const i64 b = np / tile_count_;
        const Dims tc = tiles_.coord_of(np % tile_count_);
        coord[0] = b;
        for (int d = 0; d < rank_; ++d) {
          coord[static_cast<std::size_t>(2 + d)] = tc[d];
        }
        input_transform_task(tid, b, cg, coord, input, sc.fuse_u.data(),
                             iblk0);
      }
    }
  }
  sc.acc_input += t.seconds();

  t.restart();
  {
    const float* v = prec_ == Precision::kFp32
                         ? w_.data()
                         : reinterpret_cast<const float*>(w_red_.data());
    fused_gemm_->run(iblk1 - iblk0, sc.fuse_u.data(), v, sc.fuse_x.data(),
                     sc.dump.data(), sc.scatter_rows.data());
  }
  sc.acc_gemm += t.seconds();

  t.restart();
  {
    // g outer / tile inner: mirrors the staged inverse schedule's order
    // within the block, walking each output channel plane contiguously.
    for (i64 g = 0; g < out_groups_; ++g) {
      for (i64 np = np0; np < np_end; ++np) {
        inverse_transform_task(tid, np, g, sc.fuse_x.data(), np0, output,
                               epilogue);
      }
    }
  }
  sc.acc_inverse += t.seconds();
}

// ----------------------------------------------------- stage 1: inputs ----

void ConvPlan::stage_input_transform(const float* input, const Grids& g) {
  pool_->run([&](int tid) {
    ONDWIN_TRACE_SPAN("input_transform");
    for_each_in_box(g.input[static_cast<std::size_t>(tid)],
                    [&](const std::array<i64, kMaxGridRank>& c) {
                      input_transform_task(tid, c[0], c[1], c, input,
                                           buf_i_.data(), 0);
                    });
    streaming_fence();
  });
}

void ConvPlan::input_transform_task(
    int tid, i64 b, i64 cg, const std::array<i64, kMaxGridRank>& tile_coord,
    const float* input, float* i_buf, i64 iblk_base) {
  ThreadScratch& sc = *scratch_[static_cast<std::size_t>(tid)];
  const Dims img = problem_.shape.image;
  const Dims img_strides = img.strides();
  const i64 ipx = img.product();

  // Tile linear index (row-major over tiles_) and its padded-image origin.
  i64 n = 0;
  i64 org[kMaxNd];
  bool interior = true;
  for (int d = 0; d < rank_; ++d) {
    const i64 td = tile_coord[static_cast<std::size_t>(2 + d)];
    n = n * tiles_[d] + td;
    org[d] = td * problem_.tile_m[d] - problem_.shape.padding[d];
    if (org[d] < 0 || org[d] + alpha_[d] > img[d]) interior = false;
  }
  const i64 np = b * tile_count_ + n;

  const float* src;
  const Dims alpha_strides = alpha_.strides();
  if (interior) {
    i64 sp = 0;
    for (int d = 0; d < rank_; ++d) sp += org[d] * img_strides[d];
    src = input + ((b * in_groups_ + cg) * ipx + sp) * kSimdWidth;
  } else {
    // Border tile: stage the valid sub-box into zeroed scratch.
    std::memset(sc.gather.data(), 0,
                static_cast<std::size_t>(t_elems_ * kSimdWidth) *
                    sizeof(float));
    i64 lo[kMaxNd], hi[kMaxNd];
    bool any = true;
    for (int d = 0; d < rank_; ++d) {
      lo[d] = std::max<i64>(0, -org[d]);
      hi[d] = std::min<i64>(alpha_[d], img[d] - org[d]);
      if (lo[d] >= hi[d]) any = false;
    }
    if (any) {
      const float* img_base =
          input + ((b * in_groups_ + cg) * ipx) * kSimdWidth;
      i64 e[kMaxNd];
      for (int d = 0; d < rank_; ++d) e[d] = lo[d];
      for (;;) {
        i64 goff = 0, ioff = 0;
        for (int d = 0; d < rank_; ++d) {
          goff += e[d] * alpha_strides[d];
          ioff += (org[d] + e[d]) * img_strides[d];
        }
        std::memcpy(sc.gather.data() + goff * kSimdWidth,
                    img_base + ioff * kSimdWidth,
                    sizeof(float) * kSimdWidth);
        int d = rank_ - 1;
        for (; d >= 0; --d) {
          if (++e[d] < hi[d]) break;
          e[d] = lo[d];
        }
        if (d < 0) break;
      }
    }
    src = sc.gather.data();
  }

  // Scatter destination inside I (layout [i][k][t][n_blk][c_blk]); under
  // fusion `i_buf` is the thread's Û block scratch and `iblk_base` rebases
  // the row block index into it.
  const i64 iblk = np / blocking_.n_blk - iblk_base;
  const i64 jrow = np % blocking_.n_blk;
  const i64 kblk = (cg * kSimdWidth) / blocking_.c_blk;
  const i64 cin = (cg * kSimdWidth) % blocking_.c_blk;
  const i64 base =
      ((iblk * kb_ + kblk) * t_elems_ * blocking_.n_blk + jrow) *
          blocking_.c_blk +
      cin;

  const TilePipeline& pipe =
      interior ? *pipe_in_interior_ : *pipe_in_border_;
  if (prec_ == Precision::kFp32) {
    pipe.run(src, i_buf + base, sc.transform);
    return;
  }
  // Reduced precision: transform into the compact fp32 staging tile
  // ([t][16] — the pipelines were frozen with those strides), then
  // convert-scatter each 16-lane vector into the u16 Û. The vectors of
  // one tile land i_block elements apart, exactly the fp32 layout's
  // t-stride.
  pipe.run(src, sc.stage_in.data(), sc.transform);
  const i64 i_block = static_cast<i64>(blocking_.n_blk) * blocking_.c_blk;
  u16* dstw = reinterpret_cast<u16*>(i_buf) + base;
  for (i64 t = 0; t < t_elems_; ++t) {
    convert_fp32_to_storage(prec_, sc.stage_in.data() + t * kSimdWidth,
                            dstw + t * i_block, kSimdWidth);
  }
}

// ---------------------------------------------------- stage 1b: kernels ----

void ConvPlan::stage_kernel_transform(const float* kernels) {
  pool_->run([&](int tid) {
    ONDWIN_TRACE_SPAN("kernel_transform");
    for_each_in_box(sched_kernel_[static_cast<std::size_t>(tid)],
                    [&](const std::array<i64, kMaxGridRank>& c) {
                      kernel_transform_task(tid, c[0], c[1], kernels);
                    });
    streaming_fence();
  });
}

void ConvPlan::kernel_transform_task(int tid, i64 c, i64 g,
                                     const float* kernels) {
  ThreadScratch& sc = *scratch_[static_cast<std::size_t>(tid)];
  const i64 taps = problem_.shape.kernel.product();
  const float* src = kernels + ((c * out_groups_ + g) * taps) * kSimdWidth;

  // Destination inside W (layout [k][j][t][c_blk][cp_blk]).
  const i64 kblk = c / blocking_.c_blk;
  const i64 cin = c % blocking_.c_blk;
  const i64 jblk = (g * kSimdWidth) / blocking_.cp_blk;
  const i64 cpin = (g * kSimdWidth) % blocking_.cp_blk;
  float* dst = w_.data() +
               ((kblk * jb_ + jblk) * t_elems_ * blocking_.c_blk + cin) *
                   blocking_.cp_blk +
               cpin;
  pipe_kernel_->run(src, dst, sc.transform);
}

// -------------------------------------------------------- stage 2: GEMM ----

void ConvPlan::stage_gemm(const Grids& g) {
  pool_->run([&](int tid) {
    ONDWIN_TRACE_SPAN("gemm");
    const GridBox& box = g.gemm[static_cast<std::size_t>(tid)];
    for_each_in_box(box, [&](const std::array<i64, kMaxGridRank>& c) {
      gemm_task(tid, box, c[0], c[1], c[2]);
    });
    streaming_fence();
  });
}

void ConvPlan::gemm_task(int tid, const GridBox& box, i64 t, i64 j, i64 i) {
  ThreadScratch& sc = *scratch_[static_cast<std::size_t>(tid)];
  const i64 u_blk = static_cast<i64>(blocking_.n_blk) * blocking_.c_blk;
  const i64 v_blk = static_cast<i64>(blocking_.c_blk) * blocking_.cp_blk;
  const i64 x_blk = static_cast<i64>(blocking_.n_blk) * blocking_.cp_blk;
  const i64 inext = (i + 1 < box.end[2]) ? i + 1 : i;
  // The (t, j) of this thread's next task in box order (t → j → i): its
  // first V̂ is what the last k step prefetches.
  i64 t_next = t, j_next = j;
  if (inext == i) {
    if (j + 1 < box.end[1]) {
      j_next = j + 1;
    } else if (t + 1 < box.end[0]) {
      t_next = t + 1;
      j_next = box.begin[1];
    }
  }
  const bool have_itmp = !buf_itmp_.empty();
  // Û/W/I' are u16 under a reduced precision: offsets stay in elements of
  // the storage format, scaled to bytes here (X̂/I'_tmp are always fp32).
  const i64 esz = precision_bytes(prec_);
  const char* u_base = reinterpret_cast<const char*>(buf_i_.data());
  const char* v_base = prec_ == Precision::kFp32
                           ? reinterpret_cast<const char*>(w_.data())
                           : reinterpret_cast<const char*>(w_red_.data());

  const bool scatter = options_.scatter_in_gemm;
  if (scatter) {
    char* iout_base = reinterpret_cast<char*>(buf_iout_.data());
    const i64 g0 = static_cast<i64>(j) * blocking_.cp_blk / kSimdWidth;
    for (int jr = 0; jr < blocking_.n_blk; ++jr) {
      const i64 np = i * blocking_.n_blk + jr;
      sc.scatter_rows[static_cast<std::size_t>(jr)] =
          reinterpret_cast<float*>(
              iout_base +
              ((np * out_groups_ + g0) * t_elems_ + t) * kSimdWidth * esz);
    }
  }

  MicrokernelArgs args;
  args.scatter_rows = sc.scatter_rows.data();
  args.scatter_col_stride_bytes = t_elems_ * kSimdWidth * esz;
  for (i64 k = 0; k < kb_; ++k) {
    args.u = reinterpret_cast<const float*>(
        u_base + ((i * kb_ + k) * t_elems_ + t) * u_blk * esz);
    args.v = reinterpret_cast<const float*>(
        v_base + ((k * jb_ + j) * t_elems_ + t) * v_blk * esz);
    args.v_next = reinterpret_cast<const float*>(
        v_base + (k + 1 < kb_ ? ((k + 1) * jb_ + j) * t_elems_ + t
                              : j_next * t_elems_ + t_next) *
                     v_blk * esz);
    args.x = have_itmp
                 ? buf_itmp_.data() + ((i * jb_ + j) * t_elems_ + t) * x_blk
                 : sc.dump.data();
    args.u_next = reinterpret_cast<const float*>(
        u_base + ((inext * kb_ + k) * t_elems_ + t) * u_blk * esz);
    args.x_next =
        have_itmp
            ? buf_itmp_.data() + ((inext * jb_ + j) * t_elems_ + t) * x_blk
            : sc.dump.data();
    kernels_->run_step(static_cast<int>(k), static_cast<int>(kb_), args);
  }
}

// ------------------------------------------- stage 2b: separate scatter ----

void ConvPlan::stage_scatter_copy(const Grids& g) {
  const i64 x_blk = static_cast<i64>(blocking_.n_blk) * blocking_.cp_blk;
  const i64 groups_per_j = blocking_.cp_blk / kSimdWidth;
  const i64 esz = precision_bytes(prec_);
  char* iout_base = reinterpret_cast<char*>(buf_iout_.data());
  pool_->run([&](int tid) {
    ONDWIN_TRACE_SPAN("scatter_copy");
    for_each_in_box(
        g.copy[static_cast<std::size_t>(tid)],
        [&](const std::array<i64, kMaxGridRank>& c) {
          const i64 i = c[0], j = c[1], t = c[2];
          const float* x =
              buf_itmp_.data() + ((i * jb_ + j) * t_elems_ + t) * x_blk;
          for (int jr = 0; jr < blocking_.n_blk; ++jr) {
            const i64 np = i * blocking_.n_blk + jr;
            const i64 g0 = j * groups_per_j;
            for (i64 q = 0; q < groups_per_j; ++q) {
              char* dst = iout_base +
                          ((np * out_groups_ + g0 + q) * t_elems_ + t) *
                              kSimdWidth * esz;
              const float* src = x + jr * blocking_.cp_blk + q * kSimdWidth;
              if (prec_ == Precision::kFp32) {
                std::memcpy(dst, src, sizeof(float) * kSimdWidth);
              } else {
                // The reshape pass doubles as the I' down-convert when the
                // GEMM's final store could not (kAccumulate keeps fp32).
                convert_fp32_to_storage(prec_, src,
                                        reinterpret_cast<u16*>(dst),
                                        kSimdWidth);
              }
            }
          }
        });
  });
}

// ----------------------------------------------------- stage 3: inverse ----

void ConvPlan::stage_inverse_transform(float* output,
                                       const Epilogue& epilogue,
                                       const Grids& g) {
  pool_->run([&](int tid) {
    ONDWIN_TRACE_SPAN("inverse_transform");
    for_each_in_box(g.inverse[static_cast<std::size_t>(tid)],
                    [&](const std::array<i64, kMaxGridRank>& c) {
                      inverse_transform_task(tid, c[0] * tile_count_ + c[2],
                                             c[1], buf_iout_.data(), 0,
                                             output, epilogue);
                    });
    streaming_fence();
  });
}

void ConvPlan::inverse_transform_task(int tid, i64 np, i64 g,
                                      const float* iout_buf, i64 np_base,
                                      float* output,
                                      const Epilogue& epilogue) {
  ThreadScratch& sc = *scratch_[static_cast<std::size_t>(tid)];
  const i64 b = np / tile_count_;
  const i64 n = np % tile_count_;

  // Under fusion `iout_buf` is the thread's X̂ block scratch and `np_base`
  // rebases the tile row into it. Reduced-precision I' rows up-convert
  // into the per-thread fp32 widening tile first — one contiguous
  // T×16-element convert — and the fp32 pipelines below never notice.
  const i64 src_off =
      (((np - np_base) * out_groups_ + g) * t_elems_) * kSimdWidth;
  const float* src;
  if (prec_ == Precision::kFp32) {
    src = iout_buf + src_off;
  } else {
    convert_storage_to_fp32(
        prec_, reinterpret_cast<const u16*>(iout_buf) + src_off,
        sc.widen.data(), t_elems_ * kSimdWidth);
    src = sc.widen.data();
  }

  // Output tile origin and interior test.
  const Dims tc = tiles_.coord_of(n);
  i64 org[kMaxNd];
  bool interior = true;
  for (int d = 0; d < rank_; ++d) {
    org[d] = tc[d] * problem_.tile_m[d];
    if (org[d] + problem_.tile_m[d] > out_dims_[d]) interior = false;
  }

  // The (b, g) plane this task writes: the output, or the POOLED output
  // under a pooled epilogue. Tiles own disjoint sets of complete pool
  // windows (tile_m % window == 0, validated at execute), so pooled
  // stores of different tasks never overlap — the same race-freedom
  // argument as the un-pooled store, on a w^rank-smaller plane.
  const i64 w = epilogue.pooled() ? epilogue.pool_window : 1;
  const Dims plane_dims = output_plane(epilogue);
  const Dims plane_strides = plane_dims.strides();
  float* plane =
      output + (b * out_groups_ + g) * plane_dims.product() * kSimdWidth;
  i64 tile_at = 0;  // tile origin in the plane, in vectors
  for (int d = 0; d < rank_; ++d) tile_at += org[d] / w * plane_strides[d];

  if (interior && !epilogue.active()) {
    pipe_inv_interior_->run(src, plane + tile_at * kSimdWidth, sc.transform);
    return;
  }

  float bias_vec[kSimdWidth] = {};
  if (epilogue.bias != nullptr) {
    for (int s = 0; s < kSimdWidth; ++s) {
      bias_vec[s] = epilogue.bias[g * kSimdWidth + s];
    }
  }

  // Interior tile with an epilogue: bias/ReLU (and the pool reduction)
  // run inside the inverse kernel, which stores straight to the plane.
  if (interior && inv_epilogue_ != nullptr) {
    inv_epilogue_->run(src, plane + tile_at * kSimdWidth, sc.transform,
                       bias_vec);
    return;
  }

  // Clipped tile (or no epilogue kernel): transform into staging, then
  // write the valid sub-box out — applying bias/ReLU (and, with a pooled
  // epilogue, the complete max-pool windows this tile owns) while the
  // tile is hot. The store stage itself lives in transform/epilogue.cpp —
  // shared verbatim by the staged and fused execution paths.
  pipe_inv_border_->run(src, sc.stage_out.data(), sc.transform);

  i64 hi[kMaxNd];
  for (int d = 0; d < rank_; ++d) {
    hi[d] = std::min<i64>(problem_.tile_m[d], out_dims_[d] - org[d]);
  }
  TileStoreArgs args;
  args.rank = rank_;
  args.org = org;
  args.hi = hi;
  args.m_strides = problem_.tile_m.strides();
  args.out_strides = out_dims_.strides();
  if (epilogue.pooled()) {
    args.pool_strides = plane_strides;
    store_tile_pooled(sc.stage_out.data(), plane, args, bias_vec,
                      epilogue.relu, w);
  } else {
    store_tile(sc.stage_out.data(), plane, args, epilogue, bias_vec);
  }
}

}  // namespace ondwin
