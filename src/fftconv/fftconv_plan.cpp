#include "fftconv/fftconv_plan.h"

#include <atomic>
#include <cstring>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cpu.h"

namespace ondwin::fftconv {
namespace {

// FFT grids are capped per dimension: past this the image is cut into
// overlap-save tiles instead of growing the grid (and with it the
// frequency-domain kernel bank) with the image.
constexpr i64 kMaxGrid = 32;

struct Stats {
  std::atomic<u64> plans{0};
  std::atomic<u64> executes{0};
  std::atomic<u64> selected_fft{0};
  std::atomic<u64> selected_other{0};
  std::atomic<i64> workspace_bytes{0};
};

Stats& stats() {
  static Stats* s = new Stats();
  return *s;
}

int pick_channel_block(i64 channels) {
  for (int b : {64, 48, 32, 16}) {
    if (channels % b == 0) return b;
  }
  return 0;  // unreachable: channels % 16 == 0 is validated
}

int pick_row_block(i64 rows) {
  if (rows <= 30) return static_cast<int>(rows);
  for (int n = 30; n >= 16; --n) {
    if (rows % n == 0) return n;
  }
  return 24;
}

i64 grid_for_dim(const ConvShape& shape, int d) {
  const i64 want = shape.image[d] + 2 * shape.padding[d] + shape.kernel[d] - 1;
  i64 g = static_cast<i64>(next_pow2(static_cast<u64>(want)));
  if (g > kMaxGrid) {
    g = std::max<i64>(kMaxGrid, static_cast<i64>(next_pow2(
                                    2 * static_cast<u64>(shape.kernel[d]))));
  }
  return g;
}

}  // namespace

FftGeometry fft_conv_geometry(const ConvShape& shape) {
  shape.validate();
  FftGeometry geo;
  const int rank = shape.image.rank();
  const Dims out = shape.output();
  for (int d = 0; d < rank; ++d) {
    const i64 g = grid_for_dim(shape, d);
    const i64 t_out = g - shape.kernel[d] + 1;
    ONDWIN_CHECK(t_out >= 1, "FFT grid ", g, " too small for kernel ",
                 shape.kernel[d]);
    geo.grid.push_back(g);
    geo.tile_out.push_back(t_out);
    geo.tiles.push_back(ceil_div(out[d], t_out));
  }
  Dims freq = geo.grid;
  const i64 gl = geo.grid[rank - 1];
  freq[rank - 1] = gl <= 1 ? 1 : gl / 2 + 1;
  geo.bins = freq.product();
  geo.rows = shape.batch * geo.tiles.product();
  return geo;
}

FftConvPlan::FftConvPlan(const ConvShape& shape, const PlanOptions& options,
                         const Blocking& blocking,
                         std::shared_ptr<ThreadPool> pool)
    : shape_(shape),
      options_(options),
      in_layout_(shape.batch, shape.in_channels, shape.image),
      out_layout_(shape.batch, shape.out_channels, shape.output()),
      kernel_layout_(shape.in_channels, shape.out_channels, shape.kernel),
      rfft_([&] {
        shape.validate();
        return grid_for_dim(shape, shape.image.rank() - 1);
      }()),
      pool_(pool != nullptr ? std::move(pool)
                            : std::make_shared<ThreadPool>(
                                  options.threads > 0 ? options.threads
                                                      : hardware_threads())) {
  const int rank = shape_.image.rank();
  const FftGeometry geo = fft_conv_geometry(shape_);
  grid_ = geo.grid;
  tile_out_ = geo.tile_out;
  tiles_ = geo.tiles;

  freq_extent_ = grid_;
  freq_extent_[rank - 1] = rfft_.bins();
  bins_ = freq_extent_.product();
  freq_floats_ = bins_;
  grid_floats_ = grid_.product();
  rows_ = shape_.batch * tiles_.product();

  // Blocking: overrides when valid, heuristic otherwise.
  const i64 C = shape_.in_channels, Cp = shape_.out_channels;
  ONDWIN_CHECK(C % kSimdWidth == 0 && Cp % kSimdWidth == 0,
               "fftconv requires channel counts divisible by ", kSimdWidth);
  blocking_.c_blk = (blocking.c_blk >= 16 && blocking.c_blk % 16 == 0 &&
                     C % blocking.c_blk == 0)
                        ? blocking.c_blk
                        : pick_channel_block(C);
  blocking_.cp_blk = (blocking.cp_blk >= 16 && blocking.cp_blk % 16 == 0 &&
                      Cp % blocking.cp_blk == 0)
                         ? blocking.cp_blk
                         : pick_channel_block(Cp);
  blocking_.n_blk = (blocking.n_blk >= 1 && blocking.n_blk <= 30)
                        ? blocking.n_blk
                        : pick_row_block(rows_);
  kb_ = C / blocking_.c_blk;
  jb_ = Cp / blocking_.cp_blk;
  rows_padded_ = round_up(rows_, blocking_.n_blk);

  for (int d = 0; d < rank - 1; ++d) {
    lead_tables_.push_back(fft_tables(grid_[d]));
  }

  kernels_ = std::make_unique<KernelSet>(
      blocking_.n_blk, blocking_.c_blk, blocking_.cp_blk,
      options_.streaming_stores ? StoreMode::kStream : StoreMode::kAccumulate,
      options_.use_jit);

  plane_u_ = bins_ * rows_padded_ * C;
  plane_x_ = bins_ * rows_padded_ * Cp;
  // Sized for the compiled batch; an n-sample execute uses the first
  // ⌈n·tiles/n_blk⌉ row blocks of every bin. Zeroed once at checkout: the
  // rows of the last one past n·tiles hold zeros or an earlier execute's
  // rows, and the GEMM multiplies them only into X̂ rows nothing reads.
  work_ = mem::Workspace::from_pool(
      mem::WorkspacePool::global(),
      static_cast<std::size_t>(3 * plane_u_ + 2 * plane_x_), /*zero=*/true);

  const i64 lead_rows = grid_floats_ / grid_[rank - 1];
  scratch_per_thread_ =
      (grid_floats_ + 2 * lead_rows * rfft_.bins() + grid_[rank - 1]) *
      kSimdWidth;
  scratch_ = mem::Workspace::from_pool(
      mem::WorkspacePool::global(),
      static_cast<std::size_t>(pool_->size() * scratch_per_thread_),
      /*zero=*/false);

  Stats& s = stats();
  s.plans.fetch_add(1, std::memory_order_relaxed);
  s.workspace_bytes.fetch_add(workspace_bytes(), std::memory_order_relaxed);
  static obs::Counter& plans_total = obs::MetricsRegistry::global().counter(
      "ondwin_fftconv_plans_total", "FFT convolution plans constructed");
  plans_total.inc();
}

FftConvPlan::~FftConvPlan() {
  stats().workspace_bytes.fetch_sub(workspace_bytes(),
                                    std::memory_order_relaxed);
}

i64 FftConvPlan::workspace_bytes() const {
  i64 b = static_cast<i64>((work_.size() + scratch_.size()) * sizeof(float));
  b += static_cast<i64>(v_.size() * sizeof(float));
  return b;
}

// Runs the forward N-D transform of one lane-blocked real grid in thread
// scratch: R2C along the last dimension, then lane FFTs along the rest.
void FftConvPlan::forward_grid(float* realg, float* fre, float* fim) const {
  const int rank = shape_.image.rank();
  const i64 grid_l = grid_[rank - 1];
  const i64 bins_l = rfft_.bins();
  const i64 lead_rows = grid_floats_ / grid_l;
  for (i64 r = 0; r < lead_rows; ++r) {
    rfft_.forward(realg + r * grid_l * kSimdWidth,
                  fre + r * bins_l * kSimdWidth,
                  fim + r * bins_l * kSimdWidth);
  }
  const Dims fstrides = freq_extent_.strides();
  for (int d = 0; d < rank - 1; ++d) {
    const i64 fibers = bins_ / freq_extent_[d];
    Dims other = freq_extent_;
    other[d] = 1;
    for (i64 f = 0; f < fibers; ++f) {
      const i64 off = freq_extent_.offset_of(other.coord_of(f)) * kSimdWidth;
      lane_fft(*lead_tables_[static_cast<std::size_t>(d)], fre + off,
               fim + off, fstrides[d], /*inverse=*/false);
    }
  }
}

void FftConvPlan::set_kernels(const float* kernels_blocked) {
  ONDWIN_TRACE_SPAN("fftconv.kernels");
  const i64 C = shape_.in_channels, Cp = shape_.out_channels;
  if (v_.empty()) {
    v_.reset(static_cast<std::size_t>(2 * bins_ * C * Cp));
    stats().workspace_bytes.fetch_add(
        static_cast<i64>(v_.size() * sizeof(float)),
        std::memory_order_relaxed);
  }
  float* v_re = v_.data();
  float* v_im = v_.data() + bins_ * C * Cp;

  const int rank = shape_.image.rank();
  const i64 taps = shape_.kernel.product();
  const i64 out_groups = Cp / kSimdWidth;
  const i64 tasks = C * out_groups;
  const int nthreads = pool_->size();
  const i64 bin_stride = C * Cp;

  pool_->run([&](int tid) {
    float* realg = scratch_.data() + tid * scratch_per_thread_;
    float* fre = realg + grid_floats_ * kSimdWidth;
    float* fim = fre + freq_floats_ * kSimdWidth;
    for (i64 t = tid; t < tasks; t += nthreads) {
      const i64 c = t / out_groups;
      const i64 j16 = t % out_groups;
      std::memset(realg, 0,
                  static_cast<std::size_t>(grid_floats_ * kSimdWidth) *
                      sizeof(float));
      // Correlation = convolution with the flipped kernel at the origin.
      for (i64 k = 0; k < taps; ++k) {
        const Dims kc = shape_.kernel.coord_of(k);
        Dims fc = kc;
        for (int d = 0; d < rank; ++d) fc[d] = shape_.kernel[d] - 1 - kc[d];
        std::memcpy(realg + grid_.offset_of(fc) * kSimdWidth,
                    kernels_blocked + kernel_layout_.group_offset(c, j16, kc),
                    sizeof(float) * kSimdWidth);
      }
      forward_grid(realg, fre, fim);

      // Scatter the bins into the blocked V planes
      // [F][C/c_blk][C'/cp_blk][c_blk][cp_blk].
      const i64 kcol = c / blocking_.c_blk;
      const i64 crow = c % blocking_.c_blk;
      const i64 jcol = (j16 * kSimdWidth) / blocking_.cp_blk;
      const i64 joff = (j16 * kSimdWidth) % blocking_.cp_blk;
      const i64 base =
          ((kcol * jb_ + jcol) * blocking_.c_blk + crow) * blocking_.cp_blk +
          joff;
      for (i64 f = 0; f < bins_; ++f) {
        std::memcpy(v_re + f * bin_stride + base, fre + f * kSimdWidth,
                    sizeof(float) * kSimdWidth);
        std::memcpy(v_im + f * bin_stride + base, fim + f * kSimdWidth,
                    sizeof(float) * kSimdWidth);
      }
    }
  });
}

void FftConvPlan::transform_input_task(int tid, int threads, i64 rows,
                                       const float* input) {
  const int rank = shape_.image.rank();
  const i64 in_groups = shape_.in_channels / kSimdWidth;
  const i64 tasks = rows * in_groups;
  const i64 tiles_total = tiles_.product();

  float* realg = scratch_.data() + tid * scratch_per_thread_;
  float* fre = realg + grid_floats_ * kSimdWidth;
  float* fim = fre + freq_floats_ * kSimdWidth;
  float* u_re = work_.data();
  float* u_im = u_re + plane_u_;
  float* u_imneg = u_im + plane_u_;

  // Leading-dimension iteration space of one grid (all dims but the last).
  Dims lead = grid_;
  lead[rank - 1] = 1;

  for (i64 t = tid; t < tasks; t += threads) {
    const i64 n = t / in_groups;
    const i64 g = t % in_groups;
    const i64 b = n / tiles_total;
    const Dims tc = tiles_.coord_of(n % tiles_total);

    std::memset(realg, 0,
                static_cast<std::size_t>(grid_floats_ * kSimdWidth) *
                    sizeof(float));
    // Copy the in-range part of the tile's input patch. Grid position j_d
    // samples input at iorg_d + j_d with iorg = tile origin − padding;
    // everything else stays zero (the symmetric pad and the halo beyond
    // the image).
    Dims iorg = tc;
    Dims lo = tc, hi = tc;
    bool empty = false;
    for (int d = 0; d < rank; ++d) {
      iorg[d] = tc[d] * tile_out_[d] - shape_.padding[d];
      lo[d] = std::max<i64>(0, -iorg[d]);
      hi[d] = std::min(grid_[d], shape_.image[d] - iorg[d]);
      if (hi[d] <= lo[d]) empty = true;
    }
    if (!empty) {
      Dims lead_span = lo;  // extents of the copyable leading region
      for (int d = 0; d < rank - 1; ++d) lead_span[d] = hi[d] - lo[d];
      lead_span[rank - 1] = 1;
      const i64 lead_count = lead_span.product();
      const i64 run = (hi[rank - 1] - lo[rank - 1]) * kSimdWidth;
      for (i64 li = 0; li < lead_count; ++li) {
        Dims jc = lead_span.coord_of(li);
        Dims src = jc;
        for (int d = 0; d < rank - 1; ++d) {
          jc[d] += lo[d];
          src[d] = iorg[d] + jc[d];
        }
        jc[rank - 1] = lo[rank - 1];
        src[rank - 1] = iorg[rank - 1] + lo[rank - 1];
        std::memcpy(realg + grid_.offset_of(jc) * kSimdWidth,
                    input + in_layout_.group_offset(b, g, src),
                    sizeof(float) * static_cast<std::size_t>(run));
      }
    }

    forward_grid(realg, fre, fim);

    // Scatter into the Û planes [F][rows/n_blk][C/c_blk][n_blk][c_blk].
    const int n_blk = blocking_.n_blk;
    const i64 i = n / n_blk;
    const i64 r = n % n_blk;
    const i64 kcol = (g * kSimdWidth) / blocking_.c_blk;
    const i64 coff = (g * kSimdWidth) % blocking_.c_blk;
    const i64 base =
        ((i * kb_ + kcol) * n_blk + r) * blocking_.c_blk + coff;
    const i64 bin_stride = rows_padded_ * shape_.in_channels;
    for (i64 f = 0; f < bins_; ++f) {
      const float* s_re = fre + f * kSimdWidth;
      const float* s_im = fim + f * kSimdWidth;
      float* d_re = u_re + f * bin_stride + base;
      float* d_im = u_im + f * bin_stride + base;
      float* d_ng = u_imneg + f * bin_stride + base;
      for (i64 s = 0; s < kSimdWidth; ++s) {
        d_re[s] = s_re[s];
        d_im[s] = s_im[s];
        d_ng[s] = -s_im[s];
      }
    }
  }
}

void FftConvPlan::gemm_task(int tid, int threads, i64 rows) {
  const i64 C = shape_.in_channels, Cp = shape_.out_channels;
  const int n_blk = blocking_.n_blk;
  const int c_blk = blocking_.c_blk;
  const int cp_blk = blocking_.cp_blk;
  const i64 row_blocks = ceil_div(rows, static_cast<i64>(n_blk));
  const i64 u_bin = rows_padded_ * C;
  const i64 v_bin = C * Cp;
  const i64 x_bin = rows_padded_ * Cp;
  const int k_count = static_cast<int>(2 * kb_);

  float* wbase = work_.data();
  const float* u_re = wbase;
  const float* u_im = u_re + plane_u_;
  const float* u_imneg = u_im + plane_u_;
  float* x_re = wbase + 3 * plane_u_;
  float* x_im = x_re + plane_x_;
  const float* v_re = v_.data();
  const float* v_im = v_re + bins_ * C * Cp;
  // The blocks of chain step k of `pass` in bin f. The X_re chain (pass 0)
  // is U_re·V_re then (−U_im)·V_im, the X_im chain U_re·V_im then
  // U_im·V_re: each is one accumulation chain of 2·kb steps with the
  // final store streaming.
  const auto u_at = [&](i64 f, i64 i, int pass, int k) {
    const bool first_half = k < static_cast<int>(kb_);
    const i64 kk = first_half ? k : k - kb_;
    const float* plane = first_half ? u_re : pass == 0 ? u_imneg : u_im;
    return plane + f * u_bin + (i * kb_ + kk) * n_blk * c_blk;
  };
  const auto v_at = [&](i64 f, i64 j, int pass, int k) {
    const bool first_half = k < static_cast<int>(kb_);
    const i64 kk = first_half ? k : k - kb_;
    return ((pass == 0) == first_half ? v_re : v_im) + f * v_bin +
           (kk * jb_ + j) * c_blk * cp_blk;
  };
  const auto x_at = [&](i64 f, i64 i, i64 j, int pass) {
    return (pass == 0 ? x_re : x_im) + f * x_bin +
           (i * jb_ + j) * n_blk * cp_blk;
  };

  for (i64 f = tid; f < bins_; f += threads) {
    for (i64 j = 0; j < jb_; ++j) {
      for (i64 i = 0; i < row_blocks; ++i) {
        const i64 inext = (i + 1 < row_blocks) ? i + 1 : i;
        for (int pass = 0; pass < 2; ++pass) {
          for (int k = 0; k < k_count; ++k) {
            MicrokernelArgs args;
            args.u = u_at(f, i, pass, k);
            args.v = v_at(f, j, pass, k);
            args.x = x_at(f, i, j, pass);
            args.u_next = u_at(f, inext, pass, k);
            args.x_next = x_at(f, inext, j, pass);
            // The next call's V̂: the chain's next step, the X_im chain's
            // first, or the first of the next row block, column block or
            // bin of this thread.
            if (k + 1 < k_count) {
              args.v_next = v_at(f, j, pass, k + 1);
            } else if (pass == 0) {
              args.v_next = v_at(f, j, 1, 0);
            } else if (i + 1 < row_blocks) {
              args.v_next = v_at(f, j, 0, 0);
            } else if (j + 1 < jb_) {
              args.v_next = v_at(f, j + 1, 0, 0);
            } else {
              args.v_next =
                  v_at(f + threads < bins_ ? f + threads : f, 0, 0, 0);
            }
            kernels_->run_step(k, k_count, args);
          }
        }
      }
    }
  }
}

void FftConvPlan::inverse_task(int tid, int threads, i64 rows,
                               float* output, const Epilogue& epilogue) {
  const int rank = shape_.image.rank();
  const Dims out = shape_.output();
  const i64 out_groups = shape_.out_channels / kSimdWidth;
  const i64 tasks = rows * out_groups;
  const i64 tiles_total = tiles_.product();
  const i64 grid_l = grid_[rank - 1];
  const i64 bins_l = rfft_.bins();
  const i64 lead_rows = grid_floats_ / grid_l;

  float* realg = scratch_.data() + tid * scratch_per_thread_;
  float* fre = realg + grid_floats_ * kSimdWidth;
  float* fim = fre + freq_floats_ * kSimdWidth;
  float* c2r_scratch = fim + freq_floats_ * kSimdWidth;
  const float* x_re = work_.data() + 3 * plane_u_;
  const float* x_im = x_re + plane_x_;

  const Dims fstrides = freq_extent_.strides();

  for (i64 t = tid; t < tasks; t += threads) {
    const i64 n = t / out_groups;
    const i64 j16 = t % out_groups;
    const i64 b = n / tiles_total;
    const Dims tc = tiles_.coord_of(n % tiles_total);

    // Gather this (row, output group)'s bins from the X̂ planes.
    const int n_blk = blocking_.n_blk;
    const i64 i = n / n_blk;
    const i64 r = n % n_blk;
    const i64 jcol = (j16 * kSimdWidth) / blocking_.cp_blk;
    const i64 joff = (j16 * kSimdWidth) % blocking_.cp_blk;
    const i64 base =
        ((i * jb_ + jcol) * n_blk + r) * blocking_.cp_blk + joff;
    const i64 bin_stride = rows_padded_ * shape_.out_channels;
    for (i64 f = 0; f < bins_; ++f) {
      std::memcpy(fre + f * kSimdWidth, x_re + f * bin_stride + base,
                  sizeof(float) * kSimdWidth);
      std::memcpy(fim + f * kSimdWidth, x_im + f * bin_stride + base,
                  sizeof(float) * kSimdWidth);
    }

    // Inverse transforms: leading lane FFTs, then C2R on the last dim.
    for (int d = 0; d < rank - 1; ++d) {
      const i64 fibers = bins_ / freq_extent_[d];
      Dims other = freq_extent_;
      other[d] = 1;
      for (i64 fi = 0; fi < fibers; ++fi) {
        const i64 off =
            freq_extent_.offset_of(other.coord_of(fi)) * kSimdWidth;
        lane_fft(*lead_tables_[static_cast<std::size_t>(d)], fre + off,
                 fim + off, fstrides[d], /*inverse=*/true);
      }
    }
    for (i64 rr = 0; rr < lead_rows; ++rr) {
      rfft_.inverse(fre + rr * bins_l * kSimdWidth,
                    fim + rr * bins_l * kSimdWidth,
                    realg + rr * grid_l * kSimdWidth, c2r_scratch);
    }

    // Crop the overlap-save valid region (offset kernel−1 per dim) into
    // the blocked output, fusing the bias/ReLU epilogue into the store.
    float bias_vec[kSimdWidth];
    if (epilogue.bias != nullptr) {
      std::memcpy(bias_vec, epilogue.bias + j16 * kSimdWidth,
                  sizeof(bias_vec));
    } else {
      std::memset(bias_vec, 0, sizeof(bias_vec));
    }
    Dims org = tc, ext = tc;
    for (int d = 0; d < rank; ++d) {
      org[d] = tc[d] * tile_out_[d];
      ext[d] = std::min(tile_out_[d], out[d] - org[d]);
    }
    Dims lead_ext = ext;
    lead_ext[rank - 1] = 1;
    const i64 lead_count = lead_ext.product();
    const i64 ext_l = ext[rank - 1];
    for (i64 li = 0; li < lead_count; ++li) {
      const Dims jc = lead_ext.coord_of(li);
      Dims srcc = jc, dstc = jc;
      for (int d = 0; d < rank; ++d) {
        srcc[d] = jc[d] + shape_.kernel[d] - 1;
        dstc[d] = org[d] + jc[d];
      }
      srcc[rank - 1] = shape_.kernel[rank - 1] - 1;
      dstc[rank - 1] = org[rank - 1];
      const float* src = realg + grid_.offset_of(srcc) * kSimdWidth;
      float* dst = output + out_layout_.group_offset(b, j16, dstc);
      if (epilogue.active()) {
        for (i64 q = 0; q < ext_l; ++q) {
          for (i64 s = 0; s < kSimdWidth; ++s) {
            float v = src[q * kSimdWidth + s] + bias_vec[s];
            if (epilogue.relu && v < 0.0f) v = 0.0f;
            dst[q * kSimdWidth + s] = v;
          }
        }
      } else {
        std::memcpy(dst, src,
                    sizeof(float) *
                        static_cast<std::size_t>(ext_l * kSimdWidth));
      }
    }
  }
}

void FftConvPlan::execute_pretransformed(const float* input, float* output,
                                         const Epilogue& epilogue, i64 n) {
  ONDWIN_CHECK(kernels_ready(),
               "FftConvPlan::set_kernels must be called first");
  if (n == 0) n = shape_.batch;
  ONDWIN_CHECK(n >= 1 && n <= shape_.batch, "execute of ", n,
               " samples on an FFT plan compiled for ", shape_.batch);
  ONDWIN_CHECK(!epilogue.pooled(),
               "fftconv does not fuse pooling; the planner routes pooled "
               "epilogues to Winograd");
  ONDWIN_TRACE_SPAN("fftconv.execute");
  stats().executes.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& execs = obs::MetricsRegistry::global().counter(
      "ondwin_fftconv_executes_total",
      "FFT convolution batch executions");
  execs.inc();

  const int threads = pool_->size();
  const i64 rows = n * tiles_.product();
  {
    ONDWIN_TRACE_SPAN("fftconv.input");
    pool_->run(
        [&](int tid) { transform_input_task(tid, threads, rows, input); });
  }
  {
    ONDWIN_TRACE_SPAN("fftconv.gemm");
    pool_->run([&](int tid) { gemm_task(tid, threads, rows); });
  }
  {
    ONDWIN_TRACE_SPAN("fftconv.inverse");
    pool_->run([&](int tid) {
      inverse_task(tid, threads, rows, output, epilogue);
    });
  }
}

FftconvTotals fftconv_totals() {
  Stats& s = stats();
  FftconvTotals t;
  t.plans = s.plans.load(std::memory_order_relaxed);
  t.executes = s.executes.load(std::memory_order_relaxed);
  t.selected_fft = s.selected_fft.load(std::memory_order_relaxed);
  t.selected_other = s.selected_other.load(std::memory_order_relaxed);
  t.workspace_bytes = s.workspace_bytes.load(std::memory_order_relaxed);
  return t;
}

void note_selection(const char* algorithm_name) {
  Stats& s = stats();
  const bool is_fft =
      algorithm_name != nullptr && std::strcmp(algorithm_name, "fft") == 0;
  if (is_fft) {
    s.selected_fft.fetch_add(1, std::memory_order_relaxed);
  } else {
    s.selected_other.fetch_add(1, std::memory_order_relaxed);
  }
  static obs::Counter& sel_fft = obs::MetricsRegistry::global().counter(
      "ondwin_fftconv_selected_total",
      "Planner decisions by algorithmic class", {{"algorithm", "fft"}});
  static obs::Counter& sel_other = obs::MetricsRegistry::global().counter(
      "ondwin_fftconv_selected_total",
      "Planner decisions by algorithmic class", {{"algorithm", "other"}});
  (is_fft ? sel_fft : sel_other).inc();
  static obs::Gauge& ws = obs::MetricsRegistry::global().gauge(
      "ondwin_fftconv_workspace_bytes",
      "Live FFT-convolution workspace bytes (Û/X̂ planes, kernel banks)");
  ws.set(static_cast<double>(
      s.workspace_bytes.load(std::memory_order_relaxed)));
}

std::string statusz_report() {
  const FftconvTotals t = fftconv_totals();
  std::ostringstream os;
  os << "fftconv: plans=" << t.plans << " executes=" << t.executes
     << " selected_fft=" << t.selected_fft
     << " selected_other=" << t.selected_other
     << " workspace_bytes=" << t.workspace_bytes
     << " fft_tables_cached=" << fft_tables_cached() << "\n";
  return os.str();
}

}  // namespace ondwin::fftconv
