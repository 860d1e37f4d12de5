#include "gemm/batched_gemm.h"

#include <cstring>

namespace ondwin {

KernelSet::KernelSet(int n_blk, int c_blk, int cp_blk, StoreMode final_store,
                     bool use_jit, Precision in_prec, Precision out_prec) {
  MicrokernelSpec base{n_blk, c_blk, cp_blk, false, StoreMode::kAccumulate};
  base.in_prec = in_prec;
  specs_[kFirst] = base;
  specs_[kMiddle] = base;
  specs_[kMiddle].beta = true;
  specs_[kLast] = base;
  specs_[kLast].beta = true;
  specs_[kLast].store = final_store;
  specs_[kLast].out_prec = out_prec;
  specs_[kOnly] = base;
  specs_[kOnly].store = final_store;
  specs_[kOnly].out_prec = out_prec;
  for (auto& s : specs_) validate_microkernel_spec(s);
  // kFirst and kLast together carry every ISA requirement of the set
  // (kMiddle/kOnly only toggle beta relative to them).
  use_jit_ = use_jit && microkernel_jit_supported(specs_[kFirst]) &&
             microkernel_jit_supported(specs_[kLast]);
  if (use_jit_) {
    for (int r = 0; r < 4; ++r) {
      kernels_[r] = std::make_unique<Microkernel>(specs_[r]);
    }
  }
}

void BlockedGemmShape::validate() const {
  ONDWIN_CHECK(n_blk >= 1 && c_blk >= 16 && cp_blk >= 16, "bad block sizes");
  ONDWIN_CHECK(rows > 0 && rows % n_blk == 0, "rows (", rows,
               ") must be a positive multiple of n_blk (", n_blk, ")");
  ONDWIN_CHECK(c > 0 && c % c_blk == 0, "C (", c,
               ") must be a positive multiple of c_blk (", c_blk, ")");
  ONDWIN_CHECK(cp > 0 && cp % cp_blk == 0, "C' (", cp,
               ") must be a positive multiple of cp_blk (", cp_blk, ")");
}

BlockedGemm::BlockedGemm(const BlockedGemmShape& shape, bool use_jit,
                         StoreMode final_store, Precision in_prec)
    : shape_(shape),
      kernels_(shape.n_blk, shape.c_blk, shape.cp_blk, final_store, use_jit,
               in_prec) {
  shape_.validate();
  ONDWIN_CHECK(!store_scatters(final_store),
               "BlockedGemm writes X in blocked layout; scatter is driven by "
               "the convolution engine");
}

void BlockedGemm::run(const float* u, const float* v, float* x) const {
  const auto& s = shape_;
  const i64 in_bytes = precision_bytes(kernels_.in_prec());
  const i64 u_blk = static_cast<i64>(s.n_blk) * s.c_blk;
  const i64 v_blk = static_cast<i64>(s.c_blk) * s.cp_blk;
  const i64 x_blk = static_cast<i64>(s.n_blk) * s.cp_blk;
  const i64 kb = s.k_blocks();
  const char* ub = reinterpret_cast<const char*>(u);
  const char* vbytes = reinterpret_cast<const char*>(v);

  const auto v_at = [&](i64 k, i64 j) {
    return reinterpret_cast<const float*>(
        vbytes + (k * s.col_blocks() + j) * v_blk * in_bytes);
  };

  // j outer, k middle, i inner: every Û_{i,k} streams past a V̂_{k,j} that
  // stays hot in L2 (the "batched multiplications with the same V̂").
  for (i64 j = 0; j < s.col_blocks(); ++j) {
    for (i64 k = 0; k < kb; ++k) {
      const float* vb = v_at(k, j);
      // The V̂ of the (k, j) step after this one, read once i wraps.
      const float* v_following = vb;
      if (k + 1 < kb) {
        v_following = v_at(k + 1, j);
      } else if (j + 1 < s.col_blocks()) {
        v_following = v_at(0, j + 1);
      }
      for (i64 i = 0; i < s.row_blocks(); ++i) {
        MicrokernelArgs args;
        args.u = reinterpret_cast<const float*>(ub +
                                                (i * kb + k) * u_blk *
                                                    in_bytes);
        args.v = vb;
        args.v_next = i + 1 < s.row_blocks() ? vb : v_following;
        args.x = x + (i * s.col_blocks() + j) * x_blk;
        const i64 inext = (i + 1 < s.row_blocks()) ? i + 1 : i;
        args.u_next = reinterpret_cast<const float*>(
            ub + (inext * kb + k) * u_blk * in_bytes);
        args.x_next = x + (inext * s.col_blocks() + j) * x_blk;
        kernels_.run_step(static_cast<int>(k), static_cast<int>(kb), args);
      }
    }
  }
}

FusedBlockGemm::FusedBlockGemm(const KernelSet& kernels, int n_blk,
                               int c_blk, int cp_blk, i64 kb, i64 jb,
                               i64 t_elems, i64 out_groups, bool scatter,
                               Precision x_prec)
    : kernels_(kernels),
      n_blk_(n_blk),
      c_blk_(c_blk),
      cp_blk_(cp_blk),
      kb_(kb),
      jb_(jb),
      t_elems_(t_elems),
      out_groups_(out_groups),
      scatter_(scatter),
      x_prec_(x_prec) {
  ONDWIN_CHECK(cp_blk_ % kSimdWidth == 0, "cp_blk must be a multiple of ",
               kSimdWidth);
  ONDWIN_CHECK(!scatter_ || kernels_.out_prec() == x_prec_,
               "scatter-mode FusedBlockGemm needs a KernelSet whose final "
               "store writes the x_scatter precision");
}

void FusedBlockGemm::run(i64 row_blocks, const float* u_panel,
                         const float* w, float* x_scatter, float* x_accum,
                         float** scatter_rows) const {
  const i64 u_blk = static_cast<i64>(n_blk_) * c_blk_;
  const i64 v_blk = static_cast<i64>(c_blk_) * cp_blk_;
  const i64 groups_per_j = cp_blk_ / kSimdWidth;
  const i64 in_bytes = precision_bytes(kernels_.in_prec());
  const i64 x_bytes = precision_bytes(x_prec_);
  const char* ub = reinterpret_cast<const char*>(u_panel);
  const char* wb = reinterpret_cast<const char*>(w);
  char* xb = reinterpret_cast<char*>(x_scatter);

  MicrokernelArgs args;
  args.scatter_rows = scatter_rows;
  args.scatter_col_stride_bytes = t_elems_ * kSimdWidth * x_bytes;

  // t → j → i keeps V̂_{k,j,t} hot across the block's row blocks; k is the
  // innermost (accumulation) loop, exactly as in the staged schedule.
  for (i64 t = 0; t < t_elems_; ++t) {
    for (i64 j = 0; j < jb_; ++j) {
      const i64 g0 = j * groups_per_j;
      for (i64 i = 0; i < row_blocks; ++i) {
        if (scatter_) {
          for (int jr = 0; jr < n_blk_; ++jr) {
            const i64 np = i * n_blk_ + jr;
            scatter_rows[jr] = reinterpret_cast<float*>(
                xb + ((np * out_groups_ + g0) * t_elems_ + t) * kSimdWidth *
                         x_bytes);
          }
        }
        const i64 inext = (i + 1 < row_blocks) ? i + 1 : i;
        // The (j, t) the call after this row block's last k step reads:
        // the same one for the next row block, else the next in j → t
        // order (wrapping to the next tile block's first).
        i64 j_next = j, t_next = t;
        if (inext == i) {
          if (j + 1 < jb_) {
            j_next = j + 1;
          } else {
            j_next = 0;
            t_next = t + 1 < t_elems_ ? t + 1 : 0;
          }
        }
        args.x = x_accum;
        args.x_next = x_accum;
        for (i64 k = 0; k < kb_; ++k) {
          args.u = reinterpret_cast<const float*>(
              ub + ((i * kb_ + k) * t_elems_ + t) * u_blk * in_bytes);
          args.v = reinterpret_cast<const float*>(
              wb + ((k * jb_ + j) * t_elems_ + t) * v_blk * in_bytes);
          args.v_next = reinterpret_cast<const float*>(
              wb + (k + 1 < kb_ ? ((k + 1) * jb_ + j) * t_elems_ + t
                                : j_next * t_elems_ + t_next) *
                       v_blk * in_bytes);
          args.u_next = reinterpret_cast<const float*>(
              ub + ((inext * kb_ + k) * t_elems_ + t) * u_blk * in_bytes);
          kernels_.run_step(static_cast<int>(k), static_cast<int>(kb_),
                            args);
        }
        if (!scatter_) {
          // Final store accumulated into x_accum; reshape the rows into
          // the scatter (inverse-transform source) layout, converting to
          // the I' storage format on the way when it is reduced.
          for (int jr = 0; jr < n_blk_; ++jr) {
            const i64 np = i * n_blk_ + jr;
            for (i64 q = 0; q < groups_per_j; ++q) {
              char* dst =
                  xb + ((np * out_groups_ + g0 + q) * t_elems_ + t) *
                           kSimdWidth * x_bytes;
              const float* src = x_accum + jr * cp_blk_ + q * kSimdWidth;
              if (x_prec_ == Precision::kFp32) {
                std::memcpy(dst, src, sizeof(float) * kSimdWidth);
              } else {
                convert_fp32_to_storage(x_prec_, src,
                                        reinterpret_cast<u16*>(dst),
                                        kSimdWidth);
              }
            }
          }
        }
      }
    }
  }
}

void pack_u_blocks(const float* plain, float* blocked, i64 rows, i64 cols,
                   int row_blk, int col_blk) {
  ONDWIN_CHECK(rows % row_blk == 0 && cols % col_blk == 0,
               "pack_u_blocks: shape not divisible by blocks");
  const i64 rb = rows / row_blk, cb = cols / col_blk;
  for (i64 i = 0; i < rb; ++i)
    for (i64 k = 0; k < cb; ++k)
      for (i64 r = 0; r < row_blk; ++r)
        std::memcpy(
            blocked + ((i * cb + k) * row_blk + r) * col_blk,
            plain + (i * row_blk + r) * cols + k * col_blk,
            sizeof(float) * static_cast<std::size_t>(col_blk));
}

void unpack_x_blocks(const float* blocked, float* plain, i64 rows, i64 cols,
                     int row_blk, int col_blk) {
  ONDWIN_CHECK(rows % row_blk == 0 && cols % col_blk == 0,
               "unpack_x_blocks: shape not divisible by blocks");
  const i64 rb = rows / row_blk, cb = cols / col_blk;
  for (i64 i = 0; i < rb; ++i)
    for (i64 k = 0; k < cb; ++k)
      for (i64 r = 0; r < row_blk; ++r)
        std::memcpy(
            plain + (i * row_blk + r) * cols + k * col_blk,
            blocked + ((i * cb + k) * row_blk + r) * col_blk,
            sizeof(float) * static_cast<std::size_t>(col_blk));
}

void pack_v_blocks(const float* plain, float* blocked, i64 rows, i64 cols,
                   int row_blk, int col_blk) {
  ONDWIN_CHECK(rows % row_blk == 0 && cols % col_blk == 0,
               "pack_v_blocks: shape not divisible by blocks");
  const i64 rb = rows / row_blk, cb = cols / col_blk;
  for (i64 k = 0; k < rb; ++k)
    for (i64 j = 0; j < cb; ++j)
      for (i64 r = 0; r < row_blk; ++r)
        std::memcpy(
            blocked + ((k * cb + j) * row_blk + r) * col_blk,
            plain + (k * row_blk + r) * cols + j * col_blk,
            sizeof(float) * static_cast<std::size_t>(col_blk));
}

}  // namespace ondwin
