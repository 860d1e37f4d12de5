#include "transform/tile_pipeline.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "gemm/microkernel.h"  // microkernel_jit_supported()
#include "jit/assembler.h"

namespace ondwin {
namespace {

// zmm28..31 are reserved; programs use the registers below them.
constexpr int kPoolAccReg = 28;  // max-pool accumulator
constexpr int kEpiReg = 29;      // epilogue value on its way to the store
constexpr int kZeroReg = 30;     // ReLU's zero
constexpr int kCoeffReg = 31;    // broadcast coefficient of kFmaIn
constexpr int kFirstReservedReg = 28;

// store_tile_pooled's accumulator start value.
constexpr float kPoolInit = -3.4e38f;

int max_register(const TransformProgram& p) {
  int m = 0;
  for (const auto& op : p.ops) {
    m = std::max({m, static_cast<int>(op.dst), static_cast<int>(op.a),
                  static_cast<int>(op.b)});
  }
  return m;
}

bool fits_i32(i64 v) {
  return v >= std::numeric_limits<i32>::min() &&
         v <= std::numeric_limits<i32>::max();
}

bool has_coeff(TransformOp::Kind k) {
  using K = TransformOp::Kind;
  return k == K::kMulIn || k == K::kFmaIn || k == K::kMulReg ||
         k == K::kFmaReg;
}

// Visits every coordinate of `extent[0..rank)` in row-major order.
template <typename Fn>
void for_each_coord(const i64* extent, int rank, Fn&& fn) {
  i64 c[kMaxNd] = {};
  for (;;) {
    fn(static_cast<const i64*>(c));
    int k = rank - 1;
    for (; k >= 0; --k) {
      if (++c[k] < extent[k]) break;
      c[k] = 0;
    }
    if (k < 0) return;
  }
}

// One dimension's pass over the tile, as transform_tile_nd runs it.
struct Pass {
  const TransformProgram* prog = nullptr;
  int dim = 0;
  bool last = false;
  int in_buf = -1;   // -1 = caller src, else scratch index
  int out_buf = -1;  // -1 = caller dst, else scratch index
  i64 in_strides[kMaxNd] = {};
  i64 out_strides[kMaxNd] = {};
  i64 iter_extent[kMaxNd] = {};  // fiber iteration space (extent[dim]=1)
  i64 fibers = 1;
};

}  // namespace

TilePipeline::TilePipeline(const TransformProgram* const* progs, int rank,
                           const i64* src_strides, const i64* dst_strides,
                           bool stream_dst, bool use_jit,
                           const TileEpilogue* epilogue)
    : rank_(rank), stream_(stream_dst), epilogue_(epilogue != nullptr) {
  ONDWIN_CHECK(rank >= 1 && rank <= kMaxNd, "bad rank ", rank);
  for (int d = 0; d < rank; ++d) {
    progs_[d] = progs[d];
    src_strides_[d] = src_strides[d];
    dst_strides_[d] = dst_strides[d];
  }
  if (use_jit) compile(epilogue);
}

void TilePipeline::run(const float* src, float* dst, TransformScratch& scratch,
                       const float* bias) const {
  if (fn_ != nullptr) {
    fn_(src, dst, scratch.buf0(), scratch.buf1(), bias);
    return;
  }
  ONDWIN_CHECK(!epilogue_, "epilogue pipelines exist only as JIT kernels");
  transform_tile_nd(progs_, rank_, src, src_strides_, dst, dst_strides_,
                    scratch, stream_);
}

bool TilePipeline::compile(const TileEpilogue* epilogue) {
  if (!microkernel_jit_supported()) return false;
  const TileEpilogue epi = epilogue != nullptr ? *epilogue : TileEpilogue{};
  const bool pooled = epi.pool_window > 1;
  for (int d = 0; d < rank_; ++d) {
    if (max_register(*progs_[d]) >= kFirstReservedReg) return false;
    if (pooled && progs_[d]->out_count % epi.pool_window != 0) return false;
  }

  // ---- pass geometry (identical to transform_tile_nd's) ----------------
  // A pooled pipeline's last pass writes the finished tile row-major into
  // the free scratch buffer, which the pool reduction then reads back.
  Pass passes[kMaxNd];
  i64 extent[kMaxNd];
  i64 cur_strides[kMaxNd];
  for (int d = 0; d < rank_; ++d) {
    extent[d] = progs_[d]->in_count;
    cur_strides[d] = src_strides_[d];
  }
  int cur_buf = -1;
  for (int d = 0; d < rank_; ++d) {
    Pass& pass = passes[d];
    pass.prog = progs_[d];
    pass.dim = d;
    pass.last = (d == rank_ - 1);
    pass.in_buf = cur_buf;
    for (int k = 0; k < rank_; ++k) pass.in_strides[k] = cur_strides[k];
    extent[d] = progs_[d]->out_count;
    if (pass.last && !pooled) {
      pass.out_buf = -1;
      for (int k = 0; k < rank_; ++k) pass.out_strides[k] = dst_strides_[k];
    } else {
      pass.out_buf = d % 2;
      i64 acc = kSimdWidth;
      for (int k = rank_ - 1; k >= 0; --k) {
        pass.out_strides[k] = acc;
        acc *= extent[k];
      }
    }
    for (int k = 0; k < rank_; ++k) {
      pass.iter_extent[k] = (k == d) ? 1 : extent[k];
      pass.fibers *= pass.iter_extent[k];
    }
    cur_buf = pass.out_buf;
    for (int k = 0; k < rank_; ++k) cur_strides[k] = pass.out_strides[k];
  }

  // ---- plan-time tables: coefficients and fiber offsets ----------------
  std::vector<float> coeffs;
  auto add_coeff = [&](float c) {
    for (float have : coeffs) {
      if (std::memcmp(&have, &c, sizeof c) == 0) return;
    }
    coeffs.push_back(c);
  };
  for (int d = 0; d < rank_; ++d) {
    for (const auto& op : progs_[d]->ops) {
      if (has_coeff(op.kind)) add_coeff(op.coeff);
    }
  }
  if (pooled) add_coeff(kPoolInit);
  coeffs_.reset(std::max<std::size_t>(coeffs.size(), 1));
  std::copy(coeffs.begin(), coeffs.end(), coeffs_.data());
  auto coeff_at = [&](float c) {
    for (std::size_t i = 0;; ++i) {
      if (std::memcmp(&coeffs[i], &c, sizeof c) == 0) {
        return addr(Gp::r9, static_cast<i32>(i * sizeof(float)));
      }
    }
  };

  // Every fiber's (in, out) byte offsets, pass after pass in run order.
  offsets_.clear();
  for (int d = 0; d < rank_; ++d) {
    const Pass& pass = passes[d];
    for_each_coord(pass.iter_extent, rank_, [&](const i64* c) {
      i64 in_off = 0, out_off = 0;
      for (int k = 0; k < rank_; ++k) {
        in_off += c[k] * pass.in_strides[k];
        out_off += c[k] * pass.out_strides[k];
      }
      offsets_.push_back(in_off * static_cast<i64>(sizeof(float)));
      offsets_.push_back(out_off * static_cast<i64>(sizeof(float)));
    });
  }

  // ---- code ------------------------------------------------------------
  // SysV: src = rdi, dst = rsi, buf0 = rdx, buf1 = rcx, bias = r8. r9
  // holds the coefficient table and r10 walks the offset table; each pass
  // counts its fibers in rbx (callee-saved, pushed) and addresses the
  // fiber through r11 (in) and rax (out). The pool reduction, a few
  // vectors per tile, is unrolled.
  Assembler a;
  bool ok = true;
  auto disp = [&](i64 bytes) {
    if (!fits_i32(bytes)) ok = false;
    return static_cast<i32>(bytes);
  };
  const auto buf_reg = [](int buf, Gp caller) {
    return buf < 0 ? caller : (buf == 0 ? Gp::rdx : Gp::rcx);
  };
  a.push(Gp::rbx);
  a.mov_imm(Gp::r9, reinterpret_cast<u64>(coeffs_.data()));
  a.mov_imm(Gp::r10, reinterpret_cast<u64>(offsets_.data()));
  if (epilogue_ && epi.relu) {
    a.vpxord(Zmm(kZeroReg), Zmm(kZeroReg), Zmm(kZeroReg));
  }

  // One fiber of `pass`: its program's ops in program order, elements at
  // r11 + idx·in_stride (bytes), likewise for rax.
  auto emit_fiber = [&](const Pass& pass) {
    const i64 in_stride = pass.in_strides[pass.dim] * 4;
    const i64 out_stride = pass.out_strides[pass.dim] * 4;
    const auto in_at = [&](i32 idx) {
      return addr(Gp::r11, disp(idx * in_stride));
    };
    using K = TransformOp::Kind;
    for (const auto& op : pass.prog->ops) {
      switch (op.kind) {
        case K::kMovIn:
          a.vmovups(Zmm(op.dst), in_at(op.src));
          break;
        case K::kMulIn:
          a.vmovups(Zmm(op.dst), in_at(op.src));
          a.vmulps_bcast(Zmm(op.dst), Zmm(op.dst), coeff_at(op.coeff));
          break;
        case K::kAddIn:
          a.vaddps(Zmm(op.dst), Zmm(op.dst), in_at(op.src));
          break;
        case K::kSubIn:
          a.vsubps(Zmm(op.dst), Zmm(op.dst), in_at(op.src));
          break;
        case K::kFmaIn:
          // dst += coeff · in[src]: broadcast the coefficient, full-width
          // memory operand for the fiber element.
          a.vbroadcastss(Zmm(kCoeffReg), coeff_at(op.coeff));
          a.vfmadd231ps(Zmm(op.dst), Zmm(kCoeffReg), in_at(op.src));
          break;
        case K::kAddReg:
          a.vaddps(Zmm(op.dst), Zmm(op.a), Zmm(op.b));
          break;
        case K::kSubReg:
          a.vsubps(Zmm(op.dst), Zmm(op.a), Zmm(op.b));
          break;
        case K::kMulReg:
          a.vmulps_bcast(Zmm(op.dst), Zmm(op.a), coeff_at(op.coeff));
          break;
        case K::kMovReg:
          a.vmovaps(Zmm(op.dst), Zmm(op.a));
          break;
        case K::kFmaReg:
          a.vfmadd231ps_bcast(Zmm(op.dst), Zmm(op.a), coeff_at(op.coeff));
          break;
        case K::kStore: {
          Zmm v(op.a);
          if (pass.last && epilogue_) {
            // store_tile's per-element order: v + bias, then max(v, 0).
            a.vaddps(Zmm(kEpiReg), v, addr(Gp::r8));
            if (epi.relu) a.vmaxps(Zmm(kEpiReg), Zmm(kZeroReg), Zmm(kEpiReg));
            v = Zmm(kEpiReg);
          }
          const Mem at = addr(Gp::rax, disp(op.src * out_stride));
          if (pass.last && stream_ && !pooled) {
            a.vmovntps(at, v);
          } else {
            a.vmovups(at, v);
          }
          break;
        }
      }
    }
  };

  for (int d = 0; d < rank_; ++d) {
    const Pass& pass = passes[d];
    a.mov_imm(Gp::rbx, static_cast<u64>(pass.fibers));
    const LabelId top = a.new_label();
    a.bind(top);
    a.mov(Gp::r11, addr(Gp::r10, 0));
    a.add(Gp::r11, buf_reg(pass.in_buf, Gp::rdi));
    a.mov(Gp::rax, addr(Gp::r10, 8));
    a.add(Gp::rax, buf_reg(pass.out_buf, Gp::rsi));
    emit_fiber(pass);
    a.add(Gp::r10, 16);
    a.dec(Gp::rbx);
    a.jnz(top);
  }

  if (pooled) {
    // store_tile_pooled's reduction: per pooled vector, a row-major walk of
    // its window with acc = max(acc, v) from kPoolInit.
    const Pass& last = passes[rank_ - 1];
    const Gp stage = buf_reg(last.out_buf, Gp::rsi);
    const i64 w = epi.pool_window;
    i64 cnt[kMaxNd], window[kMaxNd];
    for (int d = 0; d < rank_; ++d) {
      cnt[d] = progs_[d]->out_count / w;
      window[d] = w;
    }
    for_each_coord(cnt, rank_, [&](const i64* q) {
      a.vbroadcastss(Zmm(kPoolAccReg), coeff_at(kPoolInit));
      for_each_coord(window, rank_, [&](const i64* k) {
        i64 soff = 0;
        for (int d = 0; d < rank_; ++d) {
          soff += (q[d] * w + k[d]) * last.out_strides[d];
        }
        a.vmovups(Zmm(kEpiReg), addr(stage, disp(soff * 4)));
        a.vmaxps(Zmm(kPoolAccReg), Zmm(kEpiReg), Zmm(kPoolAccReg));
      });
      i64 poff = 0;
      for (int d = 0; d < rank_; ++d) poff += q[d] * dst_strides_[d];
      a.vmovups(addr(Gp::rsi, disp(poff * 4)), Zmm(kPoolAccReg));
    });
  }

  a.pop(Gp::rbx);
  a.ret();
  if (!ok) return false;
  code_ = ExecMemory::from_code(a.finish());
  fn_ = code_.entry_as<Fn>();
  return true;
}

}  // namespace ondwin
