#include "gemm/microkernel.h"

#include <cstring>
#include <vector>

#include "jit/assembler.h"
#include "util/cpu.h"

namespace ondwin {

bool microkernel_jit_supported() {
#if defined(__x86_64__) || defined(_M_X64)
  return cpu_features().full_avx512();
#else
  return false;
#endif
}

bool microkernel_jit_supported(const MicrokernelSpec& spec) {
  if (!microkernel_jit_supported()) return false;
  // vdpbf16ps and vcvtneps2bf16 both live in AVX512_BF16; fp16 widening
  // (vcvtph2ps/vcvtps2ph at 512-bit) is already part of AVX512F.
  if (spec.in_prec == Precision::kBf16 || spec.out_prec == Precision::kBf16) {
    return cpu_features().avx512bf16;
  }
  return true;
}

void validate_microkernel_spec(const MicrokernelSpec& spec) {
  ONDWIN_CHECK(spec.n_blk >= 1 && spec.n_blk <= 30,
               "n_blk must be 1..30 (two zmm registers are reserved for V̂ "
               "row double-buffering), got ",
               spec.n_blk);
  ONDWIN_CHECK(spec.c_blk >= 16 && spec.c_blk % 16 == 0,
               "c_blk must be a positive multiple of 16, got ", spec.c_blk);
  ONDWIN_CHECK(spec.cp_blk >= 16 && spec.cp_blk % 16 == 0,
               "cp_blk must be a positive multiple of 16, got ", spec.cp_blk);
  ONDWIN_CHECK(spec.c_blk * spec.cp_blk <= (1 << 20),
               "block too large: ", spec.c_blk, "x", spec.cp_blk);
  ONDWIN_CHECK(spec.in_prec != Precision::kFp16 || spec.n_blk <= 29,
               "fp16 inputs reserve zmm29 for widening broadcasts; n_blk "
               "must be <= 29, got ",
               spec.n_blk);
  // Reduced output only makes sense on the final-k scatter (the blocked X̂
  // intermediate must stay fp32 so k-step accumulation never re-rounds),
  // and only with cached stores: a converted row is 32 bytes, and
  // non-temporal half-line stores would leave partially-filled WC buffers.
  ONDWIN_CHECK(spec.out_prec == Precision::kFp32 ||
                   spec.store == StoreMode::kScatterCached,
               "reduced out_prec requires StoreMode::kScatterCached");
}

void pack_v_bf16_pairs(const u16* plain, u32* paired, int c_blk, int cp_blk) {
  ONDWIN_CHECK(c_blk % 2 == 0, "bf16 pairing needs an even c_blk");
  for (int p = 0; p < c_blk / 2; ++p) {
    const u16* even = plain + static_cast<i64>(2 * p) * cp_blk;
    const u16* odd = even + cp_blk;
    u32* dst = paired + static_cast<i64>(p) * cp_blk;
    for (int q = 0; q < cp_blk; ++q) {
      dst[q] = static_cast<u32>(even[q]) |
               (static_cast<u32>(odd[q]) << 16);
    }
  }
}

namespace {

constexpr int kS = 16;  // SIMD lanes per register

// MicrokernelArgs field offsets; static_asserts pin the ABI.
constexpr i32 kOffU = 0;
constexpr i32 kOffV = 8;
constexpr i32 kOffX = 16;
constexpr i32 kOffUNext = 24;
constexpr i32 kOffXNext = 32;
constexpr i32 kOffScatterRows = 40;
constexpr i32 kOffScatterStride = 48;
constexpr i32 kOffVNext = 56;
constexpr i32 kLine = 64;  // cache-line bytes
static_assert(offsetof(MicrokernelArgs, u) == kOffU);
static_assert(offsetof(MicrokernelArgs, v) == kOffV);
static_assert(offsetof(MicrokernelArgs, x) == kOffX);
static_assert(offsetof(MicrokernelArgs, u_next) == kOffUNext);
static_assert(offsetof(MicrokernelArgs, x_next) == kOffXNext);
static_assert(offsetof(MicrokernelArgs, scatter_rows) == kOffScatterRows);
static_assert(offsetof(MicrokernelArgs, scatter_col_stride_bytes) ==
              kOffScatterStride);
static_assert(offsetof(MicrokernelArgs, v_next) == kOffVNext);

// Register allocation (SysV AMD64):
//   rdi: args            rsi: Û base           rdx: V̂ q-cursor
//   rcx: X̂ q-cursor      rax: Û chunk cursor   rbx: V̂ chunk cursor
//   r8:  next-Û hint     r9:  next-X̂ hint      r10: q counter
//   r11: chunk counter   r12: scatter row tbl  r13: scatter col stride
//   r14: scatter scratch r15: q·col-stride
//   rdi: next-V̂ line cursor once the args are read
// zmm0..zmm(n_blk-1): X̂ accumulators; zmm30/zmm31: V̂ row double-buffer;
// zmm29: fp16 broadcast-widen scratch (in_prec == kFp16 only).
//
// Reduced-precision variants keep the fp32 structure:
//  * kBf16 inputs swap the 16 per-chunk broadcast-FMA sweeps for 8
//    vdpbf16ps sweeps over pair-interleaved V̂ rows (each 64-byte load now
//    carries two k-steps), halving both the loads and the FMA count;
//  * kFp16 inputs widen V̂ rows in the preload (vcvtph2ps m256 costs the
//    same one instruction as vmovups m512) and widen each Û broadcast
//    through zmm29 (vpbroadcastw + vcvtph2ps + reg FMA);
//  * a reduced out_prec narrows each accumulator in place during the final
//    scatter (vcvtneps2bf16 / vcvtps2ph) and stores 32-byte rows.
class KernelBuilder {
 public:
  explicit KernelBuilder(const MicrokernelSpec& spec) : spec_(spec) {}

  std::vector<u8> build() {
    const bool scatter = store_scatters(spec_.store);

    a_.push(Gp::rbx);
    if (scatter) {
      a_.push(Gp::r12);
      a_.push(Gp::r13);
      a_.push(Gp::r14);
      a_.push(Gp::r15);
    }

    a_.mov(Gp::rsi, addr(Gp::rdi, kOffU));
    a_.mov(Gp::rdx, addr(Gp::rdi, kOffV));
    a_.mov(Gp::rcx, addr(Gp::rdi, kOffX));
    a_.mov(Gp::r8, addr(Gp::rdi, kOffUNext));
    a_.mov(Gp::r9, addr(Gp::rdi, kOffXNext));
    if (scatter) {
      a_.mov(Gp::r12, addr(Gp::rdi, kOffScatterRows));
      a_.mov(Gp::r13, addr(Gp::rdi, kOffScatterStride));
      a_.mov_imm(Gp::r15, 0);
    }
    a_.mov(Gp::rdi, addr(Gp::rdi, kOffVNext));

    const int q_count = spec_.cp_blk / kS;
    a_.mov_imm(Gp::r10, static_cast<u64>(q_count));
    const LabelId q_loop = a_.new_label();
    a_.bind(q_loop);
    emit_q_body();
    // Advance to the next S columns of X̂ and V̂. A bf16 V̂ column is a
    // pair-interleaved dword, so its byte stride matches fp32; fp16
    // columns are words.
    a_.add(Gp::rcx, kS * 4);
    a_.add(Gp::rdx, spec_.in_prec == Precision::kFp16 ? kS * 2 : kS * 4);
    // The next Û block's share of this q, and the next X̂ block's lines
    // under the following S columns.
    a_.add(Gp::r8, u_next_lines_per_q() * kLine);
    a_.add(Gp::r9, kS * 4);
    if (scatter) a_.add(Gp::r15, Gp::r13);
    a_.dec(Gp::r10);
    a_.jnz(q_loop);

    if (scatter) {
      a_.pop(Gp::r15);
      a_.pop(Gp::r14);
      a_.pop(Gp::r13);
      a_.pop(Gp::r12);
    }
    a_.pop(Gp::rbx);
    a_.ret();
    return a_.finish();
  }

 private:
  // One q iteration: load accumulators, sweep all C_blk columns of Û in
  // 16-wide chunks, store the result rows.
  void emit_q_body() {
    const int n = spec_.n_blk;
    const i32 x_row_bytes = spec_.cp_blk * 4;
    const i32 in_bytes = static_cast<i32>(precision_bytes(spec_.in_prec));

    // Load or zero the n_blk accumulators.
    for (int j = 0; j < n; ++j) {
      if (spec_.beta) {
        a_.vmovups(Zmm(j), addr(Gp::rcx, j * x_row_bytes));
      } else {
        a_.vpxord(Zmm(j), Zmm(j), Zmm(j));
      }
    }

    a_.mov(Gp::rax, Gp::rsi);  // Û cursor
    a_.mov(Gp::rbx, Gp::rdx);  // V̂ cursor
    // Preload V̂ row 0 (fp32: 16 floats; bf16: pair-interleaved dwords for
    // k-steps 0 and 1; fp16: widened from 16 words).
    if (spec_.in_prec == Precision::kFp16) {
      a_.vcvtph2ps(Zmm(30), addr(Gp::rbx, 0));
    } else {
      a_.vmovups(Zmm(30), addr(Gp::rbx, 0));
    }

    // A chunk covers 16 k-steps regardless of precision: 16 fp32/fp16 V̂
    // rows, or 8 bf16 pair rows. The V̂ bytes per chunk shrink with the
    // element size either way.
    const i32 v_chunk_bytes = kS * spec_.cp_blk * in_bytes;
    const int chunks = spec_.c_blk / kS;
    if (chunks > 1) {
      a_.mov_imm(Gp::r11, static_cast<u64>(chunks - 1));
      const LabelId chunk_loop = a_.new_label();
      a_.bind(chunk_loop);
      emit_chunk(/*final=*/false);
      a_.add(Gp::rax, kS * in_bytes);  // next 16 columns of Û
      a_.add(Gp::rbx, v_chunk_bytes);  // next 16 k-steps of V̂
      a_.add(Gp::rdi, v_next_chunk_bytes());
      a_.dec(Gp::r11);
      a_.jnz(chunk_loop);
    }
    emit_chunk(/*final=*/true);
    a_.add(Gp::rdi, v_next_chunk_bytes());

    emit_stores();
  }

  void emit_chunk(bool final) {
    switch (spec_.in_prec) {
      case Precision::kFp32:
        return emit_chunk_fp32(final);
      case Precision::kBf16:
        return emit_chunk_bf16(final);
      case Precision::kFp16:
        return emit_chunk_fp16(final);
    }
  }

  // 16 unrolled i-iterations; per i: n_blk broadcast-FMAs against the
  // current V̂ row register, one preload of the next V̂ row into the other
  // buffer register, and up to three prefetches of soon-needed data.
  void emit_chunk_fp32(bool final) {
    const int n = spec_.n_blk;
    const i32 v_row_bytes = spec_.cp_blk * 4;
    int cur = 30;  // 16 swaps per chunk leave the parity unchanged
    for (int i = 0; i < kS; ++i) {
      const bool preload = !(final && i == kS - 1);
      if (preload) {
        // At i == 15 this reads row 16 — the first row of the next chunk,
        // exactly what the next loop iteration consumes.
        a_.vmovups(Zmm(cur ^ 1), addr(Gp::rbx, (i + 1) * v_row_bytes));
      }
      emit_v_next_prefetch(i);
      if (!final) {
        // Warm L1 for the next chunk: its V̂ row i and Û rows i / i+16.
        a_.prefetch(0, addr(Gp::rbx, (kS + i + 1) * v_row_bytes));
        if (i < n) a_.prefetch(0, addr(Gp::rax, (i * spec_.c_blk + kS) * 4));
        if (i + kS < n) {
          a_.prefetch(0, addr(Gp::rax, ((i + kS) * spec_.c_blk + kS) * 4));
        }
      }
      for (int j = 0; j < n; ++j) {
        a_.vfmadd231ps_bcast(Zmm(j), Zmm(cur),
                             addr(Gp::rax, (j * spec_.c_blk + i) * 4));
      }
      cur ^= 1;
    }
  }

  // bf16 chunk: 8 unrolled pair-iterations (k-steps 2p/2p+1). Each
  // vdpbf16ps broadcasts one Û dword — the row's adjacent bf16 pair — and
  // dots it against the pair-interleaved V̂ row, so a chunk runs half the
  // loads and half the FMA-slot ops of the fp32 sweep.
  void emit_chunk_bf16(bool final) {
    const int n = spec_.n_blk;
    const int pairs = kS / 2;
    const i32 v_pair_bytes = spec_.cp_blk * 4;  // dword per column
    int cur = 30;  // 8 swaps per chunk: parity still unchanged
    for (int p = 0; p < pairs; ++p) {
      const bool preload = !(final && p == pairs - 1);
      if (preload) {
        // At p == 7 this reads pair row 8 — the next chunk's first pair.
        a_.vmovups(Zmm(cur ^ 1), addr(Gp::rbx, (p + 1) * v_pair_bytes));
      }
      emit_v_next_prefetch(p);
      if (!final) {
        a_.prefetch(0, addr(Gp::rbx, (pairs + p + 1) * v_pair_bytes));
        if (2 * p < n) {
          a_.prefetch(0, addr(Gp::rax, (2 * p * spec_.c_blk + kS) * 2));
        }
        if (2 * p + kS < n) {
          a_.prefetch(0,
                      addr(Gp::rax, ((2 * p + kS) * spec_.c_blk + kS) * 2));
        }
      }
      for (int j = 0; j < n; ++j) {
        a_.vdpbf16ps_bcast(Zmm(j), Zmm(cur),
                           addr(Gp::rax, (j * spec_.c_blk + 2 * p) * 2));
      }
      cur ^= 1;
    }
  }

  // fp16 chunk: the fp32 structure with both operands widened on the fly.
  // V̂ rows widen in the preload slot (vcvtph2ps from m256 — still one
  // instruction per row); each Û broadcast costs vpbroadcastw + vcvtph2ps
  // through zmm29 before a register-register FMA.
  void emit_chunk_fp16(bool final) {
    const int n = spec_.n_blk;
    const i32 v_row_bytes = spec_.cp_blk * 2;
    int cur = 30;
    for (int i = 0; i < kS; ++i) {
      const bool preload = !(final && i == kS - 1);
      if (preload) {
        a_.vcvtph2ps(Zmm(cur ^ 1), addr(Gp::rbx, (i + 1) * v_row_bytes));
      }
      // A fp16 chunk's 16 rows span 8 lines: one prefetch per row pair.
      if (i % 2 == 0) emit_v_next_prefetch(i / 2);
      if (!final) {
        a_.prefetch(0, addr(Gp::rbx, (kS + i + 1) * v_row_bytes));
        if (i < n) a_.prefetch(0, addr(Gp::rax, (i * spec_.c_blk + kS) * 2));
        if (i + kS < n) {
          a_.prefetch(0, addr(Gp::rax, ((i + kS) * spec_.c_blk + kS) * 2));
        }
      }
      for (int j = 0; j < n; ++j) {
        a_.vpbroadcastw(Zmm(29), addr(Gp::rax, (j * spec_.c_blk + i) * 2));
        a_.vcvtph2ps(Zmm(29), Zmm(29));
        a_.vfmadd231ps(Zmm(j), Zmm(cur), Zmm(29));
      }
      cur ^= 1;
    }
  }

  // Bytes of the next V̂ block each chunk prefetches: a call runs
  // (c_blk/16)·(cp_blk/16) chunks over a c_blk × cp_blk block, so a chunk
  // covers 256 elements — 16 lines of fp32 (one per i-iteration), 8 of
  // bf16 (one per pair iteration) or 8 of fp16 (one per two rows).
  i32 v_next_chunk_bytes() const {
    return kS * kS * static_cast<i32>(precision_bytes(spec_.in_prec));
  }

  // One L2 prefetch of the next V̂ block, line `line` of this chunk's
  // share (rdi advances by a chunk's share after each chunk).
  void emit_v_next_prefetch(int line) {
    a_.prefetch(1, addr(Gp::rdi, line * kLine));
  }

  // Lines of the next Û block (n_blk × c_blk, contiguous) each q
  // iteration prefetches, so the cp_blk/16 iterations cover all of it.
  i32 u_next_lines_per_q() const {
    const i64 bytes = static_cast<i64>(spec_.n_blk) * spec_.c_blk *
                      precision_bytes(spec_.in_prec);
    const i64 q_count = spec_.cp_blk / kS;
    return static_cast<i32>(ceil_div(ceil_div(bytes, i64{kLine}), q_count));
  }

  // Store accumulators; while storing, prefetch the next Û and X̂ blocks
  // into L2 (paper: "pre-fetch the data from the same locations in next
  // two matrices to be multiplied"). r8 walks the next Û block a share
  // per q; r9 follows the X̂ columns this q stores.
  void emit_stores() {
    const int n = spec_.n_blk;
    const i32 x_row_bytes = spec_.cp_blk * 4;
    const int u_lines = u_next_lines_per_q();
    for (int j = 0; j < n; ++j) {
      switch (spec_.store) {
        case StoreMode::kAccumulate:
          a_.vmovups(addr(Gp::rcx, j * x_row_bytes), Zmm(j));
          break;
        case StoreMode::kStream:
          a_.vmovntps(addr(Gp::rcx, j * x_row_bytes), Zmm(j));
          break;
        case StoreMode::kScatter:
          a_.mov(Gp::r14, addr(Gp::r12, j * 8));
          a_.vmovntps(addr(Gp::r14, Gp::r15, 1), Zmm(j));
          break;
        case StoreMode::kScatterCached:
          a_.mov(Gp::r14, addr(Gp::r12, j * 8));
          // The accumulator is dead after its store, so a reduced out_prec
          // narrows it in place and stores the 32-byte row.
          switch (spec_.out_prec) {
            case Precision::kFp32:
              a_.vmovups(addr(Gp::r14, Gp::r15, 1), Zmm(j));
              break;
            case Precision::kBf16:
              a_.vcvtneps2bf16(Zmm(j), Zmm(j));
              a_.vmovups_ymm(addr(Gp::r14, Gp::r15, 1), Zmm(j));
              break;
            case Precision::kFp16:
              a_.vcvtps2ph(addr(Gp::r14, Gp::r15, 1), Zmm(j));
              break;
          }
          break;
      }
      // Spread the Û share evenly over the row stores.
      for (int l = j * u_lines / n; l < (j + 1) * u_lines / n; ++l) {
        a_.prefetch(1, addr(Gp::r8, l * kLine));
      }
      a_.prefetch(1, addr(Gp::r9, j * x_row_bytes));
    }
  }

  const MicrokernelSpec spec_;
  Assembler a_;
};

}  // namespace

Microkernel::Microkernel(const MicrokernelSpec& spec) : spec_(spec) {
  validate_microkernel_spec(spec);
  ONDWIN_CHECK(microkernel_jit_supported(spec),
               "JIT microkernels need AVX-512F/BW/DQ/VL (+AVX512_BF16 for "
               "bf16 specs); use run_microkernel_reference on this host");
  KernelBuilder builder(spec);
  memory_ = ExecMemory::from_code(builder.build());
  fn_ = memory_.entry_as<MicrokernelFn>();
}

namespace {

// vdpbf16ps treats bf16 denormal operands as zero (DAZ). The pipeline's
// own converts flush them on store, so this only matters for adversarial
// hand-built inputs — but the reference must still match the hardware.
float bf16_daz_to_fp32(u16 h) {
  if ((h & 0x7F80u) == 0) return (h & 0x8000u) ? -0.0f : 0.0f;
  return bf16_to_fp32(h);
}

}  // namespace

void run_microkernel_reference(const MicrokernelSpec& spec,
                               const MicrokernelArgs& args) {
  validate_microkernel_spec(spec);
  const int n = spec.n_blk;
  const int K = spec.c_blk;
  const int M = spec.cp_blk;
  std::vector<float> acc(static_cast<std::size_t>(M));
  for (int j = 0; j < n; ++j) {
    if (spec.beta) {
      std::memcpy(acc.data(), args.x + static_cast<i64>(j) * M,
                  sizeof(float) * static_cast<std::size_t>(M));
    } else {
      std::fill(acc.begin(), acc.end(), 0.0f);
    }
    switch (spec.in_prec) {
      case Precision::kFp32:
        for (int k = 0; k < K; ++k) {
          const float u = args.u[static_cast<i64>(j) * K + k];
          const float* vrow = args.v + static_cast<i64>(k) * M;
          for (int q = 0; q < M; ++q) {
            acc[static_cast<std::size_t>(q)] += u * vrow[q];
          }
        }
        break;
      case Precision::kBf16: {
        // Pair-interleaved V̂ dwords, vdpbf16ps accumulation order: within
        // each pair the odd (2p+1) product lands first, then the even.
        // Both products are exact in fp32 (8-bit significands), so this
        // is bitwise-identical to the instruction.
        const u16* u = reinterpret_cast<const u16*>(args.u);
        const u32* v = reinterpret_cast<const u32*>(args.v);
        for (int p = 0; p < K / 2; ++p) {
          const float ue = bf16_daz_to_fp32(u[static_cast<i64>(j) * K + 2 * p]);
          const float uo =
              bf16_daz_to_fp32(u[static_cast<i64>(j) * K + 2 * p + 1]);
          const u32* vrow = v + static_cast<i64>(p) * M;
          for (int q = 0; q < M; ++q) {
            const u32 d = vrow[q];
            float& a = acc[static_cast<std::size_t>(q)];
            a += uo * bf16_daz_to_fp32(static_cast<u16>(d >> 16));
            a += ue * bf16_daz_to_fp32(static_cast<u16>(d & 0xFFFFu));
          }
        }
        break;
      }
      case Precision::kFp16: {
        // Widened operands; the fp16×fp16 product is exact in fp32
        // (11-bit significands), so mul+add here matches the JIT's FMA.
        const u16* u = reinterpret_cast<const u16*>(args.u);
        const u16* v = reinterpret_cast<const u16*>(args.v);
        for (int k = 0; k < K; ++k) {
          const float uw = fp16_to_fp32(u[static_cast<i64>(j) * K + k]);
          const u16* vrow = v + static_cast<i64>(k) * M;
          for (int q = 0; q < M; ++q) {
            acc[static_cast<std::size_t>(q)] += uw * fp16_to_fp32(vrow[q]);
          }
        }
        break;
      }
    }
    if (store_scatters(spec.store)) {
      for (int q = 0; q < M; q += kSimdWidth) {
        char* dst = reinterpret_cast<char*>(args.scatter_rows[j]) +
                    (q / kSimdWidth) * args.scatter_col_stride_bytes;
        switch (spec.out_prec) {
          case Precision::kFp32:
            std::memcpy(dst, acc.data() + q, sizeof(float) * kSimdWidth);
            break;
          case Precision::kBf16: {
            u16* d16 = reinterpret_cast<u16*>(dst);
            for (int l = 0; l < kSimdWidth; ++l) {
              d16[l] = fp32_to_bf16(acc[static_cast<std::size_t>(q + l)]);
            }
            break;
          }
          case Precision::kFp16: {
            u16* d16 = reinterpret_cast<u16*>(dst);
            for (int l = 0; l < kSimdWidth; ++l) {
              d16[l] = fp32_to_fp16(acc[static_cast<std::size_t>(q + l)]);
            }
            break;
          }
        }
      }
    } else {
      std::memcpy(args.x + static_cast<i64>(j) * M, acc.data(),
                  sizeof(float) * static_cast<std::size_t>(M));
    }
  }
}

}  // namespace ondwin
