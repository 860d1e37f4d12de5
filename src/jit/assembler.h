// Minimal x86-64 assembler emitting exactly the instruction mix the paper's
// JIT GEMM primitive needs (§4.3.1): EVEX-encoded AVX-512 moves and
// scalar-broadcast FMAs, legacy GP moves/arithmetic for the counted loops,
// software prefetches, and SIB addressing.
//
// Encoding policy: displacements are always emitted as disp32 (or dropped
// when zero), deliberately side-stepping the EVEX compressed-disp8 rules;
// the paper's "use SIB to reduce instruction sizes" is honoured through
// base+index*scale forms where the generator wants them.
#pragma once

#include <optional>
#include <vector>

#include "util/common.h"

namespace ondwin {

/// General-purpose registers, numbered with their hardware encodings.
enum class Gp : u8 {
  rax = 0, rcx = 1, rdx = 2, rbx = 3, rsp = 4, rbp = 5, rsi = 6, rdi = 7,
  r8 = 8, r9 = 9, r10 = 10, r11 = 11, r12 = 12, r13 = 13, r14 = 14, r15 = 15,
};

/// AVX-512 vector register id (0..31).
struct Zmm {
  u8 id;
  explicit constexpr Zmm(int i) : id(static_cast<u8>(i)) {}
};

/// Memory operand [base + index*scale + disp]. `scale` ∈ {1,2,4,8}.
struct Mem {
  Gp base;
  std::optional<Gp> index;
  u8 scale = 1;
  i32 disp = 0;
};

inline Mem addr(Gp base, i32 disp = 0) { return Mem{base, std::nullopt, 1, disp}; }
inline Mem addr(Gp base, Gp index, u8 scale, i32 disp = 0) {
  return Mem{base, index, scale, disp};
}

/// Handle to an assembler-owned jump target; create with new_label().
using LabelId = int;

class Assembler {
 public:
  const std::vector<u8>& code() const { return code_; }
  i64 size() const { return static_cast<i64>(code_.size()); }

  // ---- general purpose ----------------------------------------------
  void mov(Gp dst, Gp src);
  void mov(Gp dst, const Mem& src);          // mov r64, [mem]
  void mov_store(const Mem& dst, Gp src);    // mov [mem], r64
  void mov_imm(Gp dst, u64 imm);
  void add(Gp dst, i32 imm);
  void add(Gp dst, Gp src);
  void sub(Gp dst, i32 imm);
  void dec(Gp reg);
  void push(Gp reg);
  void pop(Gp reg);
  void ret();

  // ---- control flow ---------------------------------------------------
  LabelId new_label();
  void bind(LabelId l);
  void jnz(LabelId l);
  void jmp(LabelId l);

  // ---- prefetch ------------------------------------------------------
  /// level 0 → prefetcht0 (into L1), 1 → prefetcht1 (into L2),
  /// 2 → prefetcht2, -1 → prefetchnta.
  void prefetch(int level, const Mem& src);

  // ---- AVX-512 (EVEX, 512-bit) ----------------------------------------
  void vmovups(Zmm dst, const Mem& src);
  void vmovups(const Mem& dst, Zmm src);
  void vmovaps(Zmm dst, Zmm src);
  void vmovntps(const Mem& dst, Zmm src);     // streaming store
  void vpxord(Zmm dst, Zmm a, Zmm b);         // idiomatic zeroing
  void vbroadcastss(Zmm dst, const Mem& src);
  void vfmadd231ps(Zmm dst, Zmm a, Zmm b);
  /// dst += a * broadcast32(mem) — the paper's scalar-vector FMA.
  void vfmadd231ps_bcast(Zmm dst, Zmm a, const Mem& src);
  void vaddps(Zmm dst, Zmm a, Zmm b);
  void vsubps(Zmm dst, Zmm a, Zmm b);
  void vmulps(Zmm dst, Zmm a, Zmm b);
  void vmulps_bcast(Zmm dst, Zmm a, const Mem& src);
  void vaddps_bcast(Zmm dst, Zmm a, const Mem& src);
  void vfmadd231ps(Zmm dst, Zmm a, const Mem& src);   // full-width mem operand
  void vaddps(Zmm dst, Zmm a, const Mem& src);        // full-width mem operand
  void vsubps(Zmm dst, Zmm a, const Mem& src);        // full-width mem operand
  /// dst = (a > b) ? a : b per lane — b (the second source) is returned
  /// when either lane is NaN or both are zeros, so `vmaxps(d, zero, v)`
  /// equals std::max(v, 0.0f) and `vmaxps(acc, v, acc)` equals
  /// std::max(acc, v), −0.0 and NaN lanes included.
  void vmaxps(Zmm dst, Zmm a, Zmm b);
  void vmaxps(Zmm dst, Zmm a, const Mem& src);        // full-width mem operand

  // ---- reduced-precision (bf16/fp16 storage, fp32 accumulate) ---------
  /// dst.f32[q] += a.bf16[2q+1]·b.bf16[2q+1] + a.bf16[2q]·b.bf16[2q]
  /// (AVX512_BF16; odd product lands first, then even — matches hardware).
  void vdpbf16ps(Zmm dst, Zmm a, Zmm b);
  /// Same with the b pair broadcast from one dword {1to16}.
  void vdpbf16ps_bcast(Zmm dst, Zmm a, const Mem& src);
  /// Narrow 16 fp32 lanes of src to bf16 in dst's low 256 bits (AVX512_BF16).
  void vcvtneps2bf16(Zmm dst, Zmm src);
  /// 256-bit store of dst's low half — pairs with the two narrows above.
  void vmovups_ymm(const Mem& dst, Zmm src);
  /// Widen 16 fp16 values (m256 / low ymm half) to 16 fp32 lanes (AVX512F).
  void vcvtph2ps(Zmm dst, const Mem& src);
  void vcvtph2ps(Zmm dst, Zmm src);
  /// Narrow 16 fp32 lanes to fp16 at [mem] (m256), RNE via imm8 (AVX512F).
  void vcvtps2ph(const Mem& dst, Zmm src);
  /// Broadcast one word from memory to all 32 word lanes (AVX512BW).
  void vpbroadcastw(Zmm dst, const Mem& src);

  /// Verifies all labels are bound, patches every rel32 fixup, and returns
  /// the finished code.
  std::vector<u8> finish();

 private:
  void emit8(u8 b) { code_.push_back(b); }
  void emit32(u32 v);
  void emit64(u64 v);

  void rex(bool w, u8 reg, const Mem& rm);
  void rex_rr(bool w, u8 reg, u8 rm);
  void modrm_mem(u8 reg, const Mem& m);
  void modrm_rr(u8 reg, u8 rm);

  /// EVEX-encoded op with register destination/source and memory operand.
  /// mm: opcode map (1=0F, 2=0F38, 3=0F3A); pp: prefix (0, 1=66, 2=F3, 3=F2);
  /// bcast: EVEX.b (32-bit broadcast); ll: EVEX.L'L vector length
  /// (0=128, 1=256, 2=512 — only the 256-bit stores deviate from 512).
  void evex_mem(u8 mm, u8 pp, bool w, u8 opcode, u8 reg, u8 vvvv,
                const Mem& m, bool bcast, u8 ll = 2);
  void evex_rr(u8 mm, u8 pp, bool w, u8 opcode, u8 reg, u8 vvvv, u8 rm,
               u8 ll = 2);

  struct LabelState {
    i64 position = -1;        // bound code offset, -1 while unbound
    std::vector<i64> fixups;  // offsets of rel32 slots referencing it
  };

  std::vector<u8> code_;
  std::vector<LabelState> labels_;
};

}  // namespace ondwin
