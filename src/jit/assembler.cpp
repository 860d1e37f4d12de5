#include "jit/assembler.h"

namespace ondwin {
namespace {

u8 lo3(u8 r) { return r & 7; }
u8 bit3(u8 r) { return (r >> 3) & 1; }
u8 bit4(u8 r) { return (r >> 4) & 1; }
u8 gp_id(Gp g) { return static_cast<u8>(g); }

}  // namespace

void Assembler::emit32(u32 v) {
  for (int i = 0; i < 4; ++i) emit8(static_cast<u8>(v >> (8 * i)));
}

void Assembler::emit64(u64 v) {
  for (int i = 0; i < 8; ++i) emit8(static_cast<u8>(v >> (8 * i)));
}

// --------------------------------------------------------------- ModRM ----

void Assembler::modrm_rr(u8 reg, u8 rm) {
  emit8(static_cast<u8>(0xC0 | (lo3(reg) << 3) | lo3(rm)));
}

void Assembler::modrm_mem(u8 reg, const Mem& m) {
  const u8 base = gp_id(m.base);
  const bool need_sib = m.index.has_value() || lo3(base) == 4;  // rsp/r12
  // rbp/r13 as base cannot use mod=00 (that encoding means disp32-only).
  const bool need_disp = m.disp != 0 || lo3(base) == 5;
  const u8 mod = need_disp ? 2 : 0;  // disp32 or none; disp8 never emitted
  const u8 rm = need_sib ? 4 : lo3(base);
  emit8(static_cast<u8>((mod << 6) | (lo3(reg) << 3) | rm));
  if (need_sib) {
    u8 scale_bits = 0;
    switch (m.scale) {
      case 1: scale_bits = 0; break;
      case 2: scale_bits = 1; break;
      case 4: scale_bits = 2; break;
      case 8: scale_bits = 3; break;
      default: fail("bad SIB scale ", static_cast<int>(m.scale));
    }
    u8 index_bits = 4;  // none
    if (m.index.has_value()) {
      ONDWIN_CHECK(*m.index != Gp::rsp, "rsp cannot be an index register");
      index_bits = lo3(gp_id(*m.index));
    }
    emit8(static_cast<u8>((scale_bits << 6) | (index_bits << 3) | lo3(base)));
  }
  if (need_disp) emit32(static_cast<u32>(m.disp));
}

// ----------------------------------------------------------------- REX ----

void Assembler::rex(bool w, u8 reg, const Mem& m) {
  const u8 b = bit3(gp_id(m.base));
  const u8 x = m.index.has_value() ? bit3(gp_id(*m.index)) : 0;
  const u8 r = bit3(reg);
  const u8 v = static_cast<u8>(0x40 | (w ? 8 : 0) | (r << 2) | (x << 1) | b);
  if (v != 0x40 || w) emit8(v);
}

void Assembler::rex_rr(bool w, u8 reg, u8 rm) {
  const u8 v =
      static_cast<u8>(0x40 | (w ? 8 : 0) | (bit3(reg) << 2) | bit3(rm));
  if (v != 0x40 || w) emit8(v);
}

// ---------------------------------------------------------------- EVEX ----

void Assembler::evex_mem(u8 mm, u8 pp, bool w, u8 opcode, u8 reg, u8 vvvv,
                         const Mem& m, bool bcast, u8 ll) {
  const u8 base = gp_id(m.base);
  const u8 x = m.index.has_value() ? bit3(gp_id(*m.index)) : 0;
  emit8(0x62);
  emit8(static_cast<u8>(((~bit3(reg) & 1) << 7) | ((~x & 1) << 6) |
                        ((~bit3(base) & 1) << 5) | ((~bit4(reg) & 1) << 4) |
                        mm));
  emit8(static_cast<u8>((w ? 0x80 : 0) | ((~vvvv & 0xF) << 3) | 0x04 | pp));
  // z=0, L'L=ll (10=512-bit default), b=bcast, V'=~vvvv[4], aaa=000
  emit8(static_cast<u8>(((ll & 3) << 5) | (bcast ? 0x10 : 0) |
                        ((~bit4(vvvv) & 1) << 3)));
  emit8(opcode);
  modrm_mem(reg, m);
}

void Assembler::evex_rr(u8 mm, u8 pp, bool w, u8 opcode, u8 reg, u8 vvvv,
                        u8 rm, u8 ll) {
  emit8(0x62);
  emit8(static_cast<u8>(((~bit3(reg) & 1) << 7) | ((~bit4(rm) & 1) << 6) |
                        ((~bit3(rm) & 1) << 5) | ((~bit4(reg) & 1) << 4) |
                        mm));
  emit8(static_cast<u8>((w ? 0x80 : 0) | ((~vvvv & 0xF) << 3) | 0x04 | pp));
  emit8(static_cast<u8>(((ll & 3) << 5) | ((~bit4(vvvv) & 1) << 3)));
  emit8(opcode);
  modrm_rr(reg, rm);
}

// ------------------------------------------------------ general purpose ----

void Assembler::mov(Gp dst, Gp src) {
  rex_rr(true, gp_id(src), gp_id(dst));
  emit8(0x89);  // mov r/m64, r64
  modrm_rr(gp_id(src), gp_id(dst));
}

void Assembler::mov(Gp dst, const Mem& src) {
  rex(true, gp_id(dst), src);
  emit8(0x8B);
  modrm_mem(gp_id(dst), src);
}

void Assembler::mov_store(const Mem& dst, Gp src) {
  rex(true, gp_id(src), dst);
  emit8(0x89);
  modrm_mem(gp_id(src), dst);
}

void Assembler::mov_imm(Gp dst, u64 imm) {
  const u8 d = gp_id(dst);
  emit8(static_cast<u8>(0x48 | bit3(d)));
  emit8(static_cast<u8>(0xB8 | lo3(d)));
  emit64(imm);
}

void Assembler::add(Gp dst, i32 imm) {
  rex_rr(true, 0, gp_id(dst));
  emit8(0x81);
  modrm_rr(0, gp_id(dst));
  emit32(static_cast<u32>(imm));
}

void Assembler::add(Gp dst, Gp src) {
  rex_rr(true, gp_id(src), gp_id(dst));
  emit8(0x01);
  modrm_rr(gp_id(src), gp_id(dst));
}

void Assembler::sub(Gp dst, i32 imm) {
  rex_rr(true, 5, gp_id(dst));
  emit8(0x81);
  modrm_rr(5, gp_id(dst));
  emit32(static_cast<u32>(imm));
}

void Assembler::dec(Gp reg) {
  rex_rr(true, 1, gp_id(reg));
  emit8(0xFF);
  modrm_rr(1, gp_id(reg));
}

void Assembler::push(Gp reg) {
  const u8 r = gp_id(reg);
  if (bit3(r)) emit8(0x41);
  emit8(static_cast<u8>(0x50 | lo3(r)));
}

void Assembler::pop(Gp reg) {
  const u8 r = gp_id(reg);
  if (bit3(r)) emit8(0x41);
  emit8(static_cast<u8>(0x58 | lo3(r)));
}

void Assembler::ret() { emit8(0xC3); }

// ---------------------------------------------------------- control flow ----

LabelId Assembler::new_label() {
  labels_.emplace_back();
  return static_cast<LabelId>(labels_.size() - 1);
}

void Assembler::bind(LabelId l) {
  auto& s = labels_.at(static_cast<std::size_t>(l));
  ONDWIN_CHECK(s.position < 0, "label bound twice");
  s.position = size();
}

void Assembler::jnz(LabelId l) {
  emit8(0x0F);
  emit8(0x85);
  labels_.at(static_cast<std::size_t>(l)).fixups.push_back(size());
  emit32(0);
}

void Assembler::jmp(LabelId l) {
  emit8(0xE9);
  labels_.at(static_cast<std::size_t>(l)).fixups.push_back(size());
  emit32(0);
}

// -------------------------------------------------------------- prefetch ----

void Assembler::prefetch(int level, const Mem& src) {
  u8 hint = 0;
  switch (level) {
    case -1: hint = 0; break;  // prefetchnta
    case 0: hint = 1; break;   // prefetcht0
    case 1: hint = 2; break;   // prefetcht1
    case 2: hint = 3; break;   // prefetcht2
    default: fail("bad prefetch level ", level);
  }
  rex(false, hint, src);
  emit8(0x0F);
  emit8(0x18);
  modrm_mem(hint, src);
}

// ----------------------------------------------------------------- AVX-512 ----

void Assembler::vmovups(Zmm dst, const Mem& src) {
  evex_mem(1, 0, false, 0x10, dst.id, 0, src, false);
}

void Assembler::vmovups(const Mem& dst, Zmm src) {
  evex_mem(1, 0, false, 0x11, src.id, 0, dst, false);
}

void Assembler::vmovaps(Zmm dst, Zmm src) {
  evex_rr(1, 0, false, 0x28, dst.id, 0, src.id);
}

void Assembler::vmovntps(const Mem& dst, Zmm src) {
  evex_mem(1, 0, false, 0x2B, src.id, 0, dst, false);
}

void Assembler::vpxord(Zmm dst, Zmm a, Zmm b) {
  evex_rr(1, 1, false, 0xEF, dst.id, a.id, b.id);
}

void Assembler::vbroadcastss(Zmm dst, const Mem& src) {
  evex_mem(2, 1, false, 0x18, dst.id, 0, src, false);
}

void Assembler::vfmadd231ps(Zmm dst, Zmm a, Zmm b) {
  evex_rr(2, 1, false, 0xB8, dst.id, a.id, b.id);
}

void Assembler::vfmadd231ps_bcast(Zmm dst, Zmm a, const Mem& src) {
  evex_mem(2, 1, false, 0xB8, dst.id, a.id, src, true);
}

void Assembler::vfmadd231ps(Zmm dst, Zmm a, const Mem& src) {
  evex_mem(2, 1, false, 0xB8, dst.id, a.id, src, false);
}

void Assembler::vaddps(Zmm dst, Zmm a, Zmm b) {
  evex_rr(1, 0, false, 0x58, dst.id, a.id, b.id);
}

void Assembler::vsubps(Zmm dst, Zmm a, Zmm b) {
  evex_rr(1, 0, false, 0x5C, dst.id, a.id, b.id);
}

void Assembler::vmulps(Zmm dst, Zmm a, Zmm b) {
  evex_rr(1, 0, false, 0x59, dst.id, a.id, b.id);
}

void Assembler::vmulps_bcast(Zmm dst, Zmm a, const Mem& src) {
  evex_mem(1, 0, false, 0x59, dst.id, a.id, src, true);
}

void Assembler::vaddps_bcast(Zmm dst, Zmm a, const Mem& src) {
  evex_mem(1, 0, false, 0x58, dst.id, a.id, src, true);
}

void Assembler::vaddps(Zmm dst, Zmm a, const Mem& src) {
  evex_mem(1, 0, false, 0x58, dst.id, a.id, src, false);
}

void Assembler::vsubps(Zmm dst, Zmm a, const Mem& src) {
  evex_mem(1, 0, false, 0x5C, dst.id, a.id, src, false);
}

void Assembler::vmaxps(Zmm dst, Zmm a, Zmm b) {
  evex_rr(1, 0, false, 0x5F, dst.id, a.id, b.id);
}

void Assembler::vmaxps(Zmm dst, Zmm a, const Mem& src) {
  evex_mem(1, 0, false, 0x5F, dst.id, a.id, src, false);
}

// ---------------------------------------------- reduced precision (bf16) ----

void Assembler::vdpbf16ps(Zmm dst, Zmm a, Zmm b) {
  evex_rr(2, 2, false, 0x52, dst.id, a.id, b.id);
}

void Assembler::vdpbf16ps_bcast(Zmm dst, Zmm a, const Mem& src) {
  evex_mem(2, 2, false, 0x52, dst.id, a.id, src, true);
}

void Assembler::vcvtneps2bf16(Zmm dst, Zmm src) {
  // EVEX.512 encodes the zmm *source* width; dst is the low ymm half.
  evex_rr(2, 2, false, 0x72, dst.id, 0, src.id);
}

void Assembler::vmovups_ymm(const Mem& dst, Zmm src) {
  evex_mem(1, 0, false, 0x11, src.id, 0, dst, false, /*ll=*/1);
}

void Assembler::vcvtph2ps(Zmm dst, const Mem& src) {
  evex_mem(2, 1, false, 0x13, dst.id, 0, src, false);
}

void Assembler::vcvtph2ps(Zmm dst, Zmm src) {
  evex_rr(2, 1, false, 0x13, dst.id, 0, src.id);
}

void Assembler::vcvtps2ph(const Mem& dst, Zmm src) {
  evex_mem(3, 1, false, 0x1D, src.id, 0, dst, false);
  emit8(0x00);  // imm8: static round-to-nearest-even, no MXCSR override
}

void Assembler::vpbroadcastw(Zmm dst, const Mem& src) {
  evex_mem(2, 1, false, 0x79, dst.id, 0, src, false);
}

// ----------------------------------------------------------------- finish ----

std::vector<u8> Assembler::finish() {
  for (const auto& l : labels_) {
    ONDWIN_CHECK(l.position >= 0 || l.fixups.empty(),
                 "jump to a label that was never bound");
    for (i64 at : l.fixups) {
      const i64 rel = l.position - (at + 4);
      ONDWIN_CHECK(rel >= INT32_MIN && rel <= INT32_MAX, "jump out of range");
      const u32 v = static_cast<u32>(static_cast<i32>(rel));
      for (int i = 0; i < 4; ++i) {
        code_[static_cast<std::size_t>(at + i)] =
            static_cast<u8>(v >> (8 * i));
      }
    }
  }
  return code_;
}

}  // namespace ondwin
