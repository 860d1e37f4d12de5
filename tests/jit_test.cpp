#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

#include "jit/assembler.h"
#include "jit/exec_memory.h"
#include "util/aligned.h"
#include "util/cpu.h"

namespace ondwin {
namespace {

using Bytes = std::vector<u8>;

// ------------------------------------------------- byte-exact encodings ----
// Expectations were produced with GNU as (binutils) and verified with
// objdump; cases are restricted to operand forms where our fixed encoding
// policy (disp32-or-none) coincides with the assembler's output.

TEST(Assembler, EncodesVmovupsLoadNoDisp) {
  Assembler a;
  a.vmovups(Zmm(9), addr(Gp::rsi));
  EXPECT_EQ(a.finish(), (Bytes{0x62, 0x71, 0x7c, 0x48, 0x10, 0x0e}));
}

TEST(Assembler, EncodesVpxordZeroingHighRegister) {
  Assembler a;
  a.vpxord(Zmm(29), Zmm(29), Zmm(29));
  EXPECT_EQ(a.finish(), (Bytes{0x62, 0x01, 0x15, 0x40, 0xef, 0xed}));
}

TEST(Assembler, EncodesVmovapsRegReg) {
  Assembler a;
  a.vmovaps(Zmm(1), Zmm(30));
  EXPECT_EQ(a.finish(), (Bytes{0x62, 0x91, 0x7c, 0x48, 0x28, 0xce}));
}

TEST(Assembler, EncodesFmaRegForm) {
  Assembler a;
  a.vfmadd231ps(Zmm(2), Zmm(3), Zmm(4));
  EXPECT_EQ(a.finish(), (Bytes{0x62, 0xf2, 0x65, 0x48, 0xb8, 0xd4}));
}

TEST(Assembler, EncodesFmaBroadcastR12Base) {
  // [r12] requires a SIB byte even without an index register.
  Assembler a;
  a.vfmadd231ps_bcast(Zmm(17), Zmm(31), addr(Gp::r12));
  EXPECT_EQ(a.finish(),
            (Bytes{0x62, 0xc2, 0x05, 0x50, 0xb8, 0x0c, 0x24}));
}

TEST(Assembler, EncodesStreamingStoreWithIndex) {
  Assembler a;
  a.vmovntps(addr(Gp::r14, Gp::r15, 1), Zmm(6));
  EXPECT_EQ(a.finish(),
            (Bytes{0x62, 0x91, 0x7c, 0x48, 0x2b, 0x34, 0x3e}));
}

TEST(Assembler, EncodesRspAndR12BasesWithSib) {
  Assembler a;
  a.vmovups(Zmm(0), addr(Gp::rsp));
  a.vmovups(Zmm(0), addr(Gp::r12));
  EXPECT_EQ(a.finish(), (Bytes{0x62, 0xf1, 0x7c, 0x48, 0x10, 0x04, 0x24,
                               0x62, 0xd1, 0x7c, 0x48, 0x10, 0x04, 0x24}));
}

TEST(Assembler, EncodesVmaxpsRegAndMemForms) {
  Assembler a;
  a.vmaxps(Zmm(0), Zmm(30), Zmm(29));
  a.vmaxps(Zmm(17), Zmm(2), addr(Gp::r8));
  EXPECT_EQ(a.finish(), (Bytes{0x62, 0x91, 0x0c, 0x40, 0x5f, 0xc5,  //
                               0x62, 0xc1, 0x6c, 0x48, 0x5f, 0x08}));
}

TEST(Assembler, EncodesGpMovesAndStack) {
  Assembler a;
  a.mov(Gp::rsi, addr(Gp::rdi));
  a.mov(Gp::rax, Gp::rsi);
  a.push(Gp::rbx);
  a.push(Gp::r15);
  a.pop(Gp::r15);
  a.pop(Gp::rbx);
  a.ret();
  EXPECT_EQ(a.finish(), (Bytes{0x48, 0x8b, 0x37, 0x48, 0x89, 0xf0, 0x53,
                               0x41, 0x57, 0x41, 0x5f, 0x5b, 0xc3}));
}

TEST(Assembler, EncodesPrefetchVariants) {
  Assembler a;
  a.prefetch(-1, addr(Gp::rbx));
  EXPECT_EQ(a.finish(), (Bytes{0x0f, 0x18, 0x03}));
  Assembler b;
  EXPECT_THROW(b.prefetch(7, addr(Gp::rbx)), Error);
}

TEST(Assembler, RejectsRspIndexAndBadScale) {
  Assembler a;
  EXPECT_THROW(a.vmovups(Zmm(0), addr(Gp::rax, Gp::rsp, 1)), Error);
  Assembler b;
  EXPECT_THROW(b.vmovups(Zmm(0), Mem{Gp::rax, Gp::rcx, 3, 0}), Error);
}

TEST(Assembler, UnboundLabelFailsFinish) {
  Assembler a;
  LabelId l = a.new_label();
  a.jnz(l);
  a.ret();
  EXPECT_THROW(a.finish(), Error);
}

TEST(Assembler, DoubleBindFails) {
  Assembler a;
  LabelId l = a.new_label();
  a.bind(l);
  EXPECT_THROW(a.bind(l), Error);
}

TEST(Assembler, BackwardJumpRel32IsCorrect) {
  Assembler a;
  LabelId top = a.new_label();
  a.bind(top);
  a.dec(Gp::rcx);  // 3 bytes
  a.jnz(top);      // 6 bytes, rel32 = -(3+6) = -9
  const Bytes code = a.finish();
  ASSERT_EQ(code.size(), 9u);
  EXPECT_EQ(code[3], 0x0f);
  EXPECT_EQ(code[4], 0x85);
  const i32 rel = static_cast<i32>(u32(code[5]) | (u32(code[6]) << 8) |
                                   (u32(code[7]) << 16) | (u32(code[8]) << 24));
  EXPECT_EQ(rel, -9);
}

// ------------------------------------------------ objdump round-trip ------
// Disassembles our emitted bytes with binutils and checks each instruction
// reads back as intended — this validates the disp32 forms byte-exact
// expectations cannot cover.

bool objdump_available() {
  return std::system("command -v objdump >/dev/null 2>&1") == 0;
}

std::string objdump_of(const Bytes& code) {
  char bin_path[] = "/tmp/ondwin_jit_XXXXXX";
  const int fd = mkstemp(bin_path);
  if (fd < 0) return {};
  {
    std::ofstream f(bin_path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(code.data()),
            static_cast<std::streamsize>(code.size()));
  }
  close(fd);
  const std::string cmd =
      str_cat("objdump -D -b binary -m i386:x86-64 -M intel ", bin_path,
              " 2>/dev/null");
  std::string out;
  if (FILE* p = popen(cmd.c_str(), "r")) {
    char buf[512];
    while (fgets(buf, sizeof(buf), p) != nullptr) out += buf;
    pclose(p);
  }
  std::remove(bin_path);
  return out;
}

TEST(Assembler, ObjdumpRoundTrip) {
  if (!objdump_available()) GTEST_SKIP() << "objdump not installed";
  Assembler a;
  a.vmovups(Zmm(9), addr(Gp::rsi, 256));
  a.vmovups(addr(Gp::rcx, 4096), Zmm(31));
  a.vmovntps(addr(Gp::r9, 64), Zmm(3));
  a.vbroadcastss(Zmm(30), addr(Gp::rbx, 12));
  a.vfmadd231ps_bcast(Zmm(7), Zmm(30), addr(Gp::rax, 100));
  a.vaddps(Zmm(1), Zmm(2), Zmm(3));
  a.vsubps(Zmm(1), Zmm(2), Zmm(3));
  a.vmulps(Zmm(18), Zmm(19), Zmm(20));
  a.vmulps_bcast(Zmm(1), Zmm(2), addr(Gp::rbp, 8));
  a.vaddps_bcast(Zmm(4), Zmm(5), addr(Gp::rsi, 4));
  a.vfmadd231ps(Zmm(6), Zmm(7), addr(Gp::rdx, 128));
  a.mov(Gp::rsi, addr(Gp::rdi, 8));
  a.mov_store(addr(Gp::rdi, 16), Gp::rdx);
  a.mov_imm(Gp::r10, 12345);
  a.add(Gp::rax, 64);
  a.add(Gp::rcx, Gp::r13);
  a.sub(Gp::rsp, 32);
  a.dec(Gp::r11);
  a.prefetch(0, addr(Gp::rax, 128));
  a.prefetch(1, addr(Gp::r8, 256));
  a.vmovups(Zmm(2), addr(Gp::rax, Gp::r15, 8, 64));
  a.vmovups(Zmm(0), addr(Gp::rbp));
  a.vmovups(Zmm(0), addr(Gp::r13));
  a.ret();

  const std::string dis = objdump_of(a.finish());
  ASSERT_FALSE(dis.empty()) << "objdump produced no output";
  const char* expected[] = {
      "vmovups zmm9,ZMMWORD PTR [rsi+0x100]",
      "vmovups ZMMWORD PTR [rcx+0x1000],zmm31",
      "vmovntps ZMMWORD PTR [r9+0x40],zmm3",
      "vbroadcastss zmm30,DWORD PTR [rbx+0xc]",
      "vfmadd231ps zmm7,zmm30,DWORD BCST [rax+0x64]",
      "vaddps zmm1,zmm2,zmm3",
      "vsubps zmm1,zmm2,zmm3",
      "vmulps zmm18,zmm19,zmm20",
      "vmulps zmm1,zmm2,DWORD BCST [rbp+0x8]",
      "vaddps zmm4,zmm5,DWORD BCST [rsi+0x4]",
      "vfmadd231ps zmm6,zmm7,ZMMWORD PTR [rdx+0x80]",
      "mov    rsi,QWORD PTR [rdi+0x8]",
      "mov    QWORD PTR [rdi+0x10],rdx",
      "movabs r10,0x3039",
      "add    rax,0x40",
      "add    rcx,r13",
      "sub    rsp,0x20",
      "dec    r11",
      "prefetcht0 BYTE PTR [rax+0x80]",
      "prefetcht1 BYTE PTR [r8+0x100]",
      "vmovups zmm2,ZMMWORD PTR [rax+r15*8+0x40]",
      "vmovups zmm0,ZMMWORD PTR [rbp+0x0]",
      "vmovups zmm0,ZMMWORD PTR [r13+0x0]",
      "ret",
  };
  std::size_t cursor = 0;
  for (const char* e : expected) {
    const std::size_t at = dis.find(e, cursor);
    EXPECT_NE(at, std::string::npos) << "missing or out of order: " << e;
    if (at != std::string::npos) cursor = at;
  }
  EXPECT_EQ(dis.find("(bad)"), std::string::npos) << dis;
}

// ------------------------------------------------------- execution -------

TEST(ExecMemory, RejectsEmptyCode) {
  EXPECT_THROW(ExecMemory::from_code({}), Error);
}

TEST(ExecMemory, RunsTrivialFunction) {
  // mov rax, 42; ret — no vector instructions, runs on any x86-64.
  Assembler a;
  a.mov_imm(Gp::rax, 42);
  a.ret();
  const ExecMemory m = ExecMemory::from_code(a.finish());
  auto fn = m.entry_as<u64 (*)()>();
  EXPECT_EQ(fn(), 42u);
}

TEST(ExecMemory, CountedLoopExecutes) {
  // rax = 0; rcx = arg; loop: add rax, 3; dec rcx; jnz loop; ret
  Assembler a;
  a.mov_imm(Gp::rax, 0);
  a.mov(Gp::rcx, Gp::rdi);
  LabelId top = a.new_label();
  a.bind(top);
  a.add(Gp::rax, 3);
  a.dec(Gp::rcx);
  a.jnz(top);
  a.ret();
  const ExecMemory m = ExecMemory::from_code(a.finish());
  auto fn = m.entry_as<u64 (*)(u64)>();
  EXPECT_EQ(fn(1), 3u);
  EXPECT_EQ(fn(10), 30u);
  EXPECT_EQ(fn(1000), 3000u);
}

TEST(ExecMemory, MoveTransfersOwnership) {
  Assembler a;
  a.mov_imm(Gp::rax, 7);
  a.ret();
  ExecMemory m1 = ExecMemory::from_code(a.finish());
  ExecMemory m2 = std::move(m1);
  EXPECT_EQ(m1.entry(), nullptr);
  EXPECT_EQ(m2.entry_as<u64 (*)()>()(), 7u);
}

TEST(ExecMemory, VectorKernelComputesFma) {
  if (!cpu_features().full_avx512()) GTEST_SKIP() << "host lacks AVX-512";
  // out[0..15] += a[0..15] * bcast(s[0]); arguments: rdi=a, rsi=s, rdx=out
  Assembler a;
  a.vmovups(Zmm(0), addr(Gp::rdx));
  a.vmovups(Zmm(1), addr(Gp::rdi));
  a.vfmadd231ps_bcast(Zmm(0), Zmm(1), addr(Gp::rsi));
  a.vmovups(addr(Gp::rdx), Zmm(0));
  a.ret();
  const ExecMemory m = ExecMemory::from_code(a.finish());
  auto fn = m.entry_as<void (*)(const float*, const float*, float*)>();

  AlignedBuffer<float> in(16), scalar(16), out(16);
  for (int i = 0; i < 16; ++i) {
    in[static_cast<std::size_t>(i)] = static_cast<float>(i + 1);
    out[static_cast<std::size_t>(i)] = 100.0f;
  }
  scalar[0] = 2.5f;
  fn(in.data(), scalar.data(), out.data());
  for (int i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i)],
                    100.0f + 2.5f * static_cast<float>(i + 1));
  }
}

TEST(ExecMemory, StreamingStoreWritesThrough) {
  if (!cpu_features().full_avx512()) GTEST_SKIP() << "host lacks AVX-512";
  Assembler a;
  a.vmovups(Zmm(4), addr(Gp::rdi));
  a.vmovntps(addr(Gp::rsi), Zmm(4));
  a.ret();
  const ExecMemory m = ExecMemory::from_code(a.finish());
  auto fn = m.entry_as<void (*)(const float*, float*)>();
  AlignedBuffer<float> src(16), dst(16);
  for (int i = 0; i < 16; ++i) src[static_cast<std::size_t>(i)] = i * 1.5f;
  fn(src.data(), dst.data());
  for (int i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(dst[static_cast<std::size_t>(i)], i * 1.5f);
  }
}

// The epilogue kernels rely on vmaxps's operand order to match std::max
// bit for bit: ReLU is vmaxps(dst, zero, v) == std::max(v, 0.0f) and the
// pool step is vmaxps(acc, v, acc) == std::max(acc, v).
TEST(ExecMemory, VmaxpsOperandOrderMatchesStdMax) {
  if (!cpu_features().full_avx512()) GTEST_SKIP() << "host lacks AVX-512";
  // rdi = v, rsi = acc, rdx = relu out, rcx = pool out
  Assembler a;
  a.vmovups(Zmm(0), addr(Gp::rdi));
  a.vmovups(Zmm(1), addr(Gp::rsi));
  a.vpxord(Zmm(2), Zmm(2), Zmm(2));
  a.vmaxps(Zmm(3), Zmm(2), Zmm(0));
  a.vmovups(addr(Gp::rdx), Zmm(3));
  a.vmaxps(Zmm(1), Zmm(0), Zmm(1));
  a.vmovups(addr(Gp::rcx), Zmm(1));
  a.ret();
  const ExecMemory m = ExecMemory::from_code(a.finish());
  auto fn = m.entry_as<void (*)(const float*, const float*, float*, float*)>();

  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float v_lanes[16] = {-0.0f, 0.0f, -0.0f, 0.0f, nan, 1.0f, nan, -2.0f,
                             3.0f,  -1.0f, nan, -0.0f, 0.5f, -0.5f, 0.0f, 7.0f};
  const float acc_lanes[16] = {0.0f, -0.0f, -0.0f, 0.0f, 1.0f, nan,  nan, -3.0f,
                               2.0f, -1.0f, -0.0f, nan, 0.5f, -0.5f, -0.0f, 8.0f};
  AlignedBuffer<float> v(16), acc(16), relu(16), pool(16);
  for (std::size_t i = 0; i < 16; ++i) {
    v[i] = v_lanes[i];
    acc[i] = acc_lanes[i];
  }
  fn(v.data(), acc.data(), relu.data(), pool.data());
  for (std::size_t i = 0; i < 16; ++i) {
    const float want_relu = std::max(v[i], 0.0f);
    const float want_pool = std::max(acc[i], v[i]);
    EXPECT_EQ(std::memcmp(&relu[i], &want_relu, sizeof(float)), 0)
        << "relu lane " << i;
    EXPECT_EQ(std::memcmp(&pool[i], &want_pool, sizeof(float)), 0)
        << "pool lane " << i;
  }
}

}  // namespace
}  // namespace ondwin
