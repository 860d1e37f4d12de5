// JIT-compiled batched matrix-multiplication primitive (paper §4.3.1).
//
// Computes X̂ = β·X̂ + Û·V̂ on cache-resident blocks:
//   Û: n_blk × C_blk   (row-major, contiguous)
//   V̂: C_blk × C'_blk  (row-major, contiguous, expected to stay in L2)
//   X̂: n_blk × C'_blk  (row-major, contiguous)
//
// Generated code structure (per the paper):
//  * X̂ sub-blocks of n_blk × S columns are held in n_blk zmm accumulators
//    (n_blk ≤ 30; two registers remain as V̂-row double-buffers);
//  * the inner body is a fully unrolled i×j sweep of scalar-broadcast FMAs
//    `vfmadd231ps acc_j, v_row, Û[j][i]{1to16}`, with the (i+1)-th V̂ row
//    loaded one iteration ahead and software prefetches of the next Û/V̂
//    chunks interleaved between FMAs;
//  * while storing, the *next* Û block is prefetched to L2, spread evenly
//    over the q iterations, together with the next X̂ block's lines of the
//    columns just stored;
//  * each i-iteration prefetches one line of the next V̂ block to L2 — a
//    V̂ block has exactly one line per i-iteration of a call;
//  * the final-k variant scatters rows directly to their stage-3 locations
//    with non-temporal streaming stores instead of writing X̂ back.
#pragma once

#include <memory>

#include "jit/exec_memory.h"
#include "util/common.h"
#include "util/precision.h"

namespace ondwin {

/// How the accumulated X̂ leaves the register file.
enum class StoreMode : u8 {
  kAccumulate,  // vmovups back to X̂ (intermediate k steps)
  kStream,      // vmovntps to X̂ (final k, result stays in blocked layout)
  kScatter,     // vmovntps rows to args.scatter_rows[j] + q·stride (final k)
  /// Same row scatter as kScatter but with plain (cacheable) stores: the
  /// fused execution path scatters into per-thread block scratch that the
  /// same thread's inverse transform reads immediately, so non-temporal
  /// stores would flush exactly the lines the consumer needs.
  kScatterCached,
};

/// True for either scatter variant (they share the args/codegen plumbing).
constexpr bool store_scatters(StoreMode m) {
  return m == StoreMode::kScatter || m == StoreMode::kScatterCached;
}

struct MicrokernelSpec {
  int n_blk = 0;    // rows of Û/X̂; 1..30 (paper tunes within [6,30];
                    // ≤29 when in_prec == kFp16 — zmm29 widens broadcasts)
  int c_blk = 0;    // columns of Û / rows of V̂; multiple of 16
  int cp_blk = 0;   // columns of V̂/X̂; multiple of 16
  bool beta = false;        // false: X̂ = Û·V̂; true: X̂ += Û·V̂
  StoreMode store = StoreMode::kAccumulate;
  /// Storage format of the Û and V̂ operands. Accumulation is fp32 in every
  /// mode. kBf16 runs on vdpbf16ps and expects V̂ pair-interleaved (see
  /// pack_v_bf16_pairs); kFp16 widens with vcvtph2ps and expects plain
  /// row-major u16 blocks.
  Precision in_prec = Precision::kFp32;
  /// Storage format of the scattered X̂ rows (the final-k down-convert).
  /// Must be kFp32 unless `store` is a scatter variant: the blocked X̂
  /// intermediate stays fp32 so k-step accumulation never re-rounds.
  Precision out_prec = Precision::kFp32;

  friend bool operator==(const MicrokernelSpec&,
                         const MicrokernelSpec&) = default;
};

/// Argument block passed to a generated kernel (single pointer in rdi).
/// u_next/x_next/v_next are prefetch hints for the blocks a following call
/// reads (they may simply repeat u/x/v when there is none). All pointers
/// must be non-null.
///
/// With a reduced `in_prec`, `u` and `v` alias u16 storage (bf16/fp16
/// words; reinterpret_cast at the call boundary) — the field types stay
/// float* so the ABI offsets below never move. With a reduced `out_prec`,
/// `scatter_rows` likewise aliases u16 row destinations, and
/// `scatter_col_stride_bytes` must be computed from the 2-byte element.
struct MicrokernelArgs {
  const float* u = nullptr;
  const float* v = nullptr;
  float* x = nullptr;
  const float* u_next = nullptr;
  const float* x_next = nullptr;
  // kScatter only: absolute destination of each row's first S-group, and
  // the byte stride between consecutive S-column groups of one row.
  float* const* scatter_rows = nullptr;
  i64 scatter_col_stride_bytes = 0;
  const float* v_next = nullptr;
};

using MicrokernelFn = void (*)(const MicrokernelArgs*);

/// A compiled kernel and the executable mapping keeping it alive.
class Microkernel {
 public:
  /// JIT-compiles the kernel for `spec`. Requires full AVX-512 support
  /// (check `microkernel_jit_supported()` first). Throws Error on invalid
  /// specs or executable-memory failure.
  explicit Microkernel(const MicrokernelSpec& spec);

  void run(const MicrokernelArgs& args) const { fn_(&args); }
  const MicrokernelSpec& spec() const { return spec_; }
  i64 code_bytes() const { return static_cast<i64>(memory_.size()); }

 private:
  MicrokernelSpec spec_;
  ExecMemory memory_;
  MicrokernelFn fn_ = nullptr;
};

/// True when the host can execute the generated AVX-512 code.
bool microkernel_jit_supported();

/// True when the host can execute the JIT variant a specific spec needs:
/// kFp32/kFp16 inputs need the full-AVX512 subset, kBf16 additionally
/// needs AVX512_BF16 (vdpbf16ps). Callers fall back to
/// run_microkernel_reference when this is false.
bool microkernel_jit_supported(const MicrokernelSpec& spec);

/// Pair-interleaves a bf16 V̂ block for vdpbf16ps: rows 2k/2k+1 of the
/// plain row-major u16 block (c_blk × cp_blk) merge into dword lanes
/// (even word = row 2k, odd word = row 2k+1), giving [c_blk/2][cp_blk]
/// dwords — the layout both the JIT and the reference bf16 kernel consume.
void pack_v_bf16_pairs(const u16* plain, u32* paired, int c_blk, int cp_blk);

/// Validates a spec (shared by the JIT and the portable reference).
void validate_microkernel_spec(const MicrokernelSpec& spec);

/// Portable C++ implementation of the identical kernel contract — the
/// ground truth for tests and the fallback on non-AVX-512 hosts.
void run_microkernel_reference(const MicrokernelSpec& spec,
                               const MicrokernelArgs& args);

}  // namespace ondwin
