// Plan-time-compiled N-D tile transform: one JIT function per pipeline.
//
// transform_tile_nd() recomputes pass strides and interprets every fiber.
// The conv plan runs the same transform for millions of tiles with
// identical strides, so TilePipeline freezes the strides at plan time and
// lowers the whole tile — every pass, every fiber, every offset — to one
// AVX-512 function through the assembler the GEMM primitive uses (the
// paper's zero-overhead codelets, §4.2.1, built at plan time instead of
// C++ template instantiation so any F(m, r) works). Each fiber runs its
// program's ops in program order, one vector instruction per op, so the
// result is bitwise identical to the interpreter. Each pass emits its
// fiber's ops once and loops over a plan-time table of fiber offsets, so
// code size and compile time do not grow with the tile (fully unrolled
// fibers were no faster end to end; EXPERIMENTS.md, E5/E6 follow-up).
// Without AVX-512, or with JIT off, run() interprets through
// transform_tile_nd() instead.
//
// The interior inverse tiles of a conv plan also carry the layer epilogue
// (TileEpilogue), so the kernel stores straight into the output plane:
// bias add and ReLU right before each final store, and for a pooled
// epilogue the max-pool reduction of the finished tile (read back from
// the L1 scratch in graph::max_pool_blocked's window order) storing the
// pooled vectors. Per-element operations and their operand order match
// store_tile / store_tile_pooled (transform/epilogue.h), so the results
// are bitwise equal to the staged epilogue, −0.0 and NaN lanes included.
#pragma once

#include <vector>

#include "jit/exec_memory.h"
#include "transform/tile_transform.h"

namespace ondwin {

/// Epilogue a whole-tile kernel applies before its final stores (see the
/// file comment): add run()'s `bias` vector (kSimdWidth lanes; zeros for
/// a layer without bias — store_tile adds them too), then the options
/// below. Only the JIT form exists; callers without one use the staged
/// store path.
struct TileEpilogue {
  /// max(v, 0) after the bias.
  bool relu = false;
  /// > 1: reduce every complete window^rank max-pool window of the tile
  /// (requires out_count % window == 0 per dimension); `dst_strides` are
  /// then the POOLED plane's strides and `dst` its origin for this tile.
  /// The pooled vectors are written with plain stores.
  i64 pool_window = 0;
};

class TilePipeline {
 public:
  /// Same contract as transform_tile_nd (strides in floats, elements are
  /// 16-float vectors); `use_jit` requests the compiled kernel.
  TilePipeline(const TransformProgram* const* progs, int rank,
               const i64* src_strides, const i64* dst_strides,
               bool stream_dst, bool use_jit,
               const TileEpilogue* epilogue = nullptr);

  /// Thread-safe; each caller passes its own scratch. `bias` is read only
  /// by epilogue pipelines.
  void run(const float* src, float* dst, TransformScratch& scratch,
           const float* bias = nullptr) const;

  /// True when the whole tile runs as one compiled function.
  bool jitted() const { return fn_ != nullptr; }
  i64 code_bytes() const { return static_cast<i64>(code_.size()); }

 private:
  using Fn = void (*)(const float* src, float* dst, float* buf0, float* buf1,
                      const float* bias);

  bool compile(const TileEpilogue* epilogue);

  const TransformProgram* progs_[kMaxNd] = {};
  int rank_ = 0;
  i64 src_strides_[kMaxNd] = {};
  i64 dst_strides_[kMaxNd] = {};
  bool stream_ = false;
  bool epilogue_ = false;

  // Read by the generated code through absolute addresses, so both stay
  // at fixed heap locations for the kernel's lifetime.
  AlignedBuffer<float> coeffs_;  // broadcast coefficients
  std::vector<i64> offsets_;     // every pass's fiber offsets (bytes)
  ExecMemory code_;
  Fn fn_ = nullptr;
};

}  // namespace ondwin
