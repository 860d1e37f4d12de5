// Optimized direct convolution on the SIMD-blocked layout — the strongest
// "direct" baseline of Fig. 5, in the style of the compile-time-scheduled
// direct primitives of Zlateski & Seung [58] that the paper benchmarks
// against.
//
// Vectorizes over the 16 output channels of one group: each tap performs a
// scalar-broadcast FMA of one input value against a 16-wide kernel vector,
// accumulating a whole output row in a stack buffer before a single write
// pass. Parallelized with the same static scheduler as the main engine.
#pragma once

#include <memory>

#include "baseline/direct_conv.h"
#include "sched/static_schedule.h"
#include "sched/thread_pool.h"
#include "util/aligned.h"

namespace ondwin {

class DirectConvBlocked {
 public:
  /// `pool`: the worker pool to run on (see ConvPlan); null = build one
  /// of `threads` (0 = hardware threads).
  explicit DirectConvBlocked(const ConvShape& shape, int threads = 0,
                             std::shared_ptr<ThreadPool> pool = nullptr);
  ~DirectConvBlocked();

  /// Blocked layouts (tensor/layout.h): in I[b][c/S][img][s],
  /// w W[c][c'/S][taps][s], out I'[b][c'/S][out][s]. Runs the first `n`
  /// samples (0 = all shape.batch; 1 ≤ n ≤ shape.batch otherwise).
  void execute(const float* in, const float* w, float* out, i64 n = 0);

  int threads() const { return pool_->size(); }

 private:
  void row_task(i64 b, i64 g, i64 outer_linear, const float* in,
                const float* w, float* out, float* acc_row);

  ConvShape shape_;
  Dims out_dims_;
  Dims outer_dims_;  // all output spatial dims except the last
  std::shared_ptr<ThreadPool> pool_;
  std::vector<AlignedBuffer<float>> row_scratch_;  // per thread
};

}  // namespace ondwin
