#include "select/auto_conv.h"

#include <algorithm>
#include <vector>

namespace ondwin::select {

void apply_epilogue_blocked(const ImageLayout& layout, float* data,
                            const Epilogue& epilogue) {
  if (!epilogue.active()) return;
  const i64 px = layout.pixels();
  for (i64 b = 0; b < layout.batch; ++b) {
    for (i64 g = 0; g < layout.channel_groups(); ++g) {
      float bias[kSimdWidth] = {};
      if (epilogue.bias != nullptr) {
        for (int s = 0; s < kSimdWidth; ++s) {
          bias[s] = epilogue.bias[g * kSimdWidth + s];
        }
      }
      float* base = data + layout.group_offset_linear(b, g, 0);
      for (i64 p = 0; p < px; ++p) {
        float* v = base + p * kSimdWidth;
        for (int s = 0; s < kSimdWidth; ++s) {
          float x = v[s] + bias[s];
          if (epilogue.relu) x = std::max(x, 0.0f);
          v[s] = x;
        }
      }
    }
  }
}

AutoConv::AutoConv(const ConvShape& shape, const SelectedConfig& config,
                   const PlanOptions& options,
                   std::shared_ptr<ThreadPool> pool)
    : shape_(shape), config_(config) {
  shape_.validate();
  switch (config_.algorithm) {
    case Algorithm::kWinograd: {
      ONDWIN_CHECK(config_.tile_m.rank() == shape_.image.rank(),
                   "Winograd AutoConv needs tile sizes for every dimension");
      ConvProblem p;
      p.shape = shape_;
      p.tile_m = config_.tile_m;
      PlanOptions opts = options;
      // The selection's blocking beats the plan's heuristic; zeros fall
      // through to it.
      if (config_.blocking.n_blk > 0) opts.n_blk = config_.blocking.n_blk;
      if (config_.blocking.c_blk > 0) opts.c_blk = config_.blocking.c_blk;
      if (config_.blocking.cp_blk > 0) {
        opts.cp_blk = config_.blocking.cp_blk;
      }
      if (config_.blocking.f_blk > 0) opts.fuse_blk = config_.blocking.f_blk;
      if (config_.precision != Precision::kFp32) {
        opts.precision = config_.precision;
      }
      plan_ = std::make_unique<ConvPlan>(p, opts, std::move(pool));
      break;
    }
    case Algorithm::kDirect: {
      direct_ = std::make_unique<DirectConvBlocked>(shape_, options.threads,
                                                    std::move(pool));
      const KernelLayout kl{shape_.in_channels, shape_.out_channels,
                            shape_.kernel};
      w_blocked_.reset(static_cast<std::size_t>(kl.total_floats()));
      break;
    }
    case Algorithm::kFft: {
      // The selection's blocking (from wisdom or measurement) carries
      // straight into the engine; zeros fall through to its heuristics.
      fft_ = std::make_unique<fftconv::FftConvPlan>(
          shape_, options, config_.blocking, std::move(pool));
      break;
    }
  }
}

AutoConv::~AutoConv() = default;

void AutoConv::set_kernels(const float* kernels_blocked) {
  switch (config_.algorithm) {
    case Algorithm::kWinograd:
      plan_->set_kernels(kernels_blocked);
      break;
    case Algorithm::kDirect:
      std::copy(kernels_blocked, kernels_blocked + w_blocked_.size(),
                w_blocked_.data());
      break;
    case Algorithm::kFft:
      fft_->set_kernels(kernels_blocked);
      break;
  }
  kernels_ready_ = true;
}

void AutoConv::execute_pretransformed(const float* input, float* output,
                                      const Epilogue& epilogue, i64 n) {
  ONDWIN_CHECK(kernels_ready_, "AutoConv::set_kernels must be called first");
  switch (config_.algorithm) {
    case Algorithm::kWinograd:
      plan_->execute_pretransformed(input, output, epilogue, n);
      return;
    case Algorithm::kDirect:
      direct_->execute(input, w_blocked_.data(), output, n);
      break;
    case Algorithm::kFft:
      // Native blocked layouts and a fused epilogue — no conversion, no
      // post-pass.
      fft_->execute_pretransformed(input, output, epilogue, n);
      return;
  }
  apply_epilogue_blocked(
      ImageLayout(n == 0 ? shape_.batch : n, shape_.out_channels,
                  shape_.output()),
      output, epilogue);
}

i64 AutoConv::workspace_bytes() const {
  switch (config_.algorithm) {
    case Algorithm::kWinograd:
      return plan_->workspace_bytes();
    case Algorithm::kDirect:
      return static_cast<i64>(w_blocked_.size() * sizeof(float));
    case Algorithm::kFft:
      return fft_->workspace_bytes();
  }
  return 0;
}

}  // namespace ondwin::select
