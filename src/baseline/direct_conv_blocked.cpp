#include "baseline/direct_conv_blocked.h"

#include <cstring>

#include "util/cpu.h"

namespace ondwin {

DirectConvBlocked::DirectConvBlocked(const ConvShape& shape, int threads,
                                     std::shared_ptr<ThreadPool> pool)
    : shape_(shape),
      pool_(pool != nullptr ? std::move(pool)
                            : std::make_shared<ThreadPool>(
                                  threads > 0 ? threads : hardware_threads())) {
  shape_.validate();
  ONDWIN_CHECK(shape_.in_channels % kSimdWidth == 0 &&
                   shape_.out_channels % kSimdWidth == 0,
               "blocked direct conv needs channel counts divisible by ",
               kSimdWidth);
  out_dims_ = shape_.output();
  const int rank = out_dims_.rank();
  for (int d = 0; d + 1 < rank; ++d) outer_dims_.push_back(out_dims_[d]);
  if (outer_dims_.empty()) outer_dims_.push_back(1);

  for (int t = 0; t < pool_->size(); ++t) {
    row_scratch_.emplace_back(static_cast<std::size_t>(
        out_dims_[rank - 1] * kSimdWidth));
  }
}

DirectConvBlocked::~DirectConvBlocked() = default;

void DirectConvBlocked::execute(const float* in, const float* w, float* out,
                                i64 n) {
  if (n == 0) n = shape_.batch;
  ONDWIN_CHECK(n >= 1 && n <= shape_.batch, "execute of ", n,
               " samples on a direct conv compiled for ", shape_.batch);
  const std::vector<GridBox> sched = static_partition(
      {n, shape_.out_channels / kSimdWidth, outer_dims_.product()},
      pool_->size());
  pool_->run([&](int tid) {
    float* acc = row_scratch_[static_cast<std::size_t>(tid)].data();
    for_each_in_box(sched[static_cast<std::size_t>(tid)],
                    [&](const std::array<i64, kMaxGridRank>& c) {
                      row_task(c[0], c[1], c[2], in, w, out, acc);
                    });
  });
}

void DirectConvBlocked::row_task(i64 b, i64 g, i64 outer_linear,
                                 const float* in, const float* w, float* out,
                                 float* acc_row) {
  const int rank = out_dims_.rank();
  const i64 row_len = out_dims_[rank - 1];
  const Dims img = shape_.image;
  const Dims img_strides = img.strides();
  const i64 ipx = img.product();
  const i64 taps = shape_.kernel.product();
  const i64 in_groups = shape_.in_channels / kSimdWidth;
  const i64 out_groups = shape_.out_channels / kSimdWidth;

  const Dims outer = outer_dims_.coord_of(outer_linear);

  std::memset(acc_row, 0,
              static_cast<std::size_t>(row_len * kSimdWidth) * sizeof(float));

  for (i64 cg = 0; cg < in_groups; ++cg) {
    const float* img_base = in + ((b * in_groups + cg) * ipx) * kSimdWidth;
    for (i64 k = 0; k < taps; ++k) {
      const Dims kc = shape_.kernel.coord_of(k);
      // Input coordinates of the fixed (outer) dims for this tap; the last
      // dim is handled by the inner x loop below.
      i64 base_off = 0;
      bool valid = true;
      for (int d = 0; d + 1 < rank; ++d) {
        const i64 iy = outer[d] + kc[d] - shape_.padding[d];
        if (iy < 0 || iy >= img[d]) {
          valid = false;
          break;
        }
        base_off += iy * img_strides[d];
      }
      if (!valid) continue;

      const i64 klast = kc[rank - 1];
      const i64 plast = shape_.padding[rank - 1];
      const i64 x_lo = std::max<i64>(0, plast - klast);
      const i64 x_hi =
          std::min<i64>(row_len, img[rank - 1] + plast - klast);

      // 16 kernel vectors (one per lane of this input group's channels).
      const float* wbase =
          w + ((cg * kSimdWidth * out_groups + g) * taps + k) * kSimdWidth;
      const i64 w_ch_stride = out_groups * taps * kSimdWidth;

      for (i64 lane = 0; lane < kSimdWidth; ++lane) {
        const float* __restrict wv = wbase + lane * w_ch_stride;
        const float* __restrict src =
            img_base + (base_off + (x_lo + klast - plast)) * kSimdWidth +
            lane;
        float* __restrict acc = acc_row + x_lo * kSimdWidth;
        for (i64 x = 0; x < x_hi - x_lo; ++x) {
          const float v = src[x * kSimdWidth];
          float* __restrict a = acc + x * kSimdWidth;
          for (int s = 0; s < kSimdWidth; ++s) a[s] += v * wv[s];
        }
      }
    }
  }

  // One write pass for the whole row.
  const i64 opx = out_dims_.product();
  i64 out_off = 0;
  const Dims out_strides = out_dims_.strides();
  for (int d = 0; d + 1 < rank; ++d) out_off += outer[d] * out_strides[d];
  float* dst = out + ((b * out_groups + g) * opx + out_off) * kSimdWidth;
  std::memcpy(dst, acc_row,
              static_cast<std::size_t>(row_len * kSimdWidth) * sizeof(float));
}

}  // namespace ondwin
