#include "src/tensor/im2col.hpp"

#include "src/utils/error.hpp"

namespace fedcav {

void Conv2dGeometry::validate() const {
  FEDCAV_REQUIRE(in_channels > 0 && in_h > 0 && in_w > 0, "Conv2dGeometry: empty input");
  FEDCAV_REQUIRE(kernel_h > 0 && kernel_w > 0, "Conv2dGeometry: empty kernel");
  FEDCAV_REQUIRE(stride > 0, "Conv2dGeometry: zero stride");
  FEDCAV_REQUIRE(in_h + 2 * pad >= kernel_h && in_w + 2 * pad >= kernel_w,
                 "Conv2dGeometry: kernel larger than padded input");
}

void im2col_padded(const Conv2dGeometry& g, const float* padded, float* cols,
                   std::size_t ld) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t pw = g.in_w + 2 * g.pad;
  const std::size_t pplane = (g.in_h + 2 * g.pad) * pw;
  const std::size_t s = g.stride;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* chan = padded + c * pplane;
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* base = chan + kh * pw + kw;
        float* dst = cols + row * ld;
        if (s == 1) {
          for (std::size_t y = 0; y < oh; ++y) {
            const float* __restrict__ sr = base + y * pw;
            float* __restrict__ d = dst + y * ow;
            for (std::size_t x = 0; x < ow; ++x) d[x] = sr[x];
          }
        } else {
          for (std::size_t y = 0; y < oh; ++y) {
            const float* __restrict__ sr = base + y * s * pw;
            float* __restrict__ d = dst + y * ow;
            for (std::size_t x = 0; x < ow; ++x) d[x] = sr[x * s];
          }
        }
      }
    }
  }
}

void col2im_padded(const Conv2dGeometry& g, const float* cols, std::size_t ld,
                   float* padded) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t pw = g.in_w + 2 * g.pad;
  const std::size_t pplane = (g.in_h + 2 * g.pad) * pw;
  const std::size_t s = g.stride;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* chan = padded + c * pplane;
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* base = chan + kh * pw + kw;
        const float* src = cols + row * ld;
        if (s == 1) {
          for (std::size_t y = 0; y < oh; ++y) {
            const float* __restrict__ sr = src + y * ow;
            float* __restrict__ d = base + y * pw;
            for (std::size_t x = 0; x < ow; ++x) d[x] += sr[x];
          }
        } else {
          for (std::size_t y = 0; y < oh; ++y) {
            const float* __restrict__ sr = src + y * ow;
            float* __restrict__ d = base + y * s * pw;
            for (std::size_t x = 0; x < ow; ++x) d[x * s] += sr[x];
          }
        }
      }
    }
  }
}

}  // namespace fedcav
