#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace chainnn::nn {

void PoolParams::validate() const {
  CHAINNN_CHECK_MSG(window >= 1 && stride >= 1 && pad >= 0 && pad < window,
                    "pool window " << window << ", stride " << stride
                                   << ", pad " << pad);
}

namespace {

template <typename T>
void relu_impl(Tensor<T>& t) {
  for (T& v : t.mutable_data())
    if (v < T{}) v = T{};
}

template <typename T>
Tensor<T> max_pool_impl(const Tensor<T>& in, const PoolParams& p) {
  CHAINNN_CHECK(in.shape().rank() == 4);
  const std::int64_t n = in.shape().dim(0);
  const std::int64_t c = in.shape().dim(1);
  const std::int64_t h = in.shape().dim(2);
  const std::int64_t w = in.shape().dim(3);
  const std::int64_t eh = p.out_size(h);
  const std::int64_t ew = p.out_size(w);
  CHAINNN_CHECK_MSG(eh > 0 && ew > 0, "pool output empty");

  // Uninit: every output is written. Each window is clipped to the input
  // once per output; pad < window keeps the clipped window non-empty.
  Tensor<T> out(Shape{n, c, eh, ew}, Uninit{});
  const T* src = in.data().data();
  T* dst = out.mutable_data().data();
  for (std::int64_t plane = 0; plane < n * c; ++plane, src += h * w)
    for (std::int64_t oy = 0; oy < eh; ++oy) {
      const std::int64_t y0 = oy * p.stride - p.pad;
      const std::int64_t y_lo = std::max<std::int64_t>(y0, 0);
      const std::int64_t y_hi = std::min(y0 + p.window, h);
      for (std::int64_t ox = 0; ox < ew; ++ox) {
        const std::int64_t x0 = ox * p.stride - p.pad;
        const std::int64_t x_lo = std::max<std::int64_t>(x0, 0);
        const std::int64_t x_hi = std::min(x0 + p.window, w);
        T best = std::numeric_limits<T>::lowest();
        for (std::int64_t iy = y_lo; iy < y_hi; ++iy) {
          const T* row = src + iy * w;
          for (std::int64_t ix = x_lo; ix < x_hi; ++ix)
            best = std::max(best, row[ix]);
        }
        *dst++ = best;
      }
    }
  return out;
}

}  // namespace

void relu_inplace(Tensor<float>& t) { relu_impl(t); }
void relu_inplace(Tensor<std::int16_t>& t) { relu_impl(t); }

Tensor<float> max_pool(const Tensor<float>& in, const PoolParams& p) {
  return max_pool_impl(in, p);
}
Tensor<std::int16_t> max_pool(const Tensor<std::int16_t>& in,
                              const PoolParams& p) {
  return max_pool_impl(in, p);
}

Tensor<float> avg_pool(const Tensor<float>& in, const PoolParams& p) {
  CHAINNN_CHECK(in.shape().rank() == 4);
  const std::int64_t n = in.shape().dim(0);
  const std::int64_t c = in.shape().dim(1);
  const std::int64_t h = in.shape().dim(2);
  const std::int64_t w = in.shape().dim(3);
  const std::int64_t eh = p.out_size(h);
  const std::int64_t ew = p.out_size(w);
  CHAINNN_CHECK_MSG(eh > 0 && ew > 0, "pool output empty");

  Tensor<float> out(Shape{n, c, eh, ew});
  const double area = static_cast<double>(p.window * p.window);
  for (std::int64_t ni = 0; ni < n; ++ni)
    for (std::int64_t ci = 0; ci < c; ++ci)
      for (std::int64_t oy = 0; oy < eh; ++oy)
        for (std::int64_t ox = 0; ox < ew; ++ox) {
          double sum = 0.0;
          for (std::int64_t ky = 0; ky < p.window; ++ky) {
            const std::int64_t iy = oy * p.stride + ky - p.pad;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < p.window; ++kx) {
              const std::int64_t ix = ox * p.stride + kx - p.pad;
              if (ix < 0 || ix >= w) continue;
              sum += double{in.at(ni, ci, iy, ix)};
            }
          }
          out.at(ni, ci, oy, ox) = static_cast<float>(sum / area);
        }
  return out;
}

Tensor<float> lrn_across_channels(const Tensor<float>& in,
                                  std::int64_t local_size, double alpha,
                                  double beta, double k) {
  CHAINNN_CHECK(in.shape().rank() == 4);
  CHAINNN_CHECK(local_size > 0);
  const std::int64_t n = in.shape().dim(0);
  const std::int64_t c = in.shape().dim(1);
  const std::int64_t h = in.shape().dim(2);
  const std::int64_t w = in.shape().dim(3);
  const std::int64_t half = local_size / 2;

  Tensor<float> out(in.shape());
  for (std::int64_t ni = 0; ni < n; ++ni)
    for (std::int64_t ci = 0; ci < c; ++ci)
      for (std::int64_t y = 0; y < h; ++y)
        for (std::int64_t x = 0; x < w; ++x) {
          double sumsq = 0.0;
          const std::int64_t lo = std::max<std::int64_t>(0, ci - half);
          const std::int64_t hi = std::min(c - 1, ci + half);
          for (std::int64_t cj = lo; cj <= hi; ++cj) {
            const double v = double{in.at(ni, cj, y, x)};
            sumsq += v * v;
          }
          const double denom =
              std::pow(k + alpha / static_cast<double>(local_size) * sumsq,
                       beta);
          out.at(ni, ci, y, x) =
              static_cast<float>(double{in.at(ni, ci, y, x)} / denom);
        }
  return out;
}

}  // namespace chainnn::nn
