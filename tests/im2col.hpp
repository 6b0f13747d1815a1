// im2col + matrix-multiply convolution — an independent second reference
// implementation the tests use to cross-check the direct golden model
// (two references that agree make a much stronger oracle for the cycle
// simulator). A test oracle only, so it lives here, header-only, and not
// in the library.
#pragma once

#include <cstdint>

#include "common/check.hpp"
#include "nn/conv_params.hpp"
#include "tensor/tensor.hpp"

namespace chainnn::nn {

// Unfolds one image (and one group) of the ifmaps into a
// {C/g*K*K, E_h*E_w} patch matrix. Padding positions are zero-filled.
inline Tensor<float> im2col_image(const ConvLayerParams& p,
                                  const Tensor<float>& ifmaps, std::int64_t n,
                                  std::int64_t group) {
  p.validate();
  const std::int64_t cg = p.channels_per_group();
  const std::int64_t eh = p.out_height();
  const std::int64_t ew = p.out_width();
  Tensor<float> cols(Shape{cg * p.kernel * p.kernel, eh * ew});

  for (std::int64_t c = 0; c < cg; ++c) {
    const std::int64_t ic = group * cg + c;
    for (std::int64_t ky = 0; ky < p.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < p.kernel; ++kx) {
        const std::int64_t row = (c * p.kernel + ky) * p.kernel + kx;
        for (std::int64_t oy = 0; oy < eh; ++oy) {
          const std::int64_t iy = oy * p.stride + ky - p.pad_rows();
          for (std::int64_t ox = 0; ox < ew; ++ox) {
            const std::int64_t ix = ox * p.stride + kx - p.pad_cols();
            float v = 0.0f;
            if (iy >= 0 && iy < p.in_height && ix >= 0 && ix < p.in_width)
              v = ifmaps.at(n, ic, iy, ix);
            cols.at(row, oy * ew + ox) = v;
          }
        }
      }
    }
  }
  return cols;
}

// Full conv via im2col + GEMM; output layout matches conv2d_float.
inline Tensor<float> conv2d_im2col(const ConvLayerParams& p,
                                   const Tensor<float>& ifmaps,
                                   const Tensor<float>& kernels,
                                   const Tensor<float>* bias = nullptr) {
  p.validate();
  CHAINNN_CHECK(ifmaps.shape() ==
                Shape({p.batch, p.in_channels, p.in_height, p.in_width}));
  CHAINNN_CHECK(kernels.shape() == Shape({p.out_channels,
                                          p.channels_per_group(), p.kernel,
                                          p.kernel}));

  const std::int64_t eh = p.out_height();
  const std::int64_t ew = p.out_width();
  const std::int64_t cg = p.channels_per_group();
  const std::int64_t taps = cg * p.kernel * p.kernel;
  const std::int64_t m_per_g = p.out_channels_per_group();

  Tensor<float> out(Shape{p.batch, p.out_channels, eh, ew});
  for (std::int64_t n = 0; n < p.batch; ++n) {
    for (std::int64_t g = 0; g < p.groups; ++g) {
      const Tensor<float> cols = im2col_image(p, ifmaps, n, g);
      // GEMM: {m_per_g, taps} x {taps, eh*ew}.
      for (std::int64_t mi = 0; mi < m_per_g; ++mi) {
        const std::int64_t m = g * m_per_g + mi;
        for (std::int64_t px = 0; px < eh * ew; ++px) {
          double acc = bias ? double{bias->at_flat(m)} : 0.0;
          for (std::int64_t t = 0; t < taps; ++t) {
            // Kernel row layout matches im2col row layout: (c, ky, kx).
            acc += double{kernels.at_flat(m * taps + t)} *
                   double{cols.at(t, px)};
          }
          out.at(n, m, px / ew, px % ew) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

}  // namespace chainnn::nn
