// Auxiliary layers (ReLU, max/avg pooling, local response normalization)
// needed to run whole networks end-to-end between the accelerated
// convolutions. The paper offloads only convolutions to Chain-NN; these
// host-side layers let the examples execute real network pipelines.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace chainnn::nn {

struct PoolParams {
  std::int64_t window = 2;
  std::int64_t stride = 2;
  std::int64_t pad = 0;

  // Throws std::logic_error unless window >= 1, stride >= 1 and
  // 0 <= pad < window. pad < window keeps every pool window on the
  // input, so no output is the all-padding value.
  void validate() const;

  // Pooled extent of an `in`-long axis. Validates first, so every user
  // of a pool (max_pool, avg_pool, serve::resolve_network_layers) refuses
  // bad params before dividing by the stride.
  [[nodiscard]] std::int64_t out_size(std::int64_t in) const {
    validate();
    return (in + 2 * pad - window) / stride + 1;
  }
};

// Elementwise max(0, x), in place.
void relu_inplace(Tensor<float>& t);
void relu_inplace(Tensor<std::int16_t>& t);

// Max pooling over {N, C, H, W}; padding positions are treated as -inf.
[[nodiscard]] Tensor<float> max_pool(const Tensor<float>& in,
                                     const PoolParams& p);
[[nodiscard]] Tensor<std::int16_t> max_pool(const Tensor<std::int16_t>& in,
                                            const PoolParams& p);

// Average pooling (padding contributes zero, divisor is window area).
[[nodiscard]] Tensor<float> avg_pool(const Tensor<float>& in,
                                     const PoolParams& p);

// AlexNet-style local response normalization across channels.
[[nodiscard]] Tensor<float> lrn_across_channels(const Tensor<float>& in,
                                                std::int64_t local_size,
                                                double alpha, double beta,
                                                double k);

}  // namespace chainnn::nn
