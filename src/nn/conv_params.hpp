// Convolutional-layer parameterization (paper Table I plus stride /
// padding / grouping, which AlexNet needs).
//
//   N      batch size
//   C / M  number of ifmap / ofmap channels
//   H / W  ifmap spatial size (rows / cols)
//   K      kernel size (square kernels, as in the paper)
//   stride, pad, groups — standard conv extensions (AlexNet conv1 has
//   stride 4; conv2/4/5 are 2-group convolutions)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace chainnn::nn {

struct ConvLayerParams {
  std::string name;
  std::int64_t batch = 1;       // N
  std::int64_t in_channels = 1;   // C
  std::int64_t out_channels = 1;  // M
  std::int64_t in_height = 1;     // H
  std::int64_t in_width = 1;      // W
  std::int64_t kernel = 1;        // K
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  std::int64_t groups = 1;
  // Per-axis padding overrides (asymmetric padding between the H and W
  // axes; each axis is still padded symmetrically on both sides). The
  // default -1 inherits `pad`, so square-padded layers read as before.
  std::int64_t pad_h = -1;
  std::int64_t pad_w = -1;

  // Effective padding on the row / column axis.
  [[nodiscard]] std::int64_t pad_rows() const {
    return pad_h >= 0 ? pad_h : pad;
  }
  [[nodiscard]] std::int64_t pad_cols() const {
    return pad_w >= 0 ? pad_w : pad;
  }

  // --- derived quantities --------------------------------------------------
  [[nodiscard]] std::int64_t out_height() const {
    return (in_height + 2 * pad_rows() - kernel) / stride + 1;
  }
  [[nodiscard]] std::int64_t out_width() const {
    return (in_width + 2 * pad_cols() - kernel) / stride + 1;
  }
  // Ifmap channels seen by each output channel (C/groups).
  [[nodiscard]] std::int64_t channels_per_group() const {
    return in_channels / groups;
  }
  [[nodiscard]] std::int64_t out_channels_per_group() const {
    return out_channels / groups;
  }
  // Multiply-accumulates for one image of the batch.
  [[nodiscard]] std::int64_t macs_per_image() const {
    return out_height() * out_width() * out_channels * kernel * kernel *
           channels_per_group();
  }
  [[nodiscard]] std::int64_t macs_total() const {
    return macs_per_image() * batch;
  }
  // Weight words (per layer, all groups).
  [[nodiscard]] std::int64_t weight_count() const {
    return out_channels * channels_per_group() * kernel * kernel;
  }
  [[nodiscard]] std::int64_t ifmap_pixels_per_image() const {
    return in_channels * in_height * in_width;
  }
  [[nodiscard]] std::int64_t ofmap_pixels_per_image() const {
    return out_channels * out_height() * out_width();
  }

  // Throws (CHAINNN_CHECK) if the parameters are inconsistent
  // (e.g. channels not divisible by groups, non-positive dims).
  void validate() const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ConvLayerParams&,
                         const ConvLayerParams&) = default;
};

// Total MACs over a sequence of layers, one image per layer batch setting.
[[nodiscard]] std::int64_t total_macs_per_image(
    const std::vector<ConvLayerParams>& layers);

}  // namespace chainnn::nn
