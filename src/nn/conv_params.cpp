#include "nn/conv_params.hpp"

#include <sstream>

#include "common/check.hpp"

namespace chainnn::nn {

void ConvLayerParams::validate() const {
  CHAINNN_CHECK_MSG(batch > 0, to_string());
  CHAINNN_CHECK_MSG(in_channels > 0 && out_channels > 0, to_string());
  CHAINNN_CHECK_MSG(in_height > 0 && in_width > 0, to_string());
  CHAINNN_CHECK_MSG(kernel > 0 && stride > 0 && pad >= 0, to_string());
  CHAINNN_CHECK_MSG(pad_rows() >= 0 && pad_cols() >= 0, to_string());
  CHAINNN_CHECK_MSG(groups > 0, to_string());
  CHAINNN_CHECK_MSG(in_channels % groups == 0,
                    "C=" << in_channels << " not divisible by groups="
                         << groups);
  CHAINNN_CHECK_MSG(out_channels % groups == 0,
                    "M=" << out_channels << " not divisible by groups="
                         << groups);
  CHAINNN_CHECK_MSG(in_height + 2 * pad_rows() >= kernel, to_string());
  CHAINNN_CHECK_MSG(in_width + 2 * pad_cols() >= kernel, to_string());
}

std::string ConvLayerParams::to_string() const {
  std::ostringstream os;
  os << name << ": N=" << batch << " C=" << in_channels
     << " M=" << out_channels << " H=" << in_height << " W=" << in_width
     << " K=" << kernel << " S=" << stride << " P=" << pad_rows();
  if (pad_rows() != pad_cols()) os << "x" << pad_cols();
  os << " G=" << groups << " -> E=" << out_height() << "x" << out_width();
  return os.str();
}

std::int64_t total_macs_per_image(
    const std::vector<ConvLayerParams>& layers) {
  std::int64_t total = 0;
  for (const auto& l : layers) total += l.macs_per_image();
  return total;
}

}  // namespace chainnn::nn
