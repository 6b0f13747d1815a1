// Model zoo: the convolutional-layer shapes of the four networks the
// paper evaluates with (§V.A: MNIST, Cifar-10, AlexNet, VGG-16).
//
// Weight values are synthetic: the accelerator's timing/energy behaviour
// depends only on shapes, and numerics are validated separately against
// the golden models, so trained weights would change no reproduced
// figure.
#pragma once

#include <string>
#include <vector>

#include "nn/conv_params.hpp"

namespace chainnn::nn {

struct NetworkModel {
  std::string name;
  std::vector<ConvLayerParams> conv_layers;

  [[nodiscard]] std::int64_t macs_per_image() const {
    return total_macs_per_image(conv_layers);
  }
};

// AlexNet's five convolutional layers for 227x227 inputs (the paper's
// workload; 666M MACs per image, which tests assert).
[[nodiscard]] NetworkModel alexnet();

// VGG-16's thirteen convolutional layers for 224x224 inputs.
[[nodiscard]] NetworkModel vgg16();

// LeNet-style MNIST network (MatConvNet example shapes, 28x28 inputs).
[[nodiscard]] NetworkModel lenet_mnist();

// CIFAR-10 "quick" network (MatConvNet example shapes, 32x32 inputs).
[[nodiscard]] NetworkModel cifar10_quick();

// All four, for sweep-style experiments.
[[nodiscard]] std::vector<NetworkModel> model_zoo();

// Looks up a model by name ("alexnet", "vgg16", "lenet", "cifar10");
// throws on unknown names listing the valid ones.
[[nodiscard]] NetworkModel model_by_name(const std::string& name);

}  // namespace chainnn::nn
