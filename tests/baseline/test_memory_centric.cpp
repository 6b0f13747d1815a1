#include "baseline/memory_centric.hpp"

#include <gtest/gtest.h>

#include "nn/models.hpp"

namespace chainnn::baseline {
namespace {

TEST(MemoryCentric, PeakThroughputMatchesPublished) {
  const MemoryCentricModel m;
  // 288x16 MACs @ 606 MHz x 2 ops = 5584.9 GOPS (Table V).
  EXPECT_NEAR(m.peak_ops_per_s() / 1e9, 5584.9, 1.0);
}

TEST(MemoryCentric, MemoryDominatesEnergy) {
  const MemoryCentricModel m;
  // The taxonomy point (§III.A.1): memory, not compute, dominates.
  EXPECT_GT(m.memory_energy_per_mac_j(), 5.0 * m.core_energy_per_mac_j());
}

TEST(MemoryCentric, TimingScalesWithMacs) {
  const MemoryCentricModel m;
  const auto layers = nn::alexnet().conv_layers;
  const std::int64_t c3 = m.cycles_per_image(layers[2]);
  const std::int64_t c5 = m.cycles_per_image(layers[4]);
  const double mac_ratio =
      static_cast<double>(layers[2].macs_per_image()) /
      static_cast<double>(layers[4].macs_per_image());
  EXPECT_NEAR(static_cast<double>(c3) / static_cast<double>(c5), mac_ratio,
              0.05);
}

TEST(MemoryCentric, SmallLayerUnderutilizes) {
  const MemoryCentricModel m;
  nn::ConvLayerParams tiny;
  tiny.in_channels = 1;
  tiny.out_channels = 1;
  tiny.in_height = tiny.in_width = 8;
  tiny.kernel = 3;
  // Output sites (36) < MAC units (4608): utilization-limited, so cycles
  // = MACs / sites.
  EXPECT_EQ(m.cycles_per_image(tiny), 9);
}

TEST(MemoryCentric, EnergyPerImagePositiveAndMacProportional) {
  const MemoryCentricModel m;
  const auto layers = nn::alexnet().conv_layers;
  const double e1 = m.energy_per_image_j(layers[0]);
  const double e3 = m.energy_per_image_j(layers[2]);
  EXPECT_GT(e1, 0.0);
  EXPECT_NEAR(e3 / e1,
              static_cast<double>(layers[2].macs_per_image()) /
                  static_cast<double>(layers[0].macs_per_image()),
              1e-9);
}

}  // namespace
}  // namespace chainnn::baseline
