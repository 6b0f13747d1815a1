#include "mem/hierarchy.hpp"

#include <gtest/gtest.h>

namespace chainnn::mem {
namespace {

std::uint64_t onchip_bytes(const HierarchyConfig& cfg) {
  return cfg.imemory_bytes + cfg.omemory_bytes + cfg.kmemory_bytes;
}

TEST(Hierarchy, PaperCapacities) {
  // §V.B: 32KB iMemory + 295KB kMemory + 25KB oMemory = 352KB on-chip.
  const HierarchyConfig cfg;
  EXPECT_EQ(cfg.imemory_bytes, 32u * 1024);
  EXPECT_EQ(cfg.omemory_bytes, 25u * 1024);
  EXPECT_EQ(cfg.kmemory_bytes, 295u * 1024);
  EXPECT_EQ(cfg.word_bytes, 2u);
}

TEST(Hierarchy, CustomConfig) {
  HierarchyConfig cfg;
  cfg.imemory_bytes = 1024;
  cfg.omemory_bytes = 2048;
  cfg.kmemory_bytes = 4096;
  EXPECT_EQ(onchip_bytes(cfg), 7u * 1024);
}

}  // namespace
}  // namespace chainnn::mem
