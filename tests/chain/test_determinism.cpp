// Determinism and idempotence of the simulator: identical inputs must
// produce identical results, stats and traffic across repeated runs and
// across separate accelerator instances — a prerequisite for the whole
// verification methodology (and for debugging regressions by diffing
// runs).
#include <gtest/gtest.h>

#include "chain/accelerator.hpp"
#include "common/rng.hpp"

namespace chainnn::chain {
namespace {

struct DetFixture {
  nn::ConvLayerParams layer;
  Tensor<std::int16_t> x{Shape{1}};
  Tensor<std::int16_t> w{Shape{1}};
  AcceleratorConfig cfg;

  DetFixture() {
    layer.name = "det";
    layer.batch = 2;
    layer.in_channels = 3;
    layer.out_channels = 5;
    layer.in_height = layer.in_width = 9;
    layer.kernel = 3;
    layer.pad = 1;
    layer.validate();
    Rng rng(123);
    x = Tensor<std::int16_t>(Shape{2, 3, 9, 9});
    w = Tensor<std::int16_t>(Shape{5, 3, 3, 3});
    x.fill_random(rng, -40, 40);
    w.fill_random(rng, -10, 10);
    cfg.array.num_pes = 45;  // five 9-PE primitives
    cfg.array.kmem_words_per_pe = 8;
  }
};

TEST(Determinism, RepeatedRunsIdentical) {
  DetFixture s;
  ChainAccelerator acc(s.cfg);
  const LayerRunResult a = acc.run_layer(s.layer, s.x, s.w);
  const LayerRunResult b = acc.run_layer(s.layer, s.x, s.w);
  EXPECT_EQ(a.accumulators, b.accumulators);
  EXPECT_EQ(a.ofmaps, b.ofmaps);
  EXPECT_EQ(a.stats.stream_cycles, b.stats.stream_cycles);
  EXPECT_EQ(a.stats.kernel_load_cycles, b.stats.kernel_load_cycles);
  EXPECT_EQ(a.stats.windows_collected, b.stats.windows_collected);
  EXPECT_EQ(a.stats.macs_performed, b.stats.macs_performed);
}

TEST(Determinism, SeparateInstancesIdentical) {
  DetFixture s;
  ChainAccelerator acc1(s.cfg);
  ChainAccelerator acc2(s.cfg);
  const LayerRunResult a = acc1.run_layer(s.layer, s.x, s.w);
  const LayerRunResult b = acc2.run_layer(s.layer, s.x, s.w);
  EXPECT_EQ(a.accumulators, b.accumulators);
  EXPECT_EQ(a.traffic, b.traffic);
}

TEST(Determinism, ResultsIndependentOfUnrelatedConfig) {
  // The FSM trace cap / rounding of unrelated operands must not alter
  // psums: changing the ofmap format only changes the narrowed view.
  DetFixture s;
  AcceleratorConfig alt = s.cfg;
  alt.ofmap_fmt = fixed::FixedFormat{4};
  ChainAccelerator acc1(s.cfg);
  ChainAccelerator acc2(alt);
  const LayerRunResult a = acc1.run_layer(s.layer, s.x, s.w);
  const LayerRunResult b = acc2.run_layer(s.layer, s.x, s.w);
  EXPECT_EQ(a.accumulators, b.accumulators);
  EXPECT_NE(a.ofmaps, b.ofmaps);  // different requantization by design
}

}  // namespace
}  // namespace chainnn::chain
