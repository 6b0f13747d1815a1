// Microbenchmarks (google-benchmark timing): simulator speed, golden
// convolution speed, pattern generation and planning cost. These size the
// simulation substrate itself rather than reproduce a paper figure; the
// serving stack's end-to-end metrics come from benchmark/.
#include <benchmark/benchmark.h>

#include "chain/accelerator.hpp"
#include "chain/scan_pattern.hpp"
#include "common/rng.hpp"
#include "dataflow/plan.hpp"
#include "fixed/quantize.hpp"
#include "nn/golden.hpp"
#include "nn/models.hpp"

namespace {

using namespace chainnn;

nn::ConvLayerParams bench_layer(std::int64_t k) {
  nn::ConvLayerParams p;
  p.name = "bench";
  p.in_channels = 4;
  p.out_channels = 8;
  p.in_height = p.in_width = 32;
  p.kernel = k;
  p.validate();
  return p;
}

void BM_GoldenConv(benchmark::State& state) {
  const auto p = bench_layer(state.range(0));
  Rng rng(1);
  Tensor<std::int16_t> x(Shape{1, p.in_channels, p.in_height, p.in_width});
  Tensor<std::int16_t> w(
      Shape{p.out_channels, p.in_channels, p.kernel, p.kernel});
  x.fill_random(rng, -64, 64);
  w.fill_random(rng, -16, 16);
  for (auto _ : state)
    benchmark::DoNotOptimize(nn::conv2d_fixed_accum(p, x, w));
  state.SetItemsProcessed(state.iterations() * p.macs_per_image());
}
BENCHMARK(BM_GoldenConv)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_ChainSimulator(benchmark::State& state) {
  const auto p = bench_layer(state.range(0));
  Rng rng(2);
  Tensor<std::int16_t> x(Shape{1, p.in_channels, p.in_height, p.in_width});
  Tensor<std::int16_t> w(
      Shape{p.out_channels, p.in_channels, p.kernel, p.kernel});
  x.fill_random(rng, -64, 64);
  w.fill_random(rng, -16, 16);
  chain::AcceleratorConfig cfg;
  cfg.array.num_pes = 576;
  for (auto _ : state) {
    chain::ChainAccelerator acc(cfg);
    const auto res = acc.run_layer(p, x, w);
    benchmark::DoNotOptimize(res.stats.stream_cycles);
    state.counters["sim_cycles"] = static_cast<double>(
        res.stats.stream_cycles + res.stats.drain_cycles);
  }
  state.SetItemsProcessed(state.iterations() * p.macs_per_image());
}
BENCHMARK(BM_ChainSimulator)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_PatternGeneration(benchmark::State& state) {
  const std::int64_t k = state.range(0);
  for (auto _ : state) {
    chain::StripPattern pat(k, k, 2 * k - 1, 64, k, true);
    benchmark::DoNotOptimize(pat.completions());
  }
}
BENCHMARK(BM_PatternGeneration)->Arg(3)->Arg(11);

void BM_PlanVgg16(benchmark::State& state) {
  const dataflow::ArrayShape array;
  const auto net = nn::vgg16();
  for (auto _ : state)
    for (const auto& layer : net.conv_layers)
      benchmark::DoNotOptimize(
          dataflow::layer_cycles(dataflow::plan_layer(layer, array), array)
              .total(1));
}
BENCHMARK(BM_PlanVgg16);

void BM_QuantizeTensor(benchmark::State& state) {
  Rng rng(3);
  Tensor<float> t(Shape{256 * 1024});
  t.fill_random(rng, -2.0, 2.0);
  for (auto _ : state) {
    auto q = fixed::quantize(t.data(), fixed::FixedFormat{8});
    benchmark::DoNotOptimize(q.raw.data());
  }
  state.SetBytesProcessed(state.iterations() * t.num_elements() * 4);
}
BENCHMARK(BM_QuantizeTensor)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
