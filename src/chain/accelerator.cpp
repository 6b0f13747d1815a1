#include "chain/accelerator.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "fixed/quantize.hpp"
#include "nn/conv_kernel.hpp"
#include "nn/golden.hpp"

namespace chainnn::chain {

namespace {

// Replays the cycle-accurate controller's RunStats from the plan's closed
// forms. Every identity here is pinned against measured counts by the
// exec-mode equivalence sweep (tests/chain/test_exec_mode.cpp) on top of
// the existing closed-form tests (Accelerator.MeasuredCyclesMatchPlanClosedForm).
RunStats analytical_stats(const dataflow::ExecutionPlan& plan,
                          std::int64_t batch) {
  const dataflow::LayerCycles cycles = dataflow::layer_cycles(plan, plan.array);
  RunStats stats;
  stats.kernel_load_cycles = cycles.kernel_load;
  stats.stream_cycles = batch * cycles.stream_per_image;
  stats.drain_cycles = cycles.drain;
  stats.windows_collected = batch * plan.windows_per_image();
  // The chain MACs zero-padding taps like real ones (phases partition the
  // K x K taps), so the streamed MAC count is the nominal layer count.
  stats.macs_performed = batch * plan.layer.macs_per_image();
  stats.passes = batch * plan.passes_per_image();
  return stats;
}

}  // namespace

double LayerRunResult::seconds() const {
  return static_cast<double>(stats.total_cycles()) / clock_hz();
}

double LayerRunResult::achieved_ops_per_s() const {
  const double secs = seconds();
  return secs == 0.0 ? 0.0
                     : 2.0 * static_cast<double>(plan.layer.macs_total()) /
                           secs;
}

double LayerRunResult::utilization() const {
  const double cap = static_cast<double>(plan.array.num_pes) *
                     static_cast<double>(stats.total_cycles());
  return cap == 0.0 ? 0.0
                    : static_cast<double>(plan.layer.macs_total()) / cap;
}

ChainAccelerator::ChainAccelerator(const AcceleratorConfig& cfg,
                                   std::shared_ptr<serve::PlanCache> plan_cache)
    : cfg_(cfg),
      plan_cache_(plan_cache ? std::move(plan_cache)
                             : std::make_shared<serve::PlanCache>()) {}

dataflow::ExecutionPlan ChainAccelerator::plan(
    const nn::ConvLayerParams& layer) const {
  return plan_cache_->plan_for(layer, cfg_.array, cfg_.memory);
}

LayerRunResult ChainAccelerator::run_layer(
    const nn::ConvLayerParams& layer, const Tensor<std::int16_t>& ifmaps,
    const Tensor<std::int16_t>& kernels,
    const Tensor<std::int16_t>* bias) const {
  if (bias) CHAINNN_CHECK(bias->shape() == Shape({layer.out_channels}));

  LayerRunResult result;
  result.plan = plan_cache_->plan_for(layer, cfg_.array, cfg_.memory);

  if (cfg_.exec_mode == ExecMode::kAnalytical) {
    // Fast path: the accumulator surface the chain would produce comes
    // from the dispatched MAC kernel for wide psums (its own computation,
    // proven and tested bit-identical to the golden model the
    // cycle-accurate datapath is verified against) or from
    // staged_reference for staged ones, and the plan's closed forms
    // reproduce the controller's cycle and traffic accounting.
    CHAINNN_CHECK(ifmaps.shape() == Shape({layer.batch, layer.in_channels,
                                           layer.in_height, layer.in_width}));
    CHAINNN_CHECK(kernels.shape() ==
                  Shape({layer.out_channels, layer.channels_per_group(),
                         layer.kernel, layer.kernel}));
    if (cfg_.psum_storage == PsumStorage::kWide) {
      // The surface and the kernel's scratch come from the heap, not the
      // arena: they live for one layer, and malloc recycles one region
      // across layer shapes where the arena's exact-size freelist would
      // keep a block per shape for the life of the chip.
      result.accumulators =
          nn::conv2d_fixed_accum_dispatch(layer, ifmaps, kernels);
    } else {
      result.accumulators =
          staged_reference(cfg_, result.plan, ifmaps, kernels);
    }
    result.stats = analytical_stats(result.plan, layer.batch);
    result.traffic = dataflow::model_traffic(result.plan, layer.batch);
  } else {
    LayerController controller(cfg_, result.plan);
    result.accumulators =
        controller.run(ifmaps, kernels, result.stats, result.traffic);
  }

  // Requantize to 16-bit ofmaps, one (n, m) plane at a time. Uninit: every
  // plane is written; pooled so repeated layer shapes reuse one surface.
  const std::int64_t plane = layer.out_height() * layer.out_width();
  CHAINNN_CHECK(result.accumulators.shape() ==
                Shape({layer.batch, layer.out_channels, layer.out_height(),
                       layer.out_width()}));
  result.ofmaps =
      Tensor<std::int16_t>(result.accumulators.shape(), Uninit{},
                           ArenaAllocator<std::int16_t>(cfg_.arena));
  // Wide psums carry the product's fraction bits, staged partials
  // psum_fmt's; the bias (ofmap format) is aligned to them once per plane.
  const int acc_frac = cfg_.psum_storage == PsumStorage::kWide
                           ? cfg_.ifmap_fmt.frac_bits +
                                 cfg_.kernel_fmt.frac_bits
                           : cfg_.psum_fmt.frac_bits;
  const std::int64_t* acc = result.accumulators.data().data();
  std::int16_t* out = result.ofmaps.mutable_data().data();
  for (std::int64_t n = 0; n < layer.batch; ++n)
    for (std::int64_t m = 0; m < layer.out_channels; ++m) {
      const std::int64_t addend =
          bias ? fixed::shift_right_rounded(
                     bias->data()[static_cast<std::size_t>(m)],
                     cfg_.ofmap_fmt.frac_bits - acc_frac, cfg_.rounding)
               : 0;
      fixed::narrow_plane_to_fixed16(acc, plane, addend, acc_frac,
                                     cfg_.ofmap_fmt, cfg_.rounding, out,
                                     result.narrowing);
      acc += plane;
      out += plane;
    }
  return result;
}

ChainAccelerator::FloatRunResult ChainAccelerator::run_layer_float(
    const nn::ConvLayerParams& layer, const Tensor<float>& ifmaps,
    const Tensor<float>& kernels,
    fixed::NarrowingStats* quantization) const {
  const auto xq = fixed::quantize(ifmaps.data(), cfg_.ifmap_fmt,
                                  cfg_.rounding);
  const auto wq = fixed::quantize(kernels.data(), cfg_.kernel_fmt,
                                  cfg_.rounding);
  if (quantization) {
    quantization->merge(xq.stats);
    quantization->merge(wq.stats);
  }
  FloatRunResult out;
  out.raw = run_layer(layer, Tensor<std::int16_t>(ifmaps.shape(), xq.raw),
                      Tensor<std::int16_t>(kernels.shape(), wq.raw));
  out.ofmaps = Tensor<float>(out.raw.ofmaps.shape());
  const double scale = cfg_.ofmap_fmt.scale();
  for (std::int64_t i = 0; i < out.raw.ofmaps.num_elements(); ++i)
    out.ofmaps.at_flat(i) = static_cast<float>(
        static_cast<double>(out.raw.ofmaps.at_flat(i)) / scale);
  return out;
}

Tensor<std::int64_t> staged_reference(const AcceleratorConfig& cfg,
                                      const dataflow::ExecutionPlan& plan,
                                      const Tensor<std::int16_t>& ifmaps,
                                      const Tensor<std::int16_t>& kernels) {
  const nn::ConvLayerParams& layer = plan.layer;
  layer.validate();
  const int acc_frac = cfg.ifmap_fmt.frac_bits + cfg.kernel_fmt.frac_bits;
  const std::int64_t e_h = layer.out_height();
  const std::int64_t e_w = layer.out_width();
  Tensor<std::int64_t> partials(
      Shape{layer.batch, layer.out_channels, e_h, e_w});

  const std::int64_t m_per_g = layer.out_channels_per_group();
  const std::int64_t cg = layer.channels_per_group();
  const std::int64_t h = layer.in_height;
  const std::int64_t w = layer.in_width;
  const std::int64_t k = layer.kernel;
  const std::int64_t s = layer.stride;
  const std::int64_t pr = layer.pad_rows();
  const std::int64_t pc = layer.pad_cols();

  // Raw-pointer loop nest in the conv2d_fixed_accum style (this is the
  // kStaged16 analytical hot path). The pass order over each output site
  // must match the controller — c_tile, then phase, then channel within
  // the tile — with a 16-bit narrow + saturating staged add per pass, so
  // the passes run as the outer loops and the sites stream through the
  // partial plane. The padding tests are hoisted out of the tap loops as
  // phase-tap range bounds: tap sky reads input row by + s*sky, so the
  // valid taps form the contiguous range [sky_lo, sky_hi).
  const std::int16_t* x = ifmaps.data().data();
  const std::int16_t* ker = kernels.data().data();
  std::int64_t* out = partials.mutable_data().data();
  for (std::int64_t n = 0; n < layer.batch; ++n) {
    const std::int16_t* xn = x + n * layer.in_channels * h * w;
    for (std::int64_t m = 0; m < layer.out_channels; ++m) {
      const std::int16_t* xg = xn + (m / m_per_g) * cg * h * w;
      const std::int16_t* wm = ker + m * cg * k * k;
      std::int64_t* plane = out + (n * layer.out_channels + m) * e_h * e_w;
      for (std::int64_t ct = 0; ct < plan.c_tiles; ++ct) {
        const std::int64_t c_base = ct * plan.c_tile;
        const std::int64_t c_limit = std::min(plan.c_tile, cg - c_base);
        for (const dataflow::SubConvPlan& sp : plan.subconvs) {
          const std::int64_t a = sp.sub.phase_row;
          const std::int64_t b = sp.sub.phase_col;
          const std::int64_t kr = sp.sub.kernel_rows;
          const std::int64_t kc = sp.sub.kernel_cols;
          for (std::int64_t cl = 0; cl < c_limit; ++cl) {
            const std::int64_t c = c_base + cl;
            const std::int16_t* xc = xg + c * h * w;
            const std::int16_t* wc = wm + c * k * k;
            for (std::int64_t oy = 0; oy < e_h; ++oy) {
              const std::int64_t by = oy * s + a - pr;
              const std::int64_t sky_lo = by >= 0 ? 0 : (-by + s - 1) / s;
              const std::int64_t sky_hi =
                  by >= h ? 0 : std::min(kr, (h - by + s - 1) / s);
              std::int64_t* prow = plane + oy * e_w;
              for (std::int64_t ox = 0; ox < e_w; ++ox) {
                const std::int64_t bx = ox * s + b - pc;
                const std::int64_t skx_lo =
                    bx >= 0 ? 0 : (-bx + s - 1) / s;
                const std::int64_t skx_hi =
                    bx >= w ? 0 : std::min(kc, (w - bx + s - 1) / s);
                std::int64_t psum = 0;
                for (std::int64_t sky = sky_lo; sky < sky_hi; ++sky) {
                  // Row-start pointers only (bx may be negative; the
                  // skx_lo bound keeps every formed index in range, and
                  // forming a pointer before the buffer would be UB).
                  const std::int16_t* xrow = xc + (by + s * sky) * w;
                  const std::int16_t* wrow = wc + (a + s * sky) * k;
                  for (std::int64_t skx = skx_lo; skx < skx_hi; ++skx)
                    psum += static_cast<std::int64_t>(xrow[bx + s * skx]) *
                            static_cast<std::int64_t>(wrow[b + s * skx]);
                }
                // One staged accumulation per pass, even for all-padding
                // windows (the hardware still cycles the accumulator).
                const std::int16_t narrowed = fixed::narrow_to_fixed16(
                    psum, acc_frac, cfg.psum_fmt, cfg.rounding,
                    fixed::Overflow::kSaturate);
                prow[ox] = std::clamp<std::int64_t>(prow[ox] + narrowed,
                                                    -32768, 32767);
              }
            }
          }
        }
      }
    }
  }
  return partials;
}

}  // namespace chainnn::chain
