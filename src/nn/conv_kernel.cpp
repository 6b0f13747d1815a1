#include "nn/conv_kernel.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "nn/golden.hpp"

namespace chainnn::nn {

namespace {

// Largest |value| in a raw int16 tensor (as int64: |-32768| = 32768).
// Reduced through the int16 minimum and maximum, which vectorise.
std::int64_t max_abs(const Tensor<std::int16_t>& t) {
  std::int16_t lo = 0;
  std::int16_t hi = 0;
  for (const std::int16_t v : t.data()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return std::max(-std::int64_t{lo}, std::int64_t{hi});
}

// int16 lanes in one 128-bit vector, the build's baseline (SSE2) width.
constexpr std::int64_t kLanes = 8;

// Output channels per block: the nest transposes and sweeps one block of
// a group's channels at a time, so its per-call copy of a wide layer's
// weights is one block, not the whole layer.
constexpr std::int64_t kBlockLanes = 128;

// Chain-NN's loop order on the host: the kernels stay put and each ifmap
// pixel is broadcast against the weights of every output channel of its
// block. For each (g, block, n, oy) an `Acc` tile [ox][m] of the output
// row's accumulators is zeroed, every in-range tap (c, ky, kx) adds
// x[c][iy][ix] * wt[c][ky][kx][0 .. block) into the tile's valid columns,
// and the tile is written out transposed to out[n][channel][oy][ox].
// The innermost loop runs over contiguous output channels, so it
// vectorises as int16 x int16 multiply-adds into `Acc` lanes. The
// in-range input rows (c, ky) are taken two at a time, so each
// accumulator load and store carries two taps (half the tile traffic of
// one tap per pass); an odd last row is paired with a zero weight row.
//
// The taps reach an output in another order than the scalar reference's,
// and each update adds two products at once. Both are exact once the
// caller has proven T * max|x| * max|w| within `Acc`'s limit (and, for
// int64, Accumulator48's): every partial sum, the pair included, is a
// sum of at most T nonzero products, so none leaves the proven range and
// integer addition without overflow gives a bit-identical result.
template <typename Acc>
Tensor<std::int64_t> channel_nest(const ConvLayerParams& p,
                                  const Tensor<std::int16_t>& ifmaps,
                                  const Tensor<std::int16_t>& kernels,
                                  ArenaAllocator<std::int64_t> alloc) {
  p.validate();
  CHAINNN_CHECK(ifmaps.shape() ==
                Shape({p.batch, p.in_channels, p.in_height, p.in_width}));
  CHAINNN_CHECK(kernels.shape() == Shape({p.out_channels,
                                          p.channels_per_group(), p.kernel,
                                          p.kernel}));

  const std::int64_t oh = p.out_height();
  const std::int64_t ow = p.out_width();
  const std::int64_t cg = p.channels_per_group();
  const std::int64_t mg = p.out_channels_per_group();
  const std::int64_t h = p.in_height;
  const std::int64_t w = p.in_width;
  const std::int64_t k = p.kernel;
  const std::int64_t s = p.stride;
  const std::int64_t pr = p.pad_rows();
  const std::int64_t pc = p.pad_cols();
  const std::int64_t taps = cg * k * k;
  // A block's taps, then one all-zero row of k taps.
  const std::int64_t block_taps = taps + k;
  // A block's channels are padded to whole vectors of int16 weights, so
  // the innermost loop is whole vectors with no remainder; pad lanes carry
  // zero weights and are never written out.
  const auto padded = [](std::int64_t m) {
    return (m + kLanes - 1) / kLanes * kLanes;
  };
  const std::int64_t max_lanes = padded(std::min(mg, kBlockLanes));

  // One block's kernels transposed to [c][ky][kx][m], so one tap's
  // weights for every output channel of the block are contiguous
  // (O(weights) per call). The scratch and the tile come from the
  // caller's allocator, so a caller's arena recycles them like the output
  // surface. Uninit: each block fills the scratch before reading it, and
  // each (n, oy) zeroes the tile and then writes its whole output row.
  Tensor<std::int16_t> wt(Shape{block_taps, max_lanes}, Uninit{},
                          ArenaAllocator<std::int16_t>(alloc));
  Tensor<Acc> tile(Shape{ow, max_lanes}, Uninit{},
                   ArenaAllocator<Acc>(alloc));
  Tensor<std::int64_t> out(Shape{p.batch, p.out_channels, oh, ow}, Uninit{},
                           alloc);

  const std::int16_t* ker = kernels.data().data();
  const std::int16_t* x = ifmaps.data().data();
  std::int16_t* wts = wt.mutable_data().data();
  Acc* acc = tile.mutable_data().data();
  std::int64_t* o = out.mutable_data().data();
  for (std::int64_t g = 0; g < p.groups; ++g) {
    for (std::int64_t m0 = 0; m0 < mg; m0 += kBlockLanes) {
      const std::int64_t mb = std::min(kBlockLanes, mg - m0);
      const std::int64_t mp = padded(mb);
      for (std::int64_t tap = 0; tap < block_taps; ++tap) {
        std::int16_t* lanes = wts + tap * mp;
        const std::int64_t real = tap < taps ? mb : 0;
        for (std::int64_t m = 0; m < real; ++m)
          lanes[m] = ker[(g * mg + m0 + m) * taps + tap];
        std::fill(lanes + real, lanes + mp, std::int16_t{0});
      }
      for (std::int64_t n = 0; n < p.batch; ++n) {
        const std::int16_t* xg = x + (n * p.in_channels + g * cg) * h * w;
        std::int64_t* ob = o + (n * p.out_channels + g * mg + m0) * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          std::fill(acc, acc + ow * mp, Acc{0});
          const std::int64_t ky_lo = std::max<std::int64_t>(0, pr - oy * s);
          const std::int64_t ky_hi = std::min(k, h + pr - oy * s);
          const std::int64_t nky = ky_hi - ky_lo;
          const std::int64_t rows = nky > 0 ? cg * nky : 0;
          // In-range input row r is (c, ky) = (r / nky, ky_lo + r % nky).
          const auto x_row = [&](std::int64_t r) {
            return xg + ((r / nky) * h + oy * s + ky_lo + r % nky - pr) * w;
          };
          const auto w_row = [&](std::int64_t r) {
            return wts + ((r / nky) * k + ky_lo + r % nky) * k * mp;
          };
          for (std::int64_t r = 0; r < rows; r += 2) {
            // Row r's partner is row r + 1, or the zero weight row
            // against row r's own pixels.
            const bool paired = r + 1 < rows;
            const std::int16_t* xa = x_row(r);
            const std::int16_t* wa = w_row(r);
            const std::int16_t* xb = paired ? x_row(r + 1) : xa;
            const std::int16_t* wb = paired ? w_row(r + 1) : wts + taps * mp;
            for (std::int64_t kx = 0; kx < k; ++kx) {
              // Valid output columns for this tap: ix = ox*s + kx - pc
              // must land in [0, w). Solving for ox gives the contiguous
              // range [ox_lo, ox_hi) — the padding test of the scalar
              // nest, hoisted out of the pixel loop. ox >= ox_lo keeps
              // ox*s - d non-negative, so only in-bounds pointers form.
              const std::int64_t d = pc - kx;
              const std::int64_t ox_lo = d <= 0 ? 0 : (d + s - 1) / s;
              const std::int64_t num = w - 1 - kx + pc;
              const std::int64_t ox_hi =
                  num < 0 ? 0 : std::min(ow, num / s + 1);
              const std::int16_t* va = wa + kx * mp;
              const std::int16_t* vb = wb + kx * mp;
              for (std::int64_t ox = ox_lo; ox < ox_hi; ++ox) {
                const std::int32_t pa = xa[ox * s - d];
                const std::int32_t pb = xb[ox * s - d];
                Acc* a = acc + ox * mp;
                for (std::int64_t m = 0; m < mp; m += kLanes)
                  for (std::int64_t j = m; j < m + kLanes; ++j)
                    a[j] += static_cast<Acc>(pa * std::int32_t{va[j]}) +
                            static_cast<Acc>(pb * std::int32_t{vb[j]});
              }
            }
          }
          for (std::int64_t m = 0; m < mb; ++m) {
            std::int64_t* orow = ob + (m * oh + oy) * ow;
            for (std::int64_t ox = 0; ox < ow; ++ox)
              orow[ox] = acc[ox * mp + m];
          }
        }
      }
    }
  }
  return out;
}

}  // namespace

bool simd_kernel_enabled() {
#ifdef CHAINNN_SIMD
  return true;
#else
  return false;
#endif
}

bool saturation_free(const ConvLayerParams& p, std::int64_t max_abs_ifmap,
                     std::int64_t max_abs_kernel, std::int64_t limit) {
  CHAINNN_CHECK(max_abs_ifmap >= 0 && max_abs_ifmap <= 32768 &&
                max_abs_kernel >= 0 && max_abs_kernel <= 32768 &&
                limit >= 0);
  const std::int64_t taps = p.channels_per_group() * p.kernel * p.kernel;
  const std::int64_t prod = max_abs_ifmap * max_abs_kernel;  // <= 2^30
  if (prod == 0) return true;  // all-zero operand: every sum is 0
  return taps <= limit / prod;
}

Tensor<std::int64_t> conv2d_fixed_accum_fast(
    const ConvLayerParams& p, const Tensor<std::int16_t>& ifmaps,
    const Tensor<std::int16_t>& kernels,
    ArenaAllocator<std::int64_t> alloc) {
  return channel_nest<std::int64_t>(p, ifmaps, kernels, std::move(alloc));
}

Tensor<std::int64_t> conv2d_fixed_accum_dispatch(
    const ConvLayerParams& p, const Tensor<std::int16_t>& ifmaps,
    const Tensor<std::int16_t>& kernels, ConvDispatch* dispatch,
    ArenaAllocator<std::int64_t> alloc) {
  ConvDispatch d;
  if (simd_kernel_enabled()) {
    // No layer with more than one tap passes the int32 bound at int16's
    // worst-case magnitudes, so the operands are always scanned.
    const std::int64_t mx = max_abs(ifmaps);
    const std::int64_t mw = max_abs(kernels);
    d.data_scanned = !saturation_free(p);
    if (saturation_free(p, mx, mw, std::numeric_limits<std::int32_t>::max())) {
      d.fast = d.int32 = true;
      if (dispatch) *dispatch = d;
      return channel_nest<std::int32_t>(p, ifmaps, kernels, std::move(alloc));
    }
    if (!d.data_scanned || saturation_free(p, mx, mw)) {
      d.fast = true;
      if (dispatch) *dispatch = d;
      return conv2d_fixed_accum_fast(p, ifmaps, kernels, std::move(alloc));
    }
  }
  if (dispatch) *dispatch = d;
  return conv2d_fixed_accum(p, ifmaps, kernels);
}

}  // namespace chainnn::nn
