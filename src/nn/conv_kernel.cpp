#include "nn/conv_kernel.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "nn/golden.hpp"
#include "nn/pair_madd.hpp"

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

void check_operands(const ConvLayerParams& p,
                    const Tensor<std::int16_t>& ifmaps,
                    const Tensor<std::int16_t>& kernels) {
  p.validate();
  CHAINNN_CHECK(ifmaps.shape() ==
                Shape({p.batch, p.in_channels, p.in_height, p.in_width}));
  CHAINNN_CHECK(kernels.shape() == Shape({p.out_channels,
                                          p.channels_per_group(), p.kernel,
                                          p.kernel}));
}

// One register tile of the int32 nest: P output pixels, s input columns
// apart, by Q vectors of 4 output channels. Its int32 accumulators stay
// in registers across every tap pair t of the layer: tap pair t reads
// the pixel pair at x[off[t] + p * s] and the tile's 8Q interleaved
// weights at w + 8Q * t. The tile's sums go to res[p][4Q]. Not inlined:
// inlined into the nest's loops, GCC 12 copies every accumulator once
// more per tap, and the served proxies' layers ran about 20% slower.
template <int P, int Q>
[[gnu::noinline]] void pair_tile(const std::uint32_t* x, std::int64_t s,
                                 const std::int64_t* off, std::int64_t taps,
                                 const std::int16_t* w, std::int32_t* res) {
  using V = PairMadd;
  V::I32x4 acc[P][Q];
  for (int p = 0; p < P; ++p)
    for (int q = 0; q < Q; ++q) acc[p][q] = V::zero();
  for (std::int64_t t = 0; t < taps; ++t, w += 8 * Q) {
    const std::uint32_t* xt = x + off[t];
    V::I16x8 wv[Q];
    for (int q = 0; q < Q; ++q) wv[q] = V::load(w + 8 * q);
    for (int p = 0; p < P; ++p) {
      const V::I16x8 xb = V::broadcast(xt[p * s]);
      for (int q = 0; q < Q; ++q) acc[p][q] = V::madd(acc[p][q], wv[q], xb);
    }
  }
  for (int p = 0; p < P; ++p)
    for (int q = 0; q < Q; ++q) V::store(res + (p * Q + q) * 4, acc[p][q]);
}

// The int32 nest. Input channels are taken in pairs (c, c + 1), so one
// pair multiply-add (nn/pair_madd.hpp) does two taps for four output
// channels. Per call, every group's kernels are packed as
// [block][c / 2][ky][kx][4Q channels][c % 2] (an odd last channel and a
// partial last block get zero weights), and per (n, g) the input is
// copied into a zero-padded [c / 2][row][col] image of 32-bit pixel
// pairs. Its border is the layer's padding, so no tap needs a bounds
// test, and its rows reach the last pixel a partial tile reads, so a
// tile past the output's right edge reads the copy, never past it. Then
// each (block, oy, ox tile) runs pair_tile over all tap pairs and writes
// the tile's real pixels and channels out.
//
// Exact under the int32 proof: a pair's sum, like any partial sum here,
// is a sum of at most T nonzero products (zero weights and zero pixels
// add nothing), so none leaves [-(2^31 - 1), 2^31 - 1].
template <int P, int Q>
Tensor<std::int64_t> pair_nest(const ConvLayerParams& p,
                               const Tensor<std::int16_t>& ifmaps,
                               const Tensor<std::int16_t>& kernels,
                               ArenaAllocator<std::int64_t> alloc) {
  check_operands(p, ifmaps, kernels);
  constexpr std::int64_t lanes = 4 * Q;  // output channels per tile

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
  const std::int64_t pairs = (cg + 1) / 2;
  const std::int64_t taps = pairs * k * k;  // tap pairs per output
  const std::int64_t blocks = (mg + lanes - 1) / lanes;
  const std::int64_t hp = h + 2 * pr;
  const std::int64_t wp =
      std::max(w + 2 * pc, ((ow + P - 1) / P * P - 1) * s + k);

  // Zero-filled: pad lanes and the odd channel's partner stay zero. Each
  // tile's weights start a multiple of 16 bytes into the buffer, which
  // ::operator new aligns as PairMadd::load requires.
  Tensor<std::int16_t> packed(Shape{p.groups * blocks, taps, lanes, 2},
                              ArenaAllocator<std::int16_t>(alloc));
  const std::int16_t* ker = kernels.data().data();
  std::int16_t* wpk = packed.mutable_data().data();
  for (std::int64_t m = 0; m < p.out_channels; ++m) {
    // Reads each kernel in order; writes its lane of its block.
    const std::int64_t g = m / mg;
    const std::int64_t b = (m % mg) / lanes;
    std::int16_t* lane =
        wpk + (g * blocks + b) * taps * lanes * 2 + (m % mg % lanes) * 2;
    const std::int16_t* src = ker + m * cg * k * k;
    for (std::int64_t c = 0; c < cg; ++c)
      for (std::int64_t t = 0; t < k * k; ++t)
        lane[((c / 2) * k * k + t) * lanes * 2 + c % 2] = *src++;
  }

  // Tap pair (c / 2, ky, kx)'s offset in the padded copy.
  std::vector<std::int64_t> off(static_cast<std::size_t>(taps));
  for (std::int64_t cp = 0; cp < pairs; ++cp)
    for (std::int64_t ky = 0; ky < k; ++ky)
      for (std::int64_t kx = 0; kx < k; ++kx)
        off[static_cast<std::size_t>((cp * k + ky) * k + kx)] =
            (cp * hp + ky) * wp + kx;

  // Zero-filled once: each (n, g) rewrites the interior, and the border
  // stays zero.
  Tensor<std::uint32_t> copy(Shape{pairs, hp, wp},
                             ArenaAllocator<std::uint32_t>(alloc));
  Tensor<std::int64_t> out(Shape{p.batch, p.out_channels, oh, ow}, Uninit{},
                           std::move(alloc));
  std::uint32_t* xp = copy.mutable_data().data();
  std::int64_t* o = out.mutable_data().data();
  std::int32_t res[P * lanes];
  for (std::int64_t n = 0; n < p.batch; ++n) {
    for (std::int64_t g = 0; g < p.groups; ++g) {
      const std::int16_t* xg =
          ifmaps.data().data() + (n * p.in_channels + g * cg) * h * w;
      for (std::int64_t cp = 0; cp < pairs; ++cp) {
        const std::int16_t* lo = xg + 2 * cp * h * w;
        const std::int16_t* hi = 2 * cp + 1 < cg ? lo + h * w : nullptr;
        for (std::int64_t y = 0; y < h; ++y) {
          std::uint32_t* row = xp + (cp * hp + y + pr) * wp + pc;
          const std::int16_t* a = lo + y * w;
          for (std::int64_t i = 0; i < w; ++i)
            row[i] = static_cast<std::uint16_t>(a[i]);
          if (hi == nullptr) continue;
          const std::int16_t* b = hi + y * w;
          for (std::int64_t i = 0; i < w; ++i)
            row[i] |= std::uint32_t{static_cast<std::uint16_t>(b[i])} << 16;
        }
      }
      for (std::int64_t b = 0; b < blocks; ++b) {
        const std::int16_t* wb = wpk + (g * blocks + b) * taps * lanes * 2;
        const std::int64_t m0 = b * lanes;
        const std::int64_t mb = std::min(lanes, mg - m0);
        std::int64_t* ob = o + (n * p.out_channels + g * mg + m0) * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::uint32_t* xrow = xp + oy * s * wp;
          for (std::int64_t ox = 0; ox < ow; ox += P) {
            pair_tile<P, Q>(xrow + ox * s, s, off.data(), taps, wb, res);
            const std::int64_t pb = std::min<std::int64_t>(P, ow - ox);
            for (std::int64_t m = 0; m < mb; ++m) {
              std::int64_t* orow = ob + (m * oh + oy) * ow + ox;
              for (std::int64_t i = 0; i < pb; ++i)
                orow[i] = res[i * lanes + m];
            }
          }
        }
      }
    }
  }
  return out;
}

// The int32 nest with the tile that fits the layer. A tile is 8, 16 or
// 24 output channels wide, whichever leaves the group's channels the
// fewest pad lanes, the wider on a tie; it spans 2 output pixels at 8
// channels and 1 otherwise. Timed on every conv layer of the served
// proxies, the width that fits a group's channels saved up to a third
// against a fixed 16, while 2-4 pixels at 8 wide, 2-3 at 16 and 2 at 24
// ran within a few percent of these (1 pixel at 8 wide ran slower).
Tensor<std::int64_t> int32_nest(const ConvLayerParams& p,
                                const Tensor<std::int16_t>& ifmaps,
                                const Tensor<std::int16_t>& kernels,
                                ArenaAllocator<std::int64_t> alloc) {
  const std::int64_t mg = p.out_channels_per_group();
  const auto padded = [mg](std::int64_t lanes) {
    return (mg + lanes - 1) / lanes * lanes;
  };
  std::int64_t lanes = 24;
  for (const std::int64_t narrower : {16, 8})
    if (padded(narrower) < padded(lanes)) lanes = narrower;
  if (lanes == 24) return pair_nest<1, 6>(p, ifmaps, kernels, std::move(alloc));
  if (lanes == 16) return pair_nest<1, 4>(p, ifmaps, kernels, std::move(alloc));
  return pair_nest<2, 2>(p, ifmaps, kernels, std::move(alloc));
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
                     std::int64_t max_abs_kernel) {
  CHAINNN_CHECK(max_abs_ifmap >= 0 && max_abs_ifmap <= 32768 &&
                max_abs_kernel >= 0 && max_abs_kernel <= 32768);
  const std::int64_t taps = p.channels_per_group() * p.kernel * p.kernel;
  const std::int64_t prod = max_abs_ifmap * max_abs_kernel;  // <= 2^30
  if (prod == 0) return true;  // all-zero operand: every sum is 0
  return taps <= std::numeric_limits<std::int32_t>::max() / prod;
}

Tensor<std::int64_t> conv2d_fixed_accum_dispatch(
    const ConvLayerParams& p, const Tensor<std::int16_t>& ifmaps,
    const Tensor<std::int16_t>& kernels, ConvDispatch* dispatch,
    ArenaAllocator<std::int64_t> alloc) {
  // No layer with more than one tap passes the bound at int16's
  // worst-case magnitudes, so the operands are always scanned.
  const bool fast = simd_kernel_enabled() &&
                    saturation_free(p, max_abs(ifmaps), max_abs(kernels));
  if (dispatch) dispatch->fast = fast;
  if (fast) return int32_nest(p, ifmaps, kernels, std::move(alloc));
  return conv2d_fixed_accum(p, ifmaps, kernels);
}

}  // namespace chainnn::nn
