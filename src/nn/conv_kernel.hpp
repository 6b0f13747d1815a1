// Vectorized fixed-point convolution with proven saturation-free fast
// paths.
//
// conv2d_fixed_accum (nn/golden.cpp) applies Accumulator48's sticky
// 48-bit saturation after every MAC, which defeats autovectorization:
// the compiler may not reassociate a chain of clamped additions. But
// saturation is a property the layer can be *proven* free of before
// running it: with T = channels_per_group * K * K taps per output and
// operand magnitudes bounded by max|x| and max|w|, every intermediate
// partial sum satisfies |sum| <= T * max|x| * max|w|. If that bound is
// <= a limit L, every partial sum fits in [-L, L]. With L =
// Accumulator48::kMax no step of the scalar reference can clamp (kMin =
// -(kMax + 1), so checking against kMax covers both signs), the
// accumulation is plain int64 arithmetic — exact and associative — and
// a reassociated, vectorizable kernel produces bit-identical results.
// With L = 2^31 - 1 the same holds in int32 lanes, twice as many per
// vector; since 2^31 is far below kMax, the reference never clamps
// either.
//
// Both fast kernels run Chain-NN's own dataflow: the kernels stay put
// and each ifmap pixel is broadcast against the weights of many output
// channels at once. The int32 micro-kernel takes input channels in
// pairs, so one pair multiply-add (nn/pair_madd.hpp: SSE2's pmaddwd, or
// its plain C++ twin) does two taps for four output channels. A tile of
// 1-2 output pixels x 8, 16 or 24 output channels holds its int32
// accumulators in registers across every tap, fed by weights packed per
// call as interleaved channel pairs and by a zero-padded, pair-
// interleaved copy of the input. A pair sum is a partial sum of at most
// T products, so the int32 proof covers it. The int64 nest keeps a
// block of up to 128 output channels resident and accumulates an output
// row's [ox][m] tile in memory, two input rows per pass.
//
// The int32 bound at int16's worst case (max|x| = max|w| = 2^15) admits
// only one-tap layers, so the dispatcher always scans both operands for
// their real magnitudes (O(ifmap + weights), against O(outputs * taps)
// MACs). It runs the int32 micro-kernel when the scanned bound holds
// for 2^31 - 1, else the int64 nest when the 48-bit bound holds — statically
// (T <= kMax / 2^30 = 131071 taps, all of AlexNet/VGG and far beyond) or
// with the scanned magnitudes — and only when saturation is genuinely
// possible the exact scalar sticky-clamp path.
//
// The CHAINNN_SIMD CMake knob (default ON) gates the dispatcher; OFF
// forces the scalar path everywhere so the two configurations can be
// diffed end to end (CI builds both).
#pragma once

#include <cstdint>

#include "fixed/fixed16.hpp"
#include "nn/conv_params.hpp"
#include "tensor/tensor.hpp"

namespace chainnn::nn {

// Whether the library was built with the vectorized fast path enabled
// (CHAINNN_SIMD=ON). When false, conv2d_fixed_accum_dispatch always
// takes the scalar reference.
[[nodiscard]] bool simd_kernel_enabled();

// How one conv2d_fixed_accum_dispatch call was routed.
struct ConvDispatch {
  bool fast = false;          // a vectorized clamp-free nest ran
  bool data_scanned = false;  // static 48-bit bound failed; scan decided
  bool int32 = false;         // the fast nest accumulated in int32
};

// Conservative proof that no partial sum of the layer leaves [-limit,
// limit]: taps * max_abs_ifmap * max_abs_kernel <= limit (evaluated by
// division so the product cannot itself overflow int64). The default
// limit, Accumulator48::kMax, proves the scalar reference never
// saturates; 2^31 - 1 proves int32 accumulation exact. Magnitudes
// default to the int16 worst case 2^15; pass scanned maxima to tighten
// the bound.
[[nodiscard]] bool saturation_free(
    const ConvLayerParams& p, std::int64_t max_abs_ifmap = 32768,
    std::int64_t max_abs_kernel = 32768,
    std::int64_t limit = fixed::Accumulator48::kMax);

// The clamp-free output-channel nest with int64 accumulators.
// Bit-identical to conv2d_fixed_accum *provided* saturation_free() holds
// for the actual operands (the taps are summed in another order, and
// without saturation every order computes the same exact int64 sum).
// Callers should go through conv2d_fixed_accum_dispatch, which performs
// the proof and picks the int32 micro-kernel when it can; this entry
// point lets the property tests pin the int64 nest on its own.
// `alloc` sources the output surface and the call's scratch (one block's
// transposed kernels and one output row's accumulators; default: heap);
// the kernel writes every output element, so the allocation is
// uninitialized.
[[nodiscard]] Tensor<std::int64_t> conv2d_fixed_accum_fast(
    const ConvLayerParams& p, const Tensor<std::int16_t>& ifmaps,
    const Tensor<std::int16_t>& kernels,
    ArenaAllocator<std::int64_t> alloc = {});

// Dispatcher used by the analytical engine: the int32 micro-kernel when
// the build enables it and the scanned operands prove int32 exact, else the
// int64 nest when the layer is provably saturation-free, else the exact
// scalar sticky-clamp reference. Always bit-identical to
// conv2d_fixed_accum. `dispatch`, if non-null, receives the routing
// decision (the benchmark's replay and bench_micro report it).
// `alloc` is honoured on the fast paths only (the scalar reference owns
// its allocation); results are bit-identical either way.
[[nodiscard]] Tensor<std::int64_t> conv2d_fixed_accum_dispatch(
    const ConvLayerParams& p, const Tensor<std::int16_t>& ifmaps,
    const Tensor<std::int16_t>& kernels, ConvDispatch* dispatch = nullptr,
    ArenaAllocator<std::int64_t> alloc = {});

}  // namespace chainnn::nn
