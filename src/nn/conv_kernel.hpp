// Vectorized fixed-point convolution with a proven saturation-free fast
// path.
//
// conv2d_fixed_accum (nn/golden.cpp) applies Accumulator48's sticky
// 48-bit saturation after every MAC, which defeats autovectorization:
// the compiler may not reassociate a chain of clamped additions. But
// saturation is a property the layer can be *proven* free of before
// running it: with T = channels_per_group * K * K taps per output and
// operand magnitudes bounded by max|x| and max|w|, every intermediate
// partial sum satisfies |sum| <= T * max|x| * max|w|. If that bound is
// <= 2^31 - 1, every partial sum fits in an int32 lane, and since 2^31 is
// far below Accumulator48::kMax no step of the scalar reference clamps
// either: the accumulation is plain integer arithmetic — exact and
// associative — and a reassociated, vectorized kernel produces
// bit-identical results.
//
// The fast kernel runs Chain-NN's own dataflow: the kernels stay put and
// each ifmap pixel is broadcast against the weights of many output
// channels at once. It takes input channels in pairs, so one pair
// multiply-add (nn/pair_madd.hpp: SSE2's pmaddwd, or its plain C++ twin)
// does two taps for four output channels. A tile of 1-2 output pixels x
// 8, 16 or 24 output channels holds its int32 accumulators in registers
// across every tap, fed by weights packed per call as interleaved channel
// pairs and by a zero-padded, pair-interleaved copy of the input. A pair
// sum is a partial sum of at most T products, so the int32 proof covers
// it.
//
// The bound at int16's worst case (max|x| = max|w| = 2^15) admits only
// one-tap layers, so the dispatcher always scans both operands for their
// real magnitudes (O(ifmap + weights), against O(outputs * taps) MACs).
// It runs the micro-kernel when the scanned bound holds, and the exact
// scalar sticky-clamp reference otherwise.
//
// The CHAINNN_SIMD CMake knob (default ON) gates the dispatcher; OFF
// forces the scalar path everywhere so the two configurations can be
// diffed end to end (CI builds both).
#pragma once

#include <cstdint>

#include "nn/conv_params.hpp"
#include "tensor/tensor.hpp"

namespace chainnn::nn {

// Whether the library was built with the vectorized fast path enabled
// (CHAINNN_SIMD=ON). When false, conv2d_fixed_accum_dispatch always
// takes the scalar reference.
[[nodiscard]] bool simd_kernel_enabled();

// How one conv2d_fixed_accum_dispatch call was routed.
struct ConvDispatch {
  bool fast = false;  // the int32 micro-kernel ran
};

// Proof that int32 accumulation of the layer is exact: taps *
// max_abs_ifmap * max_abs_kernel <= 2^31 - 1 (evaluated by division so
// the product cannot itself overflow int64), so no partial sum leaves an
// int32 lane and the scalar reference never saturates. Magnitudes are
// those of int16 operands, 0 to 32768.
[[nodiscard]] bool saturation_free(const ConvLayerParams& p,
                                   std::int64_t max_abs_ifmap,
                                   std::int64_t max_abs_kernel);

// Dispatcher used by the analytical engine: the int32 micro-kernel when
// the build enables it and the scanned operands prove it exact, else the
// exact scalar sticky-clamp reference. Always bit-identical to
// conv2d_fixed_accum. `dispatch`, if non-null, receives the routing
// decision (the benchmark's replay reports it, and the tests assert it).
// `alloc` sources the micro-kernel's output surface and scratch (the
// scalar reference owns its allocation); results are bit-identical
// either way.
[[nodiscard]] Tensor<std::int64_t> conv2d_fixed_accum_dispatch(
    const ConvLayerParams& p, const Tensor<std::int16_t>& ifmaps,
    const Tensor<std::int16_t>& kernels, ConvDispatch* dispatch = nullptr,
    ArenaAllocator<std::int64_t> alloc = {});

}  // namespace chainnn::nn
