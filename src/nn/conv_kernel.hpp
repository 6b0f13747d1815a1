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
// <= Accumulator48::kMax, no step of the scalar reference can clamp
// (kMin = -(kMax + 1), so checking against kMax covers both signs), the
// accumulation is plain int64 arithmetic — exact and associative — and
// a reassociated, vectorizable kernel produces bit-identical results.
//
// The static bound uses max|x| = max|w| = 2^15 (|int16| <= 32768), which
// admits every layer with T <= kMax / 2^30 = 131071 taps — all of
// AlexNet/VGG and far beyond. Layers that fail it get one cheap operand
// scan to tighten the bound with the tensors' real magnitudes; only if
// that also fails (saturation genuinely possible) does the dispatcher
// fall back to the exact scalar sticky-clamp path.
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
  bool fast = false;          // vectorized clamp-free kernel ran
  bool data_scanned = false;  // static bound failed; operand scan decided
};

// Conservative proof that no intermediate accumulation step of the
// scalar reference can saturate: taps * max_abs_ifmap * max_abs_kernel
// <= Accumulator48::kMax (evaluated by division so the product cannot
// itself overflow int64). Magnitudes default to the int16 worst case
// 2^15; pass scanned maxima to tighten the bound.
[[nodiscard]] bool saturation_free(const ConvLayerParams& p,
                                   std::int64_t max_abs_ifmap = 32768,
                                   std::int64_t max_abs_kernel = 32768);

// Clamp-free row-accumulation kernel. Bit-identical to
// conv2d_fixed_accum *provided* saturation_free() holds for the actual
// operands (each output's taps are accumulated in the same (c, ky, kx)
// order, and without saturation that order computes the same exact
// int64 sum). Callers should go through conv2d_fixed_accum_dispatch,
// which performs the proof; this entry point exists for the kernel
// micro-benchmark and the property tests.
// `alloc` sources the output surface (default: heap); the kernel writes
// every element (each row is zero-filled before accumulation), so the
// allocation is uninitialized.
[[nodiscard]] Tensor<std::int64_t> conv2d_fixed_accum_fast(
    const ConvLayerParams& p, const Tensor<std::int16_t>& ifmaps,
    const Tensor<std::int16_t>& kernels,
    ArenaAllocator<std::int64_t> alloc = {});

// Dispatcher used by the analytical engine: the fast kernel when the
// build enables it and the layer is provably saturation-free (static
// bound first, one operand scan to tighten if needed), else the exact
// scalar sticky-clamp reference. Always bit-identical to
// conv2d_fixed_accum. `dispatch`, if non-null, receives the routing
// decision for RunStats accounting.
// `alloc` is honoured on the fast path only (the scalar reference owns
// its allocation); results are bit-identical either way.
[[nodiscard]] Tensor<std::int64_t> conv2d_fixed_accum_dispatch(
    const ConvLayerParams& p, const Tensor<std::int16_t>& ifmaps,
    const Tensor<std::int16_t>& kernels, ConvDispatch* dispatch = nullptr,
    ArenaAllocator<std::int64_t> alloc = {});

}  // namespace chainnn::nn
