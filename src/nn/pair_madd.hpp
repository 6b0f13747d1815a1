// The pair multiply-add that feeds the int32 conv micro-kernel
// (nn/conv_kernel.cpp), in two bodies with one contract.
//
// A vector holds eight int16 lanes, read as four pairs. madd adds each
// pair's dot product to one int32 accumulator lane:
//
//   acc[j] += w[2j] * x[2j] + w[2j + 1] * x[2j + 1]     (j = 0 .. 3)
//
// The kernel loads w as four output channels' weights for two adjacent
// input channels, interleaved, and x as one pixel of those two channels
// broadcast to every pair, so one madd is two taps for four channels.
// That is SSE2's pmaddwd followed by paddd; SSE2 is the x86-64 baseline,
// so Sse2PairMadd is what the kernel runs there. PortablePairMadd is the
// same arithmetic in plain C++, for builds without SSE2. Both wrap modulo
// 2^32 where pmaddwd does (only all four operands at -2^15), but the
// kernel runs only where the int32 proof keeps every sum in range.
#pragma once

#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace chainnn::nn {

struct PortablePairMadd {
  struct I16x8 {
    std::int16_t lane[8];
  };
  struct I32x4 {
    std::int32_t lane[4];
  };

  static I32x4 zero() { return {}; }
  static I16x8 load(const std::int16_t* w) {
    I16x8 v;
    for (int i = 0; i < 8; ++i) v.lane[i] = w[i];
    return v;
  }
  // `pair` holds lane 0 in its low 16 bits and lane 1 in its high 16.
  static I16x8 broadcast(std::uint32_t pair) {
    I16x8 v;
    for (int j = 0; j < 4; ++j) {
      v.lane[2 * j] = static_cast<std::int16_t>(pair & 0xFFFFu);
      v.lane[2 * j + 1] = static_cast<std::int16_t>(pair >> 16);
    }
    return v;
  }
  static I32x4 madd(I32x4 acc, I16x8 w, I16x8 x) {
    for (int j = 0; j < 4; ++j) {
      const std::int64_t dot =
          std::int64_t{w.lane[2 * j]} * x.lane[2 * j] +
          std::int64_t{w.lane[2 * j + 1]} * x.lane[2 * j + 1];
      acc.lane[j] = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(acc.lane[j]) +
          static_cast<std::uint32_t>(dot));
    }
    return acc;
  }
  static void store(std::int32_t* out, I32x4 acc) {
    for (int j = 0; j < 4; ++j) out[j] = acc.lane[j];
  }
};

#if defined(__SSE2__)
struct Sse2PairMadd {
  using I16x8 = __m128i;
  using I32x4 = __m128i;

  static I32x4 zero() { return _mm_setzero_si128(); }
  // `w` is 16-byte aligned, so the load can fold into pmaddwd's memory
  // operand and a weight vector need not hold a register. The kernel's
  // weights come from ::operator new, at multiples of 16 bytes.
  static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= 16);
  static I16x8 load(const std::int16_t* w) {
    return _mm_load_si128(reinterpret_cast<const __m128i*>(w));
  }
  static I16x8 broadcast(std::uint32_t pair) {
    return _mm_set1_epi32(static_cast<std::int32_t>(pair));
  }
  static I32x4 madd(I32x4 acc, I16x8 w, I16x8 x) {
    return _mm_add_epi32(acc, _mm_madd_epi16(w, x));
  }
  static void store(std::int32_t* out, I32x4 acc) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), acc);
  }
};
using PairMadd = Sse2PairMadd;
#else
using PairMadd = PortablePairMadd;
#endif

}  // namespace chainnn::nn
