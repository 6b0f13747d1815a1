// 16-bit fixed-point arithmetic as implemented by the Chain-NN datapath.
//
// §IV.B: "each PE is in charge of a 16-bit fixed-point MAC operation".
// Operands (ifmap pixels, kernel weights, ofmap results) are signed 16-bit
// values in a Qm.n format; the partial-sum chain accumulates products in a
// wide accumulator (48 bits here) so no rounding happens inside a systolic
// primitive — only when a finished ofmap value is written back.
//
// The *format* (number of fraction bits) is a property of a tensor /
// layer, not of each scalar, mirroring hardware where the datapath moves
// raw bits and the interpretation lives in the compiler. Fixed16 is a raw
// 16-bit value; FixedFormat supplies conversions.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "common/check.hpp"

namespace chainnn::fixed {

// Rounding mode applied when narrowing (float->fixed, accumulator->fixed).
enum class Rounding {
  kNearestEven,  // round half to even (default; matches typical DC synthesis)
  kNearestUp,    // round half away from zero
  kTruncate,     // drop fraction bits (cheapest hardware)
};

// Saturation vs wraparound on overflow when narrowing.
enum class Overflow {
  kSaturate,  // clamp to representable range (what the RTL does)
  kWrap,      // two's-complement wraparound (for experiments)
};

// Describes a signed fixed-point format with `frac_bits` fraction bits in
// a 16-bit word: value = raw * 2^-frac_bits.
struct FixedFormat {
  int frac_bits = 8;

  [[nodiscard]] constexpr double scale() const {
    return static_cast<double>(1LL << frac_bits);
  }
  [[nodiscard]] constexpr double resolution() const { return 1.0 / scale(); }
  [[nodiscard]] constexpr double max_value() const {
    return 32767.0 / scale();
  }
  [[nodiscard]] constexpr double min_value() const {
    return -32768.0 / scale();
  }
  [[nodiscard]] std::string to_string() const;

  friend constexpr bool operator==(const FixedFormat&,
                                   const FixedFormat&) = default;
};

// A raw 16-bit fixed-point value. Trivially copyable; arithmetic that
// needs a format takes one explicitly.
class Fixed16 {
 public:
  constexpr Fixed16() = default;
  constexpr explicit Fixed16(std::int16_t raw) : raw_(raw) {}

  [[nodiscard]] constexpr std::int16_t raw() const { return raw_; }

  // Interprets the raw bits under `fmt`.
  [[nodiscard]] constexpr double to_double(FixedFormat fmt) const {
    return static_cast<double>(raw_) / fmt.scale();
  }

  // Exact 32-bit product of two 16-bit operands (the multiplier output in
  // the PE MAC). The product has 2*frac_bits fraction bits.
  [[nodiscard]] static constexpr std::int32_t multiply(Fixed16 a, Fixed16 b) {
    return static_cast<std::int32_t>(a.raw_) *
           static_cast<std::int32_t>(b.raw_);
  }

  friend constexpr bool operator==(Fixed16, Fixed16) = default;

 private:
  std::int16_t raw_ = 0;
};

// Statistics gathered while narrowing values (quantization telemetry the
// paper's float-to-fixed simulator produced to pick formats).
//
// `invalids` counts inputs with no fixed-point image (NaN), which
// quantize to 0; `saturations` counts out-of-range inputs (including
// ±Inf) clamped to the format limits. Non-finite inputs are excluded
// from the error accumulators so max_abs_error / mean_sq_error stay
// finite and meaningful.
struct NarrowingStats {
  std::uint64_t count = 0;
  std::uint64_t saturations = 0;
  std::uint64_t invalids = 0;  // NaN inputs mapped to 0
  double max_abs_error = 0.0;
  double sum_sq_error = 0.0;

  [[nodiscard]] double mean_sq_error() const {
    return count == 0 ? 0.0 : sum_sq_error / static_cast<double>(count);
  }
  void merge(const NarrowingStats& other);

  friend bool operator==(const NarrowingStats&,
                         const NarrowingStats&) = default;
};

// Converts `value` to raw fixed-point under `fmt` with the given rounding
// and overflow behaviour; updates `stats` if non-null.
//
// Non-finite inputs are well defined: NaN quantizes to 0 (counted in
// stats->invalids) and ±Inf saturates to the format limits (counted in
// stats->saturations). kNearestEven rounds half to even regardless of
// the process floating-point environment — a caller that has changed
// the fenv rounding mode (std::fesetround) gets the same raw words.
[[nodiscard]] std::int16_t quantize_scalar(double value, FixedFormat fmt,
                                           Rounding rounding,
                                           Overflow overflow,
                                           NarrowingStats* stats = nullptr);

// The 48-bit partial-sum accumulator of a systolic primitive.
//
// Products (32-bit, 2*frac_bits fraction) are summed exactly; hardware
// sizes the register so K²·C accumulations of 32-bit products cannot
// overflow 48 bits for supported layer shapes. Overflow is detected and
// saturated (and counted) rather than silently wrapped.
class Accumulator48 {
 public:
  static constexpr std::int64_t kMax = (1LL << 47) - 1;
  static constexpr std::int64_t kMin = -(1LL << 47);

  constexpr Accumulator48() = default;
  constexpr explicit Accumulator48(std::int64_t v) : value_(clamp(v)) {}

  [[nodiscard]] constexpr std::int64_t value() const { return value_; }
  [[nodiscard]] constexpr bool saturated() const { return saturated_; }

  // acc += a*b  (one MAC). Returns *this for chaining.
  Accumulator48& mac(Fixed16 a, Fixed16 b) {
    return add(Fixed16::multiply(a, b));
  }

  // acc += addend (e.g. merging a primitive's psum with oMemory contents).
  Accumulator48& add(std::int64_t addend) {
    const std::int64_t next = value_ + addend;  // |value_| ≤ 2^47, no UB
    if (next > kMax || next < kMin) {
      saturated_ = true;
      value_ = next > kMax ? kMax : kMin;
    } else {
      value_ = next;
    }
    return *this;
  }

  Accumulator48& add(const Accumulator48& other) {
    add(other.value_);
    saturated_ = saturated_ || other.saturated_;
    return *this;
  }

  // Narrows the accumulator (2*frac_bits fraction) back to a 16-bit value
  // with `fmt.frac_bits` fraction bits — the write-back requantization.
  [[nodiscard]] std::int16_t narrow(FixedFormat operand_fmt,
                                    FixedFormat out_fmt, Rounding rounding,
                                    Overflow overflow,
                                    NarrowingStats* stats = nullptr) const;

  friend constexpr bool operator==(const Accumulator48&,
                                   const Accumulator48&) = default;

 private:
  static constexpr std::int64_t clamp(std::int64_t v) {
    return v > kMax ? kMax : (v < kMin ? kMin : v);
  }

  std::int64_t value_ = 0;
  bool saturated_ = false;
};

// Shifts `v` right by `shift` bits with rounding `R`. `shift` may be
// negative (left shift, exact). The one definition of the rounding rules:
// the runtime-mode overload below and the plane write-back instantiate it.
template <Rounding R>
[[nodiscard]] constexpr std::int64_t shift_right_rounded(std::int64_t v,
                                                         int shift) {
  if (shift <= 0) {
    // Left shift; guard against overflow by clamping to int64 limits.
    const int left = -shift;
    if (left >= 63) return v >= 0 ? Accumulator48::kMax : Accumulator48::kMin;
    return v << left;
  }
  if (shift >= 63) return v < 0 ? -1 : 0;

  const std::int64_t floor_shifted = v >> shift;  // arithmetic shift
  if constexpr (R == Rounding::kTruncate) {
    // Dropping bits of a two's-complement value is an arithmetic shift,
    // i.e. floor.
    return floor_shifted;
  } else {
    const std::int64_t remainder = v - (floor_shifted << shift);
    const std::int64_t half = std::int64_t{1} << (shift - 1);
    if constexpr (R == Rounding::kNearestUp) {
      if (v >= 0) return floor_shifted + (remainder >= half ? 1 : 0);
      // Negative: round half away from zero.
      return floor_shifted + (remainder > half ? 1 : 0);
    } else {
      if (remainder > half) return floor_shifted + 1;
      if (remainder < half) return floor_shifted;
      // Exactly halfway: round to even.
      return (floor_shifted % 2 == 0) ? floor_shifted : floor_shifted + 1;
    }
  }
}

// Shifts `v` right by `shift` bits with the selected rounding. `shift` may
// be negative (left shift, exact).
[[nodiscard]] std::int64_t shift_right_rounded(std::int64_t v, int shift,
                                               Rounding rounding);

// Narrows a wide accumulator value carrying `acc_frac_bits` fraction bits
// into a 16-bit word with `out_fmt.frac_bits` fraction bits. This is the
// general write-back requantization (ifmap and kernel formats may differ,
// so the accumulator fraction count is their sum).
[[nodiscard]] std::int16_t narrow_to_fixed16(std::int64_t acc,
                                             int acc_frac_bits,
                                             FixedFormat out_fmt,
                                             Rounding rounding,
                                             Overflow overflow,
                                             NarrowingStats* stats = nullptr);

// The write-back of one ofmap plane: narrows `acc[i] + addend` for each
// of the `count` values into `out[i]`, saturating as the RTL does, and
// folds every narrowing into `stats`. `addend` is the channel's bias,
// already aligned to `acc_frac_bits`. The words and all five stats fields
// are bit-identical to calling narrow_to_fixed16 (Overflow::kSaturate) on
// each element in order: the stats are kept in locals but folded in
// element order.
void narrow_plane_to_fixed16(const std::int64_t* acc, std::int64_t count,
                             std::int64_t addend, int acc_frac_bits,
                             FixedFormat out_fmt, Rounding rounding,
                             std::int16_t* out, NarrowingStats& stats);

}  // namespace chainnn::fixed
