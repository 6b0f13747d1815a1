#include "fixed/fixed16.hpp"

#include <cmath>

namespace chainnn::fixed {

std::string FixedFormat::to_string() const {
  return "Q" + std::to_string(15 - frac_bits) + "." +
         std::to_string(frac_bits);
}

void NarrowingStats::merge(const NarrowingStats& other) {
  count += other.count;
  saturations += other.saturations;
  invalids += other.invalids;
  if (other.max_abs_error > max_abs_error)
    max_abs_error = other.max_abs_error;
  sum_sq_error += other.sum_sq_error;
}

namespace {

// Saturates (or wraps) a wide integer into int16 range, counting the
// event in `saturations`.
std::int16_t saturate16(std::int64_t v, Overflow overflow,
                        std::uint64_t& saturations) {
  if (v > 32767 || v < -32768) {
    ++saturations;
    if (overflow == Overflow::kSaturate)
      return v > 0 ? std::int16_t{32767} : std::int16_t{-32768};
    // Wraparound: keep the low 16 bits, interpreted as two's complement.
    return static_cast<std::int16_t>(static_cast<std::uint16_t>(
        static_cast<std::uint64_t>(v) & 0xffffULL));
  }
  return static_cast<std::int16_t>(v);
}

// Folds one narrowing's error (the exact wide value minus the value its
// 16-bit word denotes) into the error accumulators. Both units are powers
// of two, so the two products are exact.
void fold_error(std::int64_t acc, double acc_unit, std::int16_t raw,
                double raw_unit, double& max_abs_error,
                double& sum_sq_error) {
  const double err = static_cast<double>(acc) * acc_unit -
                     static_cast<double>(raw) * raw_unit;
  const double abs_err = std::fabs(err);
  if (abs_err > max_abs_error) max_abs_error = abs_err;
  sum_sq_error += err * err;
}

template <Rounding R>
void narrow_plane(const std::int64_t* acc, std::int64_t count,
                  std::int64_t addend, int acc_frac_bits, FixedFormat out_fmt,
                  std::int16_t* out, NarrowingStats& stats) {
  const int shift = acc_frac_bits - out_fmt.frac_bits;
  const double acc_unit = std::ldexp(1.0, -acc_frac_bits);
  const double raw_unit = std::ldexp(1.0, -out_fmt.frac_bits);
  std::uint64_t saturations = stats.saturations;
  double max_abs_error = stats.max_abs_error;
  double sum_sq_error = stats.sum_sq_error;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t v = acc[i] + addend;
    const std::int16_t raw = saturate16(shift_right_rounded<R>(v, shift),
                                        Overflow::kSaturate, saturations);
    out[i] = raw;
    fold_error(v, acc_unit, raw, raw_unit, max_abs_error, sum_sq_error);
  }
  stats.count += static_cast<std::uint64_t>(count);
  stats.saturations = saturations;
  stats.max_abs_error = max_abs_error;
  stats.sum_sq_error = sum_sq_error;
}

// Round half to even without consulting the floating-point environment.
// std::nearbyint honours the fenv rounding mode, so a caller running
// under e.g. FE_DOWNWARD would silently change every quantized word.
// For |x| < 2^52, floor(x) and x - floor(x) are exact in double, so the
// tie test is exact; for |x| >= 2^52 every double is an integer already.
double round_half_to_even(double x) {
  const double f = std::floor(x);
  const double frac = x - f;
  if (frac > 0.5) return f + 1.0;
  if (frac < 0.5) return f;
  return std::fmod(f, 2.0) == 0.0 ? f : f + 1.0;
}

}  // namespace

std::int16_t quantize_scalar(double value, FixedFormat fmt,
                             Rounding rounding, Overflow overflow,
                             NarrowingStats* stats) {
  if (std::isnan(value)) {
    // NaN has no fixed-point image. nearbyint(NaN) stays NaN, both clamp
    // comparisons below are false, and casting NaN to int64 is undefined
    // behaviour — define the result as 0 and count the event instead.
    if (stats) {
      ++stats->count;
      ++stats->invalids;
    }
    return 0;
  }
  const double scaled = value * fmt.scale();
  double rounded = 0.0;
  switch (rounding) {
    case Rounding::kNearestEven:
      rounded = round_half_to_even(scaled);
      break;
    case Rounding::kNearestUp:
      rounded = std::round(scaled);
      break;
    case Rounding::kTruncate:
      // Hardware truncation drops fraction bits of the two's-complement
      // value, which is a floor, not round-toward-zero.
      rounded = std::floor(scaled);
      break;
  }
  // Clamp through a 64-bit value before saturation so huge floats — and
  // ±Inf, which survives the rounding above — are safe to cast.
  double clamped = rounded;
  if (clamped > 1e18) clamped = 1e18;
  if (clamped < -1e18) clamped = -1e18;
  const auto wide = static_cast<std::int64_t>(clamped);
  std::uint64_t saturations = 0;
  const std::int16_t raw = saturate16(wide, overflow, saturations);
  if (stats) {
    ++stats->count;
    stats->saturations += saturations;
    if (std::isfinite(value)) {
      const double err = value - static_cast<double>(raw) / fmt.scale();
      const double abs_err = std::fabs(err);
      if (abs_err > stats->max_abs_error) stats->max_abs_error = abs_err;
      stats->sum_sq_error += err * err;
    }
  }
  return raw;
}

std::int64_t shift_right_rounded(std::int64_t v, int shift,
                                 Rounding rounding) {
  switch (rounding) {
    case Rounding::kNearestEven:
      return shift_right_rounded<Rounding::kNearestEven>(v, shift);
    case Rounding::kNearestUp:
      return shift_right_rounded<Rounding::kNearestUp>(v, shift);
    case Rounding::kTruncate:
      break;
  }
  return shift_right_rounded<Rounding::kTruncate>(v, shift);
}

std::int16_t narrow_to_fixed16(std::int64_t acc, int acc_frac_bits,
                               FixedFormat out_fmt, Rounding rounding,
                               Overflow overflow, NarrowingStats* stats) {
  const int shift = acc_frac_bits - out_fmt.frac_bits;
  const std::int64_t shifted = shift_right_rounded(acc, shift, rounding);
  std::uint64_t saturations = 0;
  const std::int16_t raw = saturate16(shifted, overflow, saturations);
  if (stats) {
    ++stats->count;
    stats->saturations += saturations;
    fold_error(acc, std::ldexp(1.0, -acc_frac_bits), raw,
               std::ldexp(1.0, -out_fmt.frac_bits), stats->max_abs_error,
               stats->sum_sq_error);
  }
  return raw;
}

void narrow_plane_to_fixed16(const std::int64_t* acc, std::int64_t count,
                             std::int64_t addend, int acc_frac_bits,
                             FixedFormat out_fmt, Rounding rounding,
                             std::int16_t* out, NarrowingStats& stats) {
  switch (rounding) {
    case Rounding::kNearestEven:
      return narrow_plane<Rounding::kNearestEven>(
          acc, count, addend, acc_frac_bits, out_fmt, out, stats);
    case Rounding::kNearestUp:
      return narrow_plane<Rounding::kNearestUp>(acc, count, addend,
                                                acc_frac_bits, out_fmt, out,
                                                stats);
    case Rounding::kTruncate:
      break;
  }
  narrow_plane<Rounding::kTruncate>(acc, count, addend, acc_frac_bits,
                                    out_fmt, out, stats);
}

std::int16_t Accumulator48::narrow(FixedFormat operand_fmt,
                                   FixedFormat out_fmt, Rounding rounding,
                                   Overflow overflow,
                                   NarrowingStats* stats) const {
  // Accumulator carries 2*operand frac bits; move to out_fmt.frac_bits.
  return narrow_to_fixed16(value_, 2 * operand_fmt.frac_bits, out_fmt,
                           rounding, overflow, stats);
}

}  // namespace chainnn::fixed
