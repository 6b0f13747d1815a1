// Deterministic pseudo-random generation for tests, synthetic weights and
// activations.
//
// Uses SplitMix64 for seeding and xoshiro256** for the stream — small,
// fast, reproducible across platforms (unlike std::normal_distribution,
// whose output is implementation-defined; we ship our own Box-Muller).
#pragma once

#include <cstdint>
#include <cmath>

#include "common/check.hpp"

namespace chainnn {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
    have_cached_gauss_ = false;
  }

  // Uniform 64-bit value (xoshiro256**).
  [[nodiscard]] std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  [[nodiscard]] double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  // Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    CHAINNN_CHECK(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
    return lo + static_cast<std::int64_t>(next_u64() % span);
  }

  // Standard normal via Box-Muller (deterministic across platforms).
  [[nodiscard]] double gaussian() {
    if (have_cached_gauss_) {
      have_cached_gauss_ = false;
      return cached_gauss_;
    }
    double u1 = next_double();
    double u2 = next_double();
    if (u1 < 1e-300) u1 = 1e-300;
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double two_pi = 6.283185307179586476925286766559;
    cached_gauss_ = mag * std::sin(two_pi * u2);
    have_cached_gauss_ = true;
    return mag * std::cos(two_pi * u2);
  }

  // Normal with given mean / stddev.
  [[nodiscard]] double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  bool have_cached_gauss_ = false;
  double cached_gauss_ = 0.0;
};

}  // namespace chainnn
