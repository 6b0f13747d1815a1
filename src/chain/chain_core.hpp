// Register-level model of the 1D chain (§IV.A-C).
//
// Microarchitecture modelled per PE (Fig. 6):
//   * two ifmap forwarding channels (OddIF / EvenIF), two registers per
//     PE per channel — the retimed ("vertical cuts", §IV.B) pipeline
//     needs the data path two-slow relative to the psum path;
//   * a multiplexer selecting which channel feeds the MAC each cycle
//     (period-2*K_r schedule, see StripPattern::mux_select);
//   * a kMemory register-file slice holding the PE's stationary weights
//     (one word per resident kernel x channel x phase), plus the active
//     weight register feeding the multiplier;
//   * a 16x16 multiplier and 48-bit psum adder, one psum register per PE.
//
// Simulation note: primitive q's computation is identical to primitive
// 0's delayed by 2*q*T cycles (its channel taps sit 2*q*T registers
// deeper). The simulator evaluates all primitives phase-aligned — the
// outputs are the same values and the constant chain delay is charged
// analytically (the drain term of dataflow::layer_cycles) — which keeps
// the per-cycle work at O(active PEs) with a short tap history instead
// of a 2*576-deep one.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/scan_pattern.hpp"
#include "common/check.hpp"
#include "fixed/fixed16.hpp"

namespace chainnn::chain {

// History of values entering one ifmap channel, supporting taps at fixed
// register depths (age 2p for PE position p).
class ChannelRing {
 public:
  explicit ChannelRing(std::int64_t max_age);

  // Pushes the value entering the channel this cycle.
  void push(std::int16_t v);

  // Value that entered `age` cycles ago (age 0 = this cycle's input).
  [[nodiscard]] std::int16_t tap(std::int64_t age) const;

  void reset();

 private:
  std::vector<std::int16_t> buf_;
  std::int64_t head_ = 0;      // index of the most recent entry
  std::int64_t pushed_ = 0;    // total values pushed
};

// One dual-channel PE: stationary-weight MAC stage of a primitive.
struct Pe {
  // kMemory slice: one word per (channel-in-tile x phase); index
  // c_local * n_subs + sub.
  std::vector<std::int16_t> kmemory;
  std::int16_t weight = 0;     // active weight register (kernel operand)
  std::int64_t psum = 0;       // psum register (48-bit in hardware)
  std::int64_t psum_next = 0;
};

// A group of `taps_phys` adjacent PEs computing one 2D convolution as a
// 1D systolic pipeline (§IV.B). Sub-kernels with fewer taps than
// taps_phys use a prefix of the PEs; the rest carry zero weights.
class SystolicPrimitive {
 public:
  SystolicPrimitive(std::int64_t taps_phys, std::int64_t kmem_words_per_pe);

  [[nodiscard]] std::int64_t taps_phys() const {
    return static_cast<std::int64_t>(pes_.size());
  }
  [[nodiscard]] Pe& pe(std::int64_t p) { return pes_[p]; }
  [[nodiscard]] const Pe& pe(std::int64_t p) const { return pes_[p]; }

  // Writes `w` into PE p's kMemory word `word` (kernel loading).
  void load_kmemory(std::int64_t p, std::int64_t word, std::int16_t w);

  // Latches weights for a pass: PE p (p < taps_used) reads its kMemory
  // word `word`; the remaining PEs get weight 0. Returns the number of
  // kMemory reads performed.
  std::int64_t latch_weights(std::int64_t taps_used, std::int64_t word);

  // Compute phase of one cycle: every PE forms
  //   psum_next[p] = (p == 0 ? 0 : psum[p-1]) + weight[p] * x[p]
  // with x[p] taken from the channel selected by the pattern's mux
  // schedule at register depth 2p.
  void compute(const StripPattern& pattern, std::int64_t slot,
               const ChannelRing& ch0, const ChannelRing& ch1);

  // Commit phase: psum registers advance.
  void commit();

  // Psum leaving the last PE (after step(slot) it holds window
  // t = slot - (taps_phys - 1); the caller decodes validity via
  // StripPattern::completion_at).
  [[nodiscard]] std::int64_t output() const { return pes_.back().psum; }

  void reset_psums();

 private:
  std::vector<Pe> pes_;
};

// The full chain: two shared ifmap channels plus P primitives evaluated
// phase-aligned (see header comment).
class SystolicChain {
 public:
  SystolicChain(std::int64_t primitives, std::int64_t taps_phys,
                std::int64_t kmem_words_per_pe);

  [[nodiscard]] std::int64_t num_primitives() const {
    return static_cast<std::int64_t>(prims_.size());
  }
  [[nodiscard]] SystolicPrimitive& primitive(std::int64_t q) {
    return prims_[q];
  }

  // Latches pass weights in every primitive; returns total kMemory reads.
  std::int64_t latch_weights(std::int64_t taps_used, std::int64_t word);

  // Advances one cycle: pushes the two channel inputs, computes and
  // commits every primitive. `slot` is the pass-local stream slot.
  void step(const StripPattern& pattern, std::int64_t slot, std::int16_t in0,
            std::int16_t in1);

  // Output of primitive q this cycle.
  [[nodiscard]] std::int64_t output(std::int64_t q) const {
    return prims_[q].output();
  }

  // Clears channel history and psums (between passes).
  void reset_pass_state();

 private:
  std::vector<SystolicPrimitive> prims_;
  ChannelRing ch0_;
  ChannelRing ch1_;
};

}  // namespace chainnn::chain
