// Waveform dump of one strip pass — the debugging view an RTL engineer
// gets from simulating the chain: per-cycle channel inputs, per-PE mux
// selects and the primitive's psum outputs, written as a VCD document.
#pragma once

#include <cstdint>
#include <string>

#include "chain/scan_pattern.hpp"
#include "tensor/tensor.hpp"

namespace chainnn::chain {

// Runs a single primitive over `strip` ({rows, cols} raw pixels) with the
// given scan-ordered kernel ({K_r, K_c}) and returns the VCD text with
// signals:
//   streamer.ch0_in / ch1_in  — channel head inputs
//   pe<i>.sel                 — multiplexer select
//   primitive.psum_out        — final psum register
//   primitive.window_valid    — collector valid decode
[[nodiscard]] std::string dump_pass_vcd(const StripPattern& pattern,
                                        const Tensor<std::int16_t>& strip,
                                        const Tensor<std::int16_t>& kernel);

}  // namespace chainnn::chain
