// Configuration of a Chain-NN accelerator instance.
#pragma once

#include <memory>
#include <string_view>

#include "dataflow/array_shape.hpp"
#include "fixed/fixed16.hpp"
#include "mem/hierarchy.hpp"
#include "tensor/arena.hpp"

namespace chainnn::chain {

// How a layer is executed.
enum class ExecMode {
  // Register-level simulation: the LayerController drives the systolic
  // chain slot by slot. Ground truth for cycles and traffic; slow.
  kCycleAccurate,
  // Analytical fast path: wide accumulators come from the dispatched MAC
  // kernel (nn/conv_kernel.hpp), a separate computation proven and tested
  // bit-identical to the golden fixed-point model, and staged ones from
  // staged_reference; cycles and per-level traffic from the plan's closed
  // forms — which the test suite proves equal the measured counts of the
  // cycle-accurate controller. Orders of magnitude faster; use it for
  // sweeps, DSE and full-network profiling.
  kAnalytical,
};

[[nodiscard]] constexpr const char* exec_mode_name(ExecMode m) {
  return m == ExecMode::kAnalytical ? "analytical" : "cycle-accurate";
}

// Parses "analytical" / "cycle-accurate" (also "cycle"); returns true on
// success. Used by the --exec-mode flags of the bench/example binaries.
[[nodiscard]] constexpr bool parse_exec_mode(std::string_view name,
                                             ExecMode* out) {
  if (name == "analytical") {
    *out = ExecMode::kAnalytical;
    return true;
  }
  if (name == "cycle-accurate" || name == "cycle") {
    *out = ExecMode::kCycleAccurate;
    return true;
  }
  return false;
}

// How oMemory stores partial sums between accumulation passes.
enum class PsumStorage {
  // 48-bit accumulators kept exactly across passes (verification mode —
  // matches the wide golden model bit for bit regardless of pass order).
  kWide,
  // 16-bit partials in psum format, requantized after every pass — the
  // hardware behaviour implied by Table IV's oMemory traffic (2 bytes per
  // partial access). Matches the wide result whenever the psum format has
  // enough headroom (tests pin both regimes).
  kStaged16,
};

struct AcceleratorConfig {
  dataflow::ArrayShape array;
  mem::HierarchyConfig memory;

  fixed::FixedFormat ifmap_fmt{8};
  fixed::FixedFormat kernel_fmt{8};
  // Format of staged partials and of the final 16-bit ofmaps.
  fixed::FixedFormat psum_fmt{8};
  fixed::FixedFormat ofmap_fmt{8};
  fixed::Rounding rounding = fixed::Rounding::kNearestEven;

  PsumStorage psum_storage = PsumStorage::kWide;

  // Execution engine. The analytical fast path returns bit-identical
  // ofmaps and identical cycle/traffic totals (pinned by the exec-mode
  // equivalence sweep in tests/chain/test_exec_mode.cpp).
  ExecMode exec_mode = ExecMode::kCycleAccurate;

  // Pooled allocator for the run's ofmap surfaces (and the runner's
  // copies of them), which results hold; the accumulators live for one
  // layer and come from the heap. Semantics-free — results are
  // bit-identical with or without it; nullptr allocates from the heap as
  // before. Travels with config copies, so an accelerator built from a
  // copy shares the pool.
  std::shared_ptr<TensorArena> arena;
};

}  // namespace chainnn::chain
