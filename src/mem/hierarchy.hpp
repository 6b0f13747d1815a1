// The Chain-NN memory sizes (Fig. 7 of the paper): iMemory and oMemory on
// the side of the chain, kMemory distributed into the PEs, and the word
// size of every access. Plans carry them (ExecutionPlan::memory) and both
// engines size their traffic from the plan's copy.
#pragma once

#include <cstdint>

namespace chainnn::mem {

struct HierarchyConfig {
  std::uint64_t imemory_bytes = 32 * 1024;   // §V.B: 32KB iMemory
  std::uint64_t omemory_bytes = 25 * 1024;   // §V.B: 25KB oMemory
  std::uint64_t kmemory_bytes = 295 * 1024;  // §V.B: 295KB over 576 PEs
  std::uint64_t word_bytes = 2;              // 16-bit datapath words
};

}  // namespace chainnn::mem
