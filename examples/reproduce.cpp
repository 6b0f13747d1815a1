// Reproduction status: prints report::fidelity_ledger() — every figure
// the paper prints next to the value this repo reproduces, their ratio,
// the row's tolerance and its cause — as one markdown table. README's
// "Reproduction status" section holds exactly this output.
//
//   ./reproduce
//
// Exits 1 (after naming them on stderr) if any row is out of tolerance,
// and 2 if given any argument: it takes none.
#include <cmath>
#include <iostream>

#include "report/comparison.hpp"

int main(int argc, char** argv) {
  if (argc > 1) {
    std::cerr << argv[0] << " takes no arguments\n";
    return 2;
  }
  const chainnn::report::ComparisonTable ledger =
      chainnn::report::fidelity_ledger();
  std::cout << ledger.render();
  bool ok = true;
  for (const auto& row : ledger.rows()) {
    if (row.within_tolerance()) continue;
    ok = false;
    std::cerr << "out of tolerance: " << row.figure << ": paper "
              << row.paper << ", reproduced " << row.reproduced
              << ", |ratio - 1| = " << std::fabs(row.ratio() - 1.0) << " > "
              << row.tolerance << "\n";
  }
  return ok ? 0 : 1;
}
