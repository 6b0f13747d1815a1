// The reproduction ledger: every figure the paper prints
// (paper_constants.hpp) next to the value this repo reproduces, their
// ratio, a tolerance on |ratio - 1| and a one-line cause.
//
// Reproduced values come from the code the engines run: the closed forms
// of dataflow::layer_cycles / model_traffic / utilization_row on the
// default ArrayShape (tests/chain/test_exec_mode.cpp pins them to the
// cycle-accurate simulator), the calibrated energy, area and timing
// models, and the two baseline models. None comes from the idealized
// ExecutionPlan::paper_model_* view.
//
// Rows the models predict come first (Table II, Fig. 9, Table IV, §V.C,
// Fig. 5); the rest restate an input, and their cause begins with
// "configured:" or "calibrated:". Each tolerance is the tightest round
// bound (1, 1.5, 2, 3, ..., 9 x 10^n; 1e-9 for exact rows) that held when
// the row was set, so a schedule change that moves a figure out of it
// must restate the row. examples/reproduce prints the ledger, README's
// "Reproduction status" section holds that output, and
// tests/report/test_comparison.cpp checks both.
#pragma once

#include <string>
#include <vector>

namespace chainnn::report {

class ComparisonTable {
 public:
  struct Row {
    std::string figure;  // where the paper prints it, with the unit
    double paper = 0.0;
    double reproduced = 0.0;
    double tolerance = 0.0;  // bound on |reproduced / paper - 1|
    std::string cause;

    [[nodiscard]] double ratio() const { return reproduced / paper; }
    [[nodiscard]] bool within_tolerance() const;
  };

  // Throws if `row.paper` is zero (the ratio would be undefined).
  void add(Row row);

  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

  // One GitHub-flavoured markdown table, a line per row.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<Row> rows_;
};

// One row per distinct figure of paper_constants.hpp (a figure the paper
// prints twice, such as Table V's Chain-NN column, has one row), plus
// Fig. 5's K-fold single-channel claim on AlexNet conv2 and conv3.
[[nodiscard]] ComparisonTable fidelity_ledger();

}  // namespace chainnn::report
