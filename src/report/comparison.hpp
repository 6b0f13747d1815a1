// Paper-vs-measured comparison rows for the bench binaries: uniform
// formatting of reproduced values next to the published ones with a
// ratio (bench_fig9_layer_time prints its table this way).
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"

namespace chainnn::report {

class ComparisonTable {
 public:
  // `value_label` e.g. "time (ms)" or "traffic (MB)".
  explicit ComparisonTable(std::string title, std::string value_label);

  void add(const std::string& item, double paper, double measured);
  // For rows where the paper gives no number.
  void add_measured_only(const std::string& item, double measured);

  [[nodiscard]] std::string render() const;

  // Largest |measured/paper - 1| over the rows with paper values.
  [[nodiscard]] double worst_relative_error() const;

 private:
  struct Row {
    std::string item;
    bool has_paper = false;
    double paper = 0.0;
    double measured = 0.0;
  };
  std::string title_;
  std::string value_label_;
  std::vector<Row> rows_;
};

}  // namespace chainnn::report
