// ASCII / markdown table rendering for the example binaries and the
// reproduction ledger: a common, aligned, diff-friendly presentation.
#pragma once

#include <string>
#include <vector>

namespace chainnn {

// A simple column-aligned text table. Cells are strings; callers format
// numbers with chainnn::strings helpers so each table controls precision.
class TextTable {
 public:
  // `title` is printed above the table; pass "" for none.
  explicit TextTable(std::string title = "") : title_(std::move(title)) {}

  // Sets the header row. Column count is fixed by the header.
  void set_header(std::vector<std::string> header);

  // Appends a data row; must match the header's column count (checked).
  void add_row(std::vector<std::string> row);

  // Inserts a horizontal separator before the next added row.
  void add_separator();

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }

  // Renders with box-drawing ASCII ('|', '-', '+').
  [[nodiscard]] std::string to_ascii() const;

  // Renders GitHub-flavoured markdown.
  [[nodiscard]] std::string to_markdown() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator_before = false;
  };

  [[nodiscard]] std::vector<std::size_t> column_widths() const;

  std::string title_;
  std::vector<std::string> header_;
  std::vector<Row> rows_;
  bool pending_separator_ = false;
};

}  // namespace chainnn
