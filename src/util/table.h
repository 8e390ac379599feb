// Plain-text table writer used by the benchmark binaries to print
// paper-style tables (Table 1, Fig. 7 series) to stdout and CSV.
#pragma once

#include <string>
#include <vector>

namespace mft {

/// Accumulates rows of string cells and renders them as an aligned
/// fixed-width text table, or as CSV for downstream plotting.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Render an aligned, pipe-separated text table.
  std::string to_text() const;

  /// Render RFC-4180-ish CSV (no quoting of commas needed for our data).
  std::string to_csv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mft
