// Console table and CSV rendering for benchmark harness output.
//
// Every bench binary prints the paper's rows with TextTable and can dump
// the same data as CSV for plotting.
#ifndef VOSIM_UTIL_TABLE_HPP
#define VOSIM_UTIL_TABLE_HPP

#include <ostream>
#include <string>
#include <vector>

namespace vosim {

/// Formats a double with `prec` significant decimals, trimming a bare ".".
std::string format_double(double v, int prec = 3);

/// Column-aligned text table with a header row, markdown-ish separators.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Adds a row; it must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  std::size_t row_count() const noexcept { return rows_.size(); }

  /// Renders with padded columns, `|` separators and a dashed rule.
  void print(std::ostream& os) const;

  /// Renders as CSV (no padding, comma separated, header first).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Writes a CSV file; throws std::runtime_error if the file cannot be
/// opened. Returns the path for logging convenience.
std::string write_csv(const TextTable& table, const std::string& path);

}  // namespace vosim

#endif  // VOSIM_UTIL_TABLE_HPP
