#include "src/util/table.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "src/util/contracts.hpp"

namespace vosim {

std::string format_double(double v, int prec) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(prec) << v;
  std::string s = os.str();
  // Trim trailing zeros but keep at least one decimal ("1.50" -> "1.5").
  if (s.find('.') != std::string::npos) {
    while (s.size() > 1 && s.back() == '0') s.pop_back();
    if (s.back() == '.') s.push_back('0');
  }
  return s;
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  VOSIM_EXPECTS(!header_.empty());
}

void TextTable::add_row(std::vector<std::string> row) {
  VOSIM_EXPECTS(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c)
      os << ' ' << std::setw(static_cast<int>(width[c])) << std::left
         << row[c] << " |";
    os << '\n';
  };

  print_row(header_);
  os << "|";
  for (std::size_t c = 0; c < header_.size(); ++c)
    os << std::string(width[c] + 2, '-') << "|";
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

void TextTable::print_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) os << ',';
      os << row[c];
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

std::string write_csv(const TextTable& table, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open CSV output file: " + path);
  table.print_csv(f);
  return path;
}

}  // namespace vosim
