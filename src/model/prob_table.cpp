#include "src/model/prob_table.hpp"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "src/util/contracts.hpp"

namespace vosim {

CarryChainProbTable::CarryChainProbTable(int width) : width_(width) {
  VOSIM_EXPECTS(width >= 1 && width <= 63);
  const auto n = static_cast<std::size_t>(width) + 1;
  p_.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t l = 0; l < n; ++l) p_[l][l] = 1.0;
}

CarryChainProbTable CarryChainProbTable::from_counts(
    int width, const std::vector<std::vector<std::uint64_t>>& counts) {
  CarryChainProbTable t(width);
  const auto n = static_cast<std::size_t>(width) + 1;
  VOSIM_EXPECTS(counts.size() == n);
  for (std::size_t l = 0; l < n; ++l) {
    VOSIM_EXPECTS(counts[l].size() == n);
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      // Lower-triangular: the model never *extends* a chain.
      VOSIM_EXPECTS(k <= l || counts[l][k] == 0);
      total += counts[l][k];
    }
    if (total == 0) continue;  // keep the identity column
    for (std::size_t k = 0; k < n; ++k)
      t.p_[l][k] =
          static_cast<double>(counts[l][k]) / static_cast<double>(total);
  }
  return t;
}

double CarryChainProbTable::prob(int k, int l) const {
  VOSIM_EXPECTS(k >= 0 && k <= width_ && l >= 0 && l <= width_);
  return p_[static_cast<std::size_t>(l)][static_cast<std::size_t>(k)];
}

int CarryChainProbTable::sample(int cth, Rng& rng) const {
  VOSIM_EXPECTS(cth >= 0 && cth <= width_);
  const auto& col = p_[static_cast<std::size_t>(cth)];
  double u = rng.uniform();
  for (int k = 0; k <= cth; ++k) {
    u -= col[static_cast<std::size_t>(k)];
    if (u < 0.0) return k;
  }
  return cth;  // numerical remainder lands on the diagonal
}

double CarryChainProbTable::expected(int cth) const {
  VOSIM_EXPECTS(cth >= 0 && cth <= width_);
  const auto& col = p_[static_cast<std::size_t>(cth)];
  double e = 0.0;
  for (std::size_t k = 0; k < col.size(); ++k)
    e += static_cast<double>(k) * col[k];
  return e;
}

TextTable CarryChainProbTable::to_table(int precision) const {
  std::vector<std::string> header{"Cmax\\Cth"};
  for (int l = 0; l <= width_; ++l) header.push_back(std::to_string(l));
  TextTable t(header);
  for (int k = 0; k <= width_; ++k) {
    std::vector<std::string> row{std::to_string(k)};
    for (int l = 0; l <= width_; ++l)
      row.push_back(format_double(prob(k, l), precision));
    t.add_row(std::move(row));
  }
  return t;
}

void CarryChainProbTable::save(std::ostream& os) const {
  // max_digits10 so probabilities round-trip bit-exactly.
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "carry_chain_prob_table v1 " << width_ << "\n";
  for (int l = 0; l <= width_; ++l) {
    for (int k = 0; k <= width_; ++k) {
      if (k != 0) os << ' ';
      os << prob(k, l);
    }
    os << "\n";
  }
  os.precision(old_precision);
}

CarryChainProbTable CarryChainProbTable::load(std::istream& is) {
  std::string magic;
  std::string version;
  int width = 0;
  is >> magic >> version >> width;
  if (!is || magic != "carry_chain_prob_table" || version != "v1")
    throw std::runtime_error("bad carry-chain table header");
  CarryChainProbTable t(width);
  for (int l = 0; l <= width; ++l)
    for (int k = 0; k <= width; ++k) {
      double v = 0.0;
      is >> v;
      if (!is) throw std::runtime_error("truncated carry-chain table");
      t.p_[static_cast<std::size_t>(l)][static_cast<std::size_t>(k)] = v;
    }
  return t;
}

}  // namespace vosim
