// The carry-propagation probability table P(Cmax = k | Cth_max = l) —
// the paper's Table I object. Lower-triangular (a chain cannot complete
// further than its theoretical length) and column-stochastic.
#ifndef VOSIM_MODEL_PROB_TABLE_HPP
#define VOSIM_MODEL_PROB_TABLE_HPP

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/util/rng.hpp"
#include "src/util/table.hpp"

namespace vosim {

/// Conditional distribution of the *achieved* maximal carry chain given
/// the input pair's theoretical one. Indices run 0..width inclusive.
class CarryChainProbTable {
 public:
  /// Identity table (every chain completes) for a given adder width.
  explicit CarryChainProbTable(int width);

  /// Builds from raw counts[k][l]; empty columns become identity.
  static CarryChainProbTable from_counts(
      int width, const std::vector<std::vector<std::uint64_t>>& counts);

  int width() const noexcept { return width_; }

  /// P(Cmax = k | Cth_max = l).
  double prob(int k, int l) const;

  /// Samples Cmax for a given theoretical chain length.
  int sample(int cth, Rng& rng) const;

  /// Expected achieved chain length for a column.
  double expected(int cth) const;

  /// Table I-style rendering.
  TextTable to_table(int precision = 3) const;

  /// Plain-text serialization (round-trips with load()).
  void save(std::ostream& os) const;
  static CarryChainProbTable load(std::istream& is);

  friend bool operator==(const CarryChainProbTable&,
                         const CarryChainProbTable&) = default;

 private:
  int width_;
  /// p_[l][k]: column-major so sampling scans one contiguous column.
  std::vector<std::vector<double>> p_;
};

}  // namespace vosim

#endif  // VOSIM_MODEL_PROB_TABLE_HPP
