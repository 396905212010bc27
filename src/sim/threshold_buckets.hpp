// Exact O(1) threshold bucketing for the levelized engine's grid sweep
// (DESIGN.md §7, grid fast path).
//
// step_batch_sweep files every commit under the first capture threshold
// it misses: its bucket is the number of thresholds <= the commit time,
// the index std::upper_bound returns over the ascending threshold set.
// The table divides [0, largest threshold] into kCells uniform cells and
// stores the bucket at each cell's start. A lookup takes its cell's
// entry b and steps it until thr[b-1] <= t < thr[b] holds. In a sorted
// set exactly one index satisfies both inequalities, the upper_bound
// one, whatever entry the steps start from: rounding in the cell
// arithmetic can cost a step, never the result. tests/test_sim_engine.cpp
// holds the lookup to std::upper_bound.
//
// Internal: included by levelized_sim.{hpp,cpp} and its tests only.
#ifndef VOSIM_SIM_THRESHOLD_BUCKETS_HPP
#define VOSIM_SIM_THRESHOLD_BUCKETS_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/util/contracts.hpp"

namespace vosim {

class ThresholdBuckets {
 public:
  /// Uniform cells over [0, largest threshold].
  static constexpr std::size_t kCells = 4096;

  /// Thresholds the table was built for (empty before the first build).
  std::size_t size() const noexcept { return thr_.size(); }

  /// True when the table serves exactly these thresholds.
  bool built_for(std::span<const double> thresholds) const {
    return std::equal(thresholds.begin(), thresholds.end(), thr_.begin(),
                      thr_.end());
  }

  /// One linear pass over the cells; `thresholds` ascend and the
  /// largest is positive.
  void build(std::span<const double> thresholds) {
    VOSIM_EXPECTS(!thresholds.empty() && thresholds.back() > 0.0);
    VOSIM_EXPECTS(thresholds.size() <
                  std::numeric_limits<std::uint32_t>::max());
    VOSIM_EXPECTS(std::is_sorted(thresholds.begin(), thresholds.end()));
    thr_.assign(thresholds.begin(), thresholds.end());
    scale_ = static_cast<double>(kCells) / thr_.back();
    const double width = thr_.back() / static_cast<double>(kCells);
    cell_.resize(kCells + 1);
    std::uint32_t b = 0;
    for (std::size_t c = 0; c < kCells; ++c) {
      const double start = static_cast<double>(c) * width;
      while (b < thr_.size() && thr_[b] <= start) ++b;
      cell_[c] = b;
    }
    // The cell past the grid starts at the largest threshold.
    cell_[kCells] = static_cast<std::uint32_t>(thr_.size());
  }

  /// The number of thresholds <= t: std::upper_bound's index. Times
  /// past the grid, and NaN, start from the cell past it.
  std::size_t bucket(double t) const {
    const double x = t * scale_;
    const std::size_t c = !(x < static_cast<double>(kCells))
                              ? kCells
                              : (x > 0.0 ? static_cast<std::size_t>(x) : 0);
    std::size_t b = cell_[c];
    const std::size_t n = thr_.size();
    while (b < n && thr_[b] <= t) ++b;
    while (b > 0 && thr_[b - 1] > t) --b;
    return b;
  }

 private:
  std::vector<double> thr_;
  std::vector<std::uint32_t> cell_;  // kCells + 1 entries
  double scale_ = 0.0;               // cells per ps
};

}  // namespace vosim

#endif  // VOSIM_SIM_THRESHOLD_BUCKETS_HPP
