#include "src/model/segmented_model.hpp"

#include <algorithm>
#include <array>

#include "src/model/carry_chain.hpp"
#include "src/model/distance.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

namespace {

void check_bounds(int width, const std::vector<int>& bounds) {
  VOSIM_EXPECTS(bounds.size() >= 2);
  VOSIM_EXPECTS(bounds.front() == 0);
  VOSIM_EXPECTS(bounds.back() == width + 1);
  for (std::size_t s = 1; s < bounds.size(); ++s)
    VOSIM_EXPECTS(bounds[s] > bounds[s - 1]);
}

/// The bits [lo, hi) of a word.
std::uint64_t bit_range(int lo, int hi) {
  return mask_n(hi) & ~mask_n(lo);
}

/// Distance restricted to the bits of one segment.
double segment_distance(std::uint64_t x, std::uint64_t y, int lo, int hi,
                        DistanceMetric metric) {
  const std::uint64_t m = bit_range(lo, hi);
  // Shift down so the MSE metric weighs segment-local significance.
  return distance((x & m) >> lo, (y & m) >> lo, hi - lo, metric);
}

/// The non-zero carry words Y_1..Y_Cth of a + b (carry_chain.hpp). Y_d
/// has no bit below d, so at most 63 of them are non-zero.
struct CarryWords {
  CarryWords(std::uint64_t a, std::uint64_t b) : p(a ^ b) {
    for (std::uint64_t y = first_carry_word(a, b); y != 0;
         y = next_carry_word(y, p))
      words[static_cast<std::size_t>(count++)] = y;
  }

  /// Longest travel of a carry entering `bits` (0 when none does).
  int longest_into(std::uint64_t bits) const {
    int d = count;
    while (d > 0 && (words[static_cast<std::size_t>(d - 1)] & bits) == 0)
      --d;
    return d;
  }

  /// The carries entering `bits` that travelled at most `window`
  /// positions.
  std::uint64_t within(int window, std::uint64_t bits) const {
    std::uint64_t carries = 0;
    for (int d = 0; d < std::min(window, count); ++d)
      carries |= words[static_cast<std::size_t>(d)];
    return carries & bits;
  }

  std::uint64_t p;  ///< propagate word a ^ b
  int count = 0;    ///< Cth_max
  std::array<std::uint64_t, max_word_bits> words{};  ///< [d - 1] = Y_d
};

}  // namespace

std::uint64_t segmented_windowed_add(std::uint64_t a, std::uint64_t b,
                                     int width,
                                     const std::vector<int>& bounds,
                                     const std::vector<int>& windows) {
  VOSIM_EXPECTS(width >= 1 && width <= max_word_bits);
  check_bounds(width, bounds);
  VOSIM_EXPECTS(windows.size() + 1 == bounds.size());
  const CarryWords cw(a, b);
  std::uint64_t carries = 0;
  for (std::size_t s = 0; s < windows.size(); ++s)
    carries |= cw.within(windows[s], bit_range(bounds[s], bounds[s + 1]));
  return cw.p ^ carries;
}

int max_chain_into_segment(std::uint64_t a, std::uint64_t b, int width,
                           int lo, int hi) {
  VOSIM_EXPECTS(width >= 1 && width <= max_word_bits);
  VOSIM_EXPECTS(lo >= 0 && hi > lo && hi <= width + 1);
  return CarryWords(a, b).longest_into(bit_range(lo, hi));
}

std::vector<int> equal_segments(int width, int num_segments) {
  VOSIM_EXPECTS(num_segments >= 1 && num_segments <= width + 1);
  std::vector<int> bounds;
  bounds.push_back(0);
  const int total = width + 1;
  for (int s = 1; s < num_segments; ++s)
    bounds.push_back(s * total / num_segments);
  bounds.push_back(total);
  return bounds;
}

SegmentedVosModel::SegmentedVosModel(int width, OperatingTriad triad,
                                     std::vector<int> bounds,
                                     std::vector<CarryChainProbTable> tables)
    : width_(width),
      triad_(triad),
      bounds_(std::move(bounds)),
      tables_(std::move(tables)) {
  check_bounds(width_, bounds_);
  VOSIM_EXPECTS(tables_.size() + 1 == bounds_.size());
  for (const CarryChainProbTable& t : tables_)
    VOSIM_EXPECTS(t.width() == width_);
}

const CarryChainProbTable& SegmentedVosModel::table(int segment) const {
  VOSIM_EXPECTS(segment >= 0 &&
                segment < static_cast<int>(tables_.size()));
  return tables_[static_cast<std::size_t>(segment)];
}

std::uint64_t SegmentedVosModel::add(std::uint64_t a, std::uint64_t b,
                                     Rng& rng) const {
  const CarryWords cw(a, b);
  std::uint64_t carries = 0;
  for (std::size_t s = 0; s < tables_.size(); ++s) {
    const std::uint64_t bits = bit_range(bounds_[s], bounds_[s + 1]);
    const int window = tables_[s].sample(cw.longest_into(bits), rng);
    carries |= cw.within(window, bits);
  }
  return cw.p ^ carries;
}

SegmentedVosModel train_segmented_model(int width,
                                        const OperatingTriad& triad,
                                        const BatchAdderFn& oracle,
                                        int num_segments,
                                        const TrainerConfig& config) {
  VOSIM_EXPECTS(width >= 1 && width <= max_word_bits);
  VOSIM_EXPECTS(config.num_patterns > 0);
  const std::vector<int> bounds = equal_segments(width, num_segments);
  const auto segments = static_cast<std::size_t>(num_segments);
  const auto n = static_cast<std::size_t>(width) + 1;
  std::vector<std::vector<std::vector<std::uint64_t>>> counts(
      segments, std::vector<std::vector<std::uint64_t>>(
                    n, std::vector<std::uint64_t>(n, 0)));

  PatternStream patterns(width, config.pattern_seed);
  observe_stream(
      patterns, config.num_patterns, oracle,
      [&](const OperandPair& pat, std::uint64_t observed) {
        const CarryWords cw(pat.a, pat.b);
        for (std::size_t s = 0; s < segments; ++s) {
          // Inner Algorithm-1 loop, restricted to this segment's bits:
          // the other segments' windows do not affect them, so a single
          // global window sweep finds the segment's optimum. Upward with
          // the first strict minimum, as in trainer.cpp.
          const int lo = bounds[s];
          const int hi = bounds[s + 1];
          const int cth = cw.longest_into(bit_range(lo, hi));
          std::uint64_t carries = 0;
          double best =
              segment_distance(observed, cw.p, lo, hi, config.metric);
          int best_c = 0;
          for (int d = 1; d <= cth; ++d) {
            carries |= cw.words[static_cast<std::size_t>(d - 1)];
            const double dist = segment_distance(
                observed, cw.p ^ carries, lo, hi, config.metric);
            if (dist < best) {
              best = dist;
              best_c = d;
            }
          }
          ++counts[s][static_cast<std::size_t>(cth)]
                  [static_cast<std::size_t>(best_c)];
        }
      });

  std::vector<CarryChainProbTable> tables;
  tables.reserve(segments);
  for (std::size_t s = 0; s < segments; ++s)
    tables.push_back(CarryChainProbTable::from_counts(width, counts[s]));
  return SegmentedVosModel(width, triad, bounds, std::move(tables));
}

}  // namespace vosim
