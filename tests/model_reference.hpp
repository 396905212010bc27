// Bit-serial references for the model's word arithmetic (DESIGN.md
// §14): one loop step per bit, straight from the carry-origin
// definitions, plus Algorithm 1's downward window scan. The library
// computes the same quantities from the carry words Y_d
// (src/model/carry_chain.hpp); these loops are the slower reference the
// tests hold it to. Also the test-local element-wise oracle adapter.
#ifndef VOSIM_TESTS_MODEL_REFERENCE_HPP
#define VOSIM_TESTS_MODEL_REFERENCE_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/model/distance.hpp"
#include "src/model/trainer.hpp"
#include "src/util/bits.hpp"

namespace vosim::reference {

/// A scalar rule f(a, b) as a batch oracle, applied in element order.
template <typename F>
BatchAdderFn elementwise(F f) {
  return [f](std::span<const std::uint64_t> a,
             std::span<const std::uint64_t> b,
             std::span<std::uint64_t> out) {
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = f(a[i], b[i]);
  };
}

/// Distance the carry entering bit position i has travelled (0 when no
/// carry enters bit i), for i = 0..width: the nearest generate below i
/// with an unbroken propagate run up to i.
inline std::vector<int> carry_travel_distances(std::uint64_t a,
                                               std::uint64_t b, int width) {
  std::vector<int> dist(static_cast<std::size_t>(width) + 1, 0);
  const std::uint64_t g = a & b;
  const std::uint64_t p = a ^ b;
  int origin = -1;  // nearest live generate below the current position
  for (int i = 0; i <= width; ++i) {
    if (origin >= 0) dist[static_cast<std::size_t>(i)] = i - origin;
    if (i == width) break;
    if (bit_of(g, i) != 0) {
      origin = i;  // a nearer carry source dominates
    } else if (bit_of(p, i) == 0) {
      origin = -1;  // kill: the carry dies here
    }
  }
  return dist;
}

/// Cth_max by one downward pass: a chain born at generate j is 1 + the
/// propagate run above j.
inline int max_carry_chain(std::uint64_t a, std::uint64_t b, int width) {
  const std::uint64_t g = a & b;
  const std::uint64_t p = a ^ b;
  int longest = 0;
  int run_above = 0;  // run length starting at bit i+1
  for (int i = width - 1; i >= 0; --i) {
    if (bit_of(g, i) != 0) longest = std::max(longest, 1 + run_above);
    run_above = (bit_of(p, i) != 0) ? run_above + 1 : 0;
  }
  return longest;
}

/// Segmented windowed addition by one upward pass: the carry into bit i
/// survives when its travel distance is at most the window of i's
/// segment (bounds as in segmented_windowed_add).
inline std::uint64_t segmented_windowed_add(std::uint64_t a, std::uint64_t b,
                                            int width,
                                            std::span<const int> bounds,
                                            std::span<const int> windows) {
  const std::uint64_t g = a & b;
  const std::uint64_t p = a ^ b;
  std::uint64_t result = 0;
  int origin = -1;
  std::size_t seg = 0;
  for (int i = 0; i <= width; ++i) {
    while (i >= bounds[seg + 1]) ++seg;
    const bool carry_in = origin >= 0 && (i - origin) <= windows[seg];
    if (i == width) {
      if (carry_in) result |= (1ULL << width);
      break;
    }
    const int pi = bit_of(p, i);
    if ((pi != 0) != carry_in) result |= (1ULL << i);
    if (bit_of(g, i) != 0) {
      origin = i;
    } else if (pi == 0) {
      origin = -1;
    }
  }
  return result;
}

/// windowed_add: one segment over the whole word.
inline std::uint64_t windowed_add(std::uint64_t a, std::uint64_t b,
                                  int width, int window) {
  const int bounds[] = {0, width + 1};
  return segmented_windowed_add(a, b, width, bounds, {&window, 1});
}

/// Longest carry travel into bits [lo, hi).
inline int max_chain_into_segment(std::uint64_t a, std::uint64_t b,
                                  int width, int lo, int hi) {
  const std::vector<int> dist = carry_travel_distances(a, b, width);
  int best = 0;
  for (int i = lo; i < hi; ++i)
    best = std::max(best, dist[static_cast<std::size_t>(i)]);
  return best;
}

/// Algorithm 1's inner step as the paper states it: C from Cth_max down
/// to 0, keeping the last window with dist <= best.
inline int best_window(std::uint64_t a, std::uint64_t b, int width,
                       std::uint64_t observed, DistanceMetric metric) {
  const int cth = max_carry_chain(a, b, width);
  double best = -1.0;
  int best_c = cth;
  for (int c = cth; c >= 0; --c) {
    const double d =
        distance(observed, windowed_add(a, b, width, c), width + 1, metric);
    if (best < 0.0 || d <= best) {
      best = d;
      best_c = c;
    }
  }
  return best_c;
}

}  // namespace vosim::reference

#endif  // VOSIM_TESTS_MODEL_REFERENCE_HPP
