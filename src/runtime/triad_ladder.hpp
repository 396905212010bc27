// Triad ladder: the ordered menu of operating points the closed-loop
// controller (src/runtime/closed_loop.hpp) climbs between
// (safest/most expensive first, most aggressive/cheapest last).
#ifndef VOSIM_RUNTIME_TRIAD_LADDER_HPP
#define VOSIM_RUNTIME_TRIAD_LADDER_HPP

#include <vector>

#include "src/characterize/characterizer.hpp"

namespace vosim {

/// One rung: an operating point with its characterized statistics.
struct TriadRung {
  OperatingTriad triad;
  double expected_ber = 0.0;
  double energy_per_op_fj = 0.0;
};

/// Builds a Pareto-filtered ladder from characterization results:
/// rungs are sorted by energy descending; any triad that is both more
/// expensive and more error-prone than another is dropped.
std::vector<TriadRung> build_triad_ladder(
    const std::vector<TriadResult>& results);

}  // namespace vosim

#endif  // VOSIM_RUNTIME_TRIAD_LADDER_HPP
