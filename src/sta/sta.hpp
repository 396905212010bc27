// Static timing analysis at an operating point.
//
// Provides per-net arrival times and critical-path extraction; the
// characterization flow uses it to pick clock periods (Table III) and the
// calibration tests use it to cross-check the event-driven simulator.
#ifndef VOSIM_STA_STA_HPP
#define VOSIM_STA_STA_HPP

#include <span>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/tech/operating_point.hpp"

namespace vosim {

/// Result of a timing analysis run.
struct TimingAnalysis {
  /// Worst-case arrival time per net (ps); primary inputs arrive at 0.
  std::vector<double> arrival_ps;
  /// Latest primary-output arrival (ps) — the critical path delay.
  double critical_path_ps = 0.0;
  /// Nets on the critical path, input to output order.
  std::vector<NetId> critical_nets;
  /// Arrival time of each primary output, in primary-output order (ps).
  std::vector<double> output_arrival_ps;
};

/// Longest-path analysis with the library delay model scaled to `op`.
/// Only the voltage part of the triad matters here (Tclk is a constraint,
/// not an input to arrival times).
TimingAnalysis analyze_timing(const Netlist& netlist, const CellLibrary& lib,
                              const OperatingTriad& op);

/// Worst-case arrival time per net when the per-gate delays are supplied
/// externally, e.g. with a process-variation sample applied (the same
/// "die" the simulators use): primary inputs arrive at 0 and
/// arrival[gate.out] = max over gate inputs + gate_delay_ps[gate].
/// `gate_delay_ps` must have one entry per gate. This is the arrival
/// model the levelized simulation backend latches stale values against
/// (src/sim/levelized_sim.hpp).
std::vector<double> arrival_times_ps(const Netlist& netlist,
                                     std::span<const double> gate_delay_ps);

}  // namespace vosim

#endif  // VOSIM_STA_STA_HPP
