// Per-gate delay and energy evaluation at an operating point.
#ifndef VOSIM_TECH_GATE_TIMING_HPP
#define VOSIM_TECH_GATE_TIMING_HPP

#include "src/tech/cell.hpp"
#include "src/tech/library.hpp"
#include "src/tech/operating_point.hpp"

namespace vosim {

/// Propagation delay of `cell` driving `load_ff` at operating point `op`:
/// (intrinsic + drive · load) · delay_scale(Vdd, Vbb), in picoseconds.
double gate_delay_ps(const Cell& cell, double load_ff,
                     const TransistorModel& model, const OperatingTriad& op);

/// Dynamic energy of one output toggle with total switched capacitance
/// `cap_ff` at supply `vdd_v`:  1/2 · C · Vdd², in femtojoules.
double toggle_energy_fj(double cap_ff, double vdd_v);

}  // namespace vosim

#endif  // VOSIM_TECH_GATE_TIMING_HPP
