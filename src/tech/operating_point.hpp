// Operating triad (Tclk, Vdd, Vbb) — the paper's control knob for
// voltage over-scaling (Section III, Eq. 1).
#ifndef VOSIM_TECH_OPERATING_POINT_HPP
#define VOSIM_TECH_OPERATING_POINT_HPP

#include <compare>
#include <string>

namespace vosim {

/// One operating point of a circuit: clock period, supply voltage and
/// body-bias voltage. The paper writes triads as "Tclk,Vdd,Vbb" with
/// Vbb = ±2 denoting symmetric flip-well forward body-bias of 2 V.
struct OperatingTriad {
  double tclk_ns = 0.0;  ///< clock period in nanoseconds
  double vdd_v = 1.0;    ///< supply voltage in volts
  double vbb_v = 0.0;    ///< body-bias voltage in volts (>0 forward)

  friend auto operator<=>(const OperatingTriad&,
                          const OperatingTriad&) = default;
};

/// Paper-style label, e.g. "0.28,0.5,±2" (forward bias prints as ±|v|).
std::string triad_label(const OperatingTriad& t);

}  // namespace vosim

#endif  // VOSIM_TECH_OPERATING_POINT_HPP
