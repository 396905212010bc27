// Synthesis-style reporting (area / power / critical path), reproducing
// the kind of numbers in the paper's Table II. The reported critical
// path includes a signoff pessimism margin over the typical corner —
// the paper notes that "EDA tools introduce additional timing margin in
// the datapaths during STA due to clock path pessimism" (Section III);
// that margin is exactly why mild voltage over-scaling is error-free.
#ifndef VOSIM_STA_SYNTHESIS_REPORT_HPP
#define VOSIM_STA_SYNTHESIS_REPORT_HPP

#include <string>

#include "src/netlist/netlist.hpp"
#include "src/tech/operating_point.hpp"

namespace vosim {

/// The numbers a synthesis tool would report for a registered operator.
struct SynthesisReport {
  std::string design;
  int num_gates = 0;
  int num_flops = 0;  ///< registered inputs + outputs
  double comb_area_um2 = 0.0;
  double reg_area_um2 = 0.0;
  double area_um2 = 0.0;  ///< total
  double dynamic_power_uw = 0.0;
  double leakage_power_uw = 0.0;
  double total_power_uw = 0.0;
  double tt_critical_path_ns = 0.0;  ///< typical-corner (event-sim truth)
  double critical_path_ns = 0.0;     ///< reported, includes signoff margin
};

/// Runs STA + area/power accounting on a finalized netlist at 1 V, no
/// body bias (Table II's corner), with a 1.55x signoff margin and 30%
/// average switching activity.
SynthesisReport synthesize_report(const Netlist& netlist,
                                  const CellLibrary& lib);

}  // namespace vosim

#endif  // VOSIM_STA_SYNTHESIS_REPORT_HPP
