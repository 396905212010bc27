#include "src/tech/gate_timing.hpp"

#include "src/util/contracts.hpp"

namespace vosim {

double gate_delay_ps(const Cell& cell, double load_ff,
                     const TransistorModel& model, const OperatingTriad& op) {
  VOSIM_EXPECTS(load_ff >= 0.0);
  const double nominal_ps =
      cell.intrinsic_delay_ps + cell.drive_ps_per_ff * load_ff;
  return nominal_ps * model.delay_scale(op.vdd_v, op.vbb_v);
}

double toggle_energy_fj(double cap_ff, double vdd_v) {
  VOSIM_EXPECTS(cap_ff >= 0.0);
  // 1/2 C V^2: fF · V^2 = fJ.
  return 0.5 * cap_ff * vdd_v * vdd_v;
}

}  // namespace vosim
