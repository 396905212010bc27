#include "src/sta/synthesis_report.hpp"

#include "src/sta/sta.hpp"
#include "src/tech/gate_timing.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

namespace {

/// Ratio of the signoff (reported) critical path to the typical-corner
/// one: slow process corner, on-chip variation and clock margins.
constexpr double kSignoffMargin = 1.55;
/// Average switching activity assumed for the power report.
constexpr double kActivity = 0.30;
/// Supply/bias of the report (Table II reports 1 V, no body bias).
constexpr double kVdd = 1.0;
constexpr double kVbb = 0.0;

}  // namespace

SynthesisReport synthesize_report(const Netlist& netlist,
                                  const CellLibrary& lib) {
  VOSIM_EXPECTS(netlist.finalized());
  SynthesisReport r;
  r.design = netlist.name();
  r.num_gates = static_cast<int>(netlist.num_gates());
  r.num_flops = static_cast<int>(netlist.primary_inputs().size() +
                                 netlist.primary_outputs().size());

  r.comb_area_um2 = netlist.cell_area_um2(lib);
  r.reg_area_um2 = lib.dff_area_um2() * r.num_flops;
  r.area_um2 = r.comb_area_um2 + r.reg_area_um2;

  const OperatingTriad op{0.0, kVdd, kVbb};
  const TimingAnalysis ta = analyze_timing(netlist, lib, op);
  r.tt_critical_path_ns = ta.critical_path_ps * 1e-3;
  r.critical_path_ns = r.tt_critical_path_ns * kSignoffMargin;

  // Power report at the synthesis clock (the reported critical path).
  const double tclk_ns = r.critical_path_ns;
  double switched_fj = 0.0;
  const std::vector<double> loads = netlist.compute_net_loads(lib);
  for (std::size_t n = 0; n < loads.size(); ++n)
    switched_fj += toggle_energy_fj(loads[n], kVdd);
  const double flop_fj = lib.dff_clock_energy_fj() * r.num_flops *
                         (kVdd * kVdd);
  // fJ per ns == µW.
  r.dynamic_power_uw = (kActivity * switched_fj + flop_fj) / tclk_ns;

  double leak_nw = netlist.cell_leakage_nw(lib) +
                   lib.dff_leakage_nw() * r.num_flops;
  leak_nw *= lib.transistor_model().leakage_scale(kVdd, kVbb);
  r.leakage_power_uw = leak_nw * 1e-3;
  r.total_power_uw = r.dynamic_power_uw + r.leakage_power_uw;
  return r;
}

}  // namespace vosim
