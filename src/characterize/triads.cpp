#include "src/characterize/triads.hpp"

#include "src/netlist/dut.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

std::vector<double> paper_tclk_ratios(AdderArch arch, int width) {
  // Table III, normalized to each benchmark's synthesis critical path:
  //   8-bit RCA : 0.5, 0.28, 0.19, 0.13   (/0.28)
  //   8-bit BKA : 0.5, 0.19, 0.13, 0.064  (/0.19)
  //   16-bit RCA: 0.7, 0.53, 0.25, 0.20   (/0.53)
  //   16-bit BKA: 0.7, 0.25, 0.20, 0.15   (/0.25)
  if (arch == AdderArch::kBrentKung && width >= 16)
    return {2.80, 1.0, 0.80, 0.60};
  if (arch == AdderArch::kBrentKung)
    return {2.632, 1.0, 0.684, 0.337};
  if (width >= 16) return {1.321, 1.0, 0.472, 0.377};
  return {1.786, 1.0, 0.679, 0.464};
}

std::vector<double> paper_vdd_steps() {
  return {1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4};
}

std::vector<double> paper_vbb_steps() { return {0.0, 2.0}; }

std::vector<OperatingTriad> make_triad_set(
    const std::vector<double>& tclk_ns) {
  VOSIM_EXPECTS(tclk_ns.size() >= 2);
  for (double t : tclk_ns) VOSIM_EXPECTS(t > 0.0);
  std::vector<OperatingTriad> out;
  out.push_back(OperatingTriad{tclk_ns.front(), 1.0, 0.0});
  for (std::size_t k = 1; k < tclk_ns.size(); ++k)
    for (const double vdd : paper_vdd_steps())
      for (const double vbb : paper_vbb_steps())
        out.push_back(OperatingTriad{tclk_ns[k], vdd, vbb});
  // 1 + 3·7·2 == 43 for the paper's four-period sets.
  return out;
}

std::vector<OperatingTriad> make_paper_triads(AdderArch arch, int width,
                                              double synthesis_cp_ns) {
  VOSIM_EXPECTS(synthesis_cp_ns > 0.0);
  std::vector<double> tclk;
  for (const double r : paper_tclk_ratios(arch, width))
    tclk.push_back(r * synthesis_cp_ns);
  return make_triad_set(tclk);
}

std::vector<OperatingTriad> make_dut_triads(double synthesis_cp_ns) {
  VOSIM_EXPECTS(synthesis_cp_ns > 0.0);
  const double ratios[] = {1.5, 1.0, 0.8, 0.6};
  std::vector<double> tclk;
  for (const double r : ratios) tclk.push_back(r * synthesis_cp_ns);
  return make_triad_set(tclk);
}

std::vector<OperatingTriad> make_circuit_triads(const DutNetlist& dut,
                                                double synthesis_cp_ns) {
  if (const auto adder = exact_adder_of(dut.kind))
    return make_paper_triads(adder->first, adder->second, synthesis_cp_ns);
  return make_dut_triads(synthesis_cp_ns);
}

}  // namespace vosim
