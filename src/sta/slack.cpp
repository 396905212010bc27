#include "src/sta/slack.hpp"

#include "src/sta/sta.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

std::vector<StageSlack> stage_slacks(std::span<const Netlist* const> stages,
                                     const CellLibrary& lib,
                                     const OperatingTriad& op) {
  VOSIM_EXPECTS(!stages.empty());
  VOSIM_EXPECTS(op.tclk_ns > 0.0);
  // Judge against the capture edge the sequential simulator samples at.
  const double capture_ps = op.tclk_ns * 1e3 - lib.dff_setup_ps();
  std::vector<StageSlack> out;
  out.reserve(stages.size());
  for (std::size_t k = 0; k < stages.size(); ++k) {
    const TimingAnalysis ta = analyze_timing(*stages[k], lib, op);
    StageSlack s;
    s.stage = static_cast<int>(k);
    s.critical_path_ps = ta.critical_path_ps;
    s.slack_ps = capture_ps - ta.critical_path_ps;
    for (const double a : ta.output_arrival_ps)
      if (a > capture_ps) ++s.failing_outputs;
    out.push_back(s);
  }
  return out;
}

}  // namespace vosim
