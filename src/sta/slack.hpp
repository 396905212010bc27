// Per-stage slack of a pipelined datapath at an operating triad: each
// stage's critical path against the shared clock's capture edge, and
// how many of its outputs miss that edge. `vosim_cli synth` prints it
// for pipelines (through seq_stage_slacks, src/seq/seq_report.hpp).
#ifndef VOSIM_STA_SLACK_HPP
#define VOSIM_STA_SLACK_HPP

#include <span>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/tech/operating_point.hpp"

namespace vosim {

/// Timing of one pipeline stage at a triad (see src/seq): the stage's
/// critical path against the shared clock's capture edge.
struct StageSlack {
  int stage = 0;
  double critical_path_ps = 0.0;  ///< worst output arrival in the stage
  double slack_ps = 0.0;  ///< Tclk − t_setup − critical path
  int failing_outputs = 0;        ///< outputs that miss the capture edge
};

/// Per-stage slack report of a multi-stage datapath sharing one clock:
/// every netlist is analyzed at the triad's voltage and judged against
/// the capture edge Tclk − t_setup (the library's flop setup — the
/// same edge the clocked simulator samples at, so the stage this
/// report names as failing first is the stage whose Razor monitors
/// fire first). The minimum slack names the stage the closed-loop
/// controller watches.
std::vector<StageSlack> stage_slacks(std::span<const Netlist* const> stages,
                                     const CellLibrary& lib,
                                     const OperatingTriad& op);

}  // namespace vosim

#endif  // VOSIM_STA_SLACK_HPP
