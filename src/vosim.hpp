// Umbrella header for the vosim library: voltage over-scaling
// characterization and statistical error modeling for approximate
// arithmetic operators (reproduction of Ragavan et al., DATE 2017).
//
// Typical flow:
//   1. build a DUT               (src/netlist/dut.hpp — adders,
//                                 multipliers, adder/MAC trees)
//   2. synthesize a report       (src/sta/synthesis_report.hpp)
//   3. derive the triad sweep    (src/characterize/triads.hpp)
//   4. characterize under VOS    (src/characterize/characterizer.hpp)
//   5. train one statistical     (src/model/vos_model.hpp —
//      model per triad            train_vos_model over the gate-level
//                                 oracle sim_batch_adder_fn,
//                                 src/apps/approx_arith.hpp)
//   6. run applications on them  (src/apps/*.hpp)
//   7. pipeline the operator     (src/seq/*.hpp — wrap_as_pipeline
//                                 registers a combinational DUT)
//   8. adapt triads at runtime   (src/runtime/closed_loop.hpp — Razor
//                                 flags walk the triad ladder)
//   9. scale to a fleet          (src/fleet/fleet.hpp — chip-instance
//                                 Monte-Carlo, sharded campaigns;
//                                 src/serve/server.hpp — sweep daemon)
#ifndef VOSIM_VOSIM_HPP
#define VOSIM_VOSIM_HPP

#include "src/apps/approx_arith.hpp"
#include "src/apps/dot.hpp"
#include "src/apps/fir.hpp"
#include "src/apps/image.hpp"
#include "src/apps/kmeans.hpp"
#include "src/campaign/report.hpp"
#include "src/campaign/runner.hpp"
#include "src/campaign/store.hpp"
#include "src/campaign/workload.hpp"
#include "src/characterize/characterizer.hpp"
#include "src/characterize/metrics.hpp"
#include "src/characterize/patterns.hpp"
#include "src/characterize/report.hpp"
#include "src/characterize/variability.hpp"
#include "src/characterize/triads.hpp"
#include "src/fleet/fleet.hpp"
#include "src/model/carry_chain.hpp"
#include "src/model/distance.hpp"
#include "src/model/evaluation.hpp"
#include "src/model/prob_table.hpp"
#include "src/model/segmented_model.hpp"
#include "src/model/trainer.hpp"
#include "src/model/vos_model.hpp"
#include "src/model/windowed_add.hpp"
#include "src/netlist/adder_tree.hpp"
#include "src/netlist/adders.hpp"
#include "src/netlist/dut.hpp"
#include "src/netlist/eval.hpp"
#include "src/netlist/optimize.hpp"
#include "src/netlist/approx_adders.hpp"
#include "src/netlist/multiplier.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/verilog.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/probe.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/closed_loop.hpp"
#include "src/runtime/triad_ladder.hpp"
#include "src/serve/server.hpp"
#include "src/seq/error_monitor.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_report.hpp"
#include "src/seq/seq_sim.hpp"
#include "src/seq/seq_vcd.hpp"
#include "src/sim/event_sim.hpp"
#include "src/sim/levelized_sim.hpp"
#include "src/sim/sim_engine.hpp"
#include "src/sim/vcd.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/slack.hpp"
#include "src/sta/sta.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/tech/cell.hpp"
#include "src/tech/gate_timing.hpp"
#include "src/tech/library.hpp"
#include "src/tech/operating_point.hpp"
#include "src/tech/transistor_model.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/fuzzy.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/util/table.hpp"

#endif  // VOSIM_VOSIM_HPP
