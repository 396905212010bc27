// Closed-loop VOS on a clocked pipeline, end to end: build pipe2-mul8,
// characterize a small ladder, then let the controller walk it from
// measured Razor rates while an open-loop baseline pins the
// guard-banded rung. See DESIGN.md §10.
#include <iostream>

#include "src/vosim.hpp"

int main() {
  using namespace vosim;
  const CellLibrary& lib = make_fdsoi28_lvt();
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  const double cp = seq_critical_path_ns(seq, lib);
  std::cout << seq.display_name << ": " << seq.num_stages()
            << " stages, " << seq.num_gates() << " gates, "
            << seq.num_flops() << " flops, pipeline CP "
            << format_double(cp, 3) << " ns\n";

  // Characterize a short ladder on the levelized clocked path.
  CharacterizeConfig cfg;
  cfg.num_patterns = 500;
  cfg.engine = EngineKind::kLevelized;
  const std::vector<OperatingTriad> triads = {
      {1.5 * cp, 1.0, 0.0},  // guard-banded signoff point
      {0.8 * cp, 0.8, 2.0}, {0.8 * cp, 0.6, 2.0},
      {0.8 * cp, 0.5, 2.0}, {0.6 * cp, 0.4, 2.0}};
  const auto results = characterize_seq_dut(seq, lib, triads, cfg);
  std::vector<TriadRung> ladder = build_triad_ladder(results);
  if (!(ladder.front().triad == triads[0]))
    ladder.insert(ladder.begin(),
                  TriadRung{triads[0], results[0].ber,
                            results[0].energy_per_op_fj});

  ClosedLoopConfig cl;
  cl.op_error_margin = 0.05;
  cl.window_cycles = 128;
  cl.min_dwell_cycles = 128;
  // The unit runs on the die the ladder was characterized on.
  TimingSimConfig sim_cfg;
  sim_cfg.variation_sigma = cfg.variation_sigma;
  sim_cfg.variation_seed = cfg.variation_seed;
  sim_cfg.engine = EngineKind::kLevelized;
  ClosedLoopSeqUnit unit(seq, lib, ladder, cl, sim_cfg);

  Rng rng(7);
  std::uint64_t flagged = 0;
  const int cycles = 4000;
  for (int c = 0; c < cycles; ++c) {
    const auto r = unit.step_cycle(rng() & 0xFF, rng() & 0xFF);
    if (r.cycle.razor_flags != 0) ++flagged;
  }
  const double baseline = ladder.front().energy_per_op_fj;
  std::cout << "ladder rungs: " << ladder.size() << ", final rung "
            << unit.controller().rung() << " ("
            << triad_label(unit.current_triad()) << "), switches "
            << unit.controller().switches() << "\n"
            << "Razor-flagged cycles: " << flagged << "/" << cycles
            << " (floor " << format_double(cl.op_error_margin * 100, 0)
            << "%)\n"
            << "mean energy " << format_double(unit.mean_energy_fj(), 1)
            << " fJ/cycle vs guard-banded "
            << format_double(baseline, 1) << " fJ/cycle ("
            << format_double(
                   100.0 * (1.0 - unit.mean_energy_fj() / baseline), 1)
            << "% saved)\n";
  return 0;
}
