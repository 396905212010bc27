// Dynamic speculation demo (paper Section V + ref. [17]): an adder that
// walks the characterized triad ladder at run time, the "accurate mode
// to approximate mode" switching the paper proposes. The adder runs as
// a registered single-stage pipeline, so its Razor pair (main sample at
// the capture edge, shadow sample once settled) flags timing errors and
// the closed-loop controller keeps the flagged-op rate under a floor.
#include <iostream>
#include <vector>

#include "src/vosim.hpp"

int main() {
  using namespace vosim;
  std::cout << "== adaptive voltage over-scaling ==\n";

  const CellLibrary& lib = make_fdsoi28_lvt();
  const DutNetlist adder = to_dut(build_rca(8));
  const SynthesisReport rep = synthesize_report(adder.netlist, lib);
  const SeqDut pipe = wrap_as_pipeline(adder);

  // Characterize the paper's 43-triad sweep on the registered adder,
  // then distill the Pareto ladder the controller will climb.
  const auto triads =
      make_paper_triads(AdderArch::kRipple, 8, rep.critical_path_ns);
  CharacterizeConfig ccfg;
  ccfg.num_patterns = 3000;
  const auto results = characterize_seq_dut(pipe, lib, triads, ccfg);
  const double base_fj = results[0].energy_per_op_fj;
  const auto ladder = build_triad_ladder(results);
  std::cout << "\nPareto triad ladder (" << ladder.size() << " rungs):\n";
  TextTable lt({"rung", "triad", "expected BER [%]", "E/cycle [fJ]"});
  for (std::size_t i = 0; i < ladder.size(); ++i)
    lt.add_row({std::to_string(i), triad_label(ladder[i].triad),
                format_double(ladder[i].expected_ber * 100.0, 2),
                format_double(ladder[i].energy_per_op_fj, 2)});
  lt.print(std::cout);

  // The floor is what a Razor pair observes: the share of operations
  // with any flagged bit, per 256-cycle window.
  ClosedLoopConfig cl;
  cl.op_error_margin = 0.20;
  cl.window_cycles = 256;
  cl.min_dwell_cycles = 256;
  // The unit runs on the die the ladder was characterized on.
  TimingSimConfig die;
  die.variation_sigma = ccfg.variation_sigma;
  die.variation_seed = ccfg.variation_seed;
  ClosedLoopSeqUnit unit(pipe, lib, ladder, cl, die);

  constexpr std::size_t kCycles = 20000;
  PatternStream patterns(8, 4242);
  std::vector<std::uint64_t> operands;
  operands.reserve(2 * kCycles);
  for (std::size_t c = 0; c < kCycles; ++c) {
    const OperandPair p = patterns.next();
    operands.push_back(p.a);
    operands.push_back(p.b);
  }
  std::vector<ClosedLoopCycleResult> cycles(kCycles);
  unit.run_batch(operands, kCycles, cycles);

  // Replay the trace: the BER the walk delivered, and each switch with
  // the flagged share of the stay it ended.
  ErrorAccumulator acc(pipe.output_width());
  std::size_t stay = 0;
  std::size_t stay_flagged = 0;
  std::cout << "\nworkload trace (switches only):\n";
  for (std::size_t c = 0; c < kCycles; ++c) {
    const ClosedLoopCycleResult& r = cycles[c];
    if (r.cycle.output_valid) acc.add(r.cycle.expected, r.cycle.captured);
    ++stay;
    if (r.cycle.razor_flags != 0) ++stay_flagged;
    if (r.action == SpeculationAction::kHold) continue;
    const std::size_t next =
        r.action == SpeculationAction::kStepDown ? r.rung + 1 : r.rung - 1;
    std::cout << "  cycle " << c << ": rung " << r.rung << " -> " << next
              << "  (now " << triad_label(ladder[next].triad) << "; "
              << format_double(100.0 * static_cast<double>(stay_flagged) /
                                   static_cast<double>(stay),
                               1)
              << "% of " << stay << " cycles flagged on rung " << r.rung
              << ")\n";
    stay = 0;
    stay_flagged = 0;
  }

  std::cout << "\nsummary after " << kCycles << " cycles:\n"
            << "  final triad      : "
            << triad_label(unit.current_triad()) << "\n"
            << "  quality floor    : "
            << format_double(cl.op_error_margin * 100.0, 0)
            << " % flagged ops per window\n"
            << "  workload BER     : "
            << format_double(acc.ber() * 100.0, 2)
            << " % (the paper's budget: 5%)\n"
            << "  mean energy/cycle: "
            << format_double(unit.mean_energy_fj(), 2) << " fJ ("
            << format_double(
                   energy_efficiency(unit.mean_energy_fj(), base_fj) *
                       100.0,
                   1)
            << "% saving vs nominal " << format_double(base_fj, 2)
            << " fJ)\n"
            << "  triad switches   : " << unit.controller().switches()
            << "\n";
  std::cout << "\nreading: measured timing errors, not a design-time"
               " prior, pick the rung — the controller settles on the"
               " cheapest one whose flagged-op rate stays under the"
               " floor, and backs off a rung that breaks it.\n";
  return 0;
}
