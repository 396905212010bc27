// Ablation (ours): energy accounting inside the clock window vs until
// quiescence. The windowed accounting (what a pipeline really pays)
// produces the super-quadratic savings and the taper of the paper's
// Fig. 8 energy curves; charging all transitions flattens that effect.
// This isolates DESIGN.md decision §6.3.
#include <iostream>

#include "bench/bench_common.hpp"
#include "src/netlist/eval.hpp"
#include "src/sim/event_sim.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/util/bits.hpp"
#include "src/util/table.hpp"

int main() {
  using namespace vosim;
  using namespace vosim::bench;
  print_header(
      "Ablation — clock-window energy accounting vs full-settle",
      "DESIGN.md §6.3 / paper Fig. 8 energy taper");

  const CellLibrary& lib = make_fdsoi28_lvt();
  const AdderNetlist rca = build_rca(8);
  const SynthesisReport rep = synthesize_report(rca.netlist, lib);
  const std::size_t patterns =
      std::min<std::size_t>(pattern_budget(), 8000);

  TextTable t({"triad", "BER [%]", "window E [fJ]", "settle E [fJ]",
               "window/settle", "window EE [%]", "settle EE [%]"});
  double base_window = 0.0;
  double base_settle = 0.0;
  for (const double vdd : {1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4}) {
    const OperatingTriad triad{rep.critical_path_ns, vdd, 0.0};
    TimingSimulator sim(rca.netlist, lib, triad);
    // Drive the raw simulator so both energies are visible.
    std::vector<std::uint8_t> inputs(
        rca.netlist.primary_inputs().size(), 0);
    Rng rng(23);
    std::uint64_t bit_errors = 0;
    double window_e = 0.0;
    double settle_e = 0.0;
    for (std::size_t i = 0; i < patterns; ++i) {
      const std::uint64_t a = rng.bits(8);
      const std::uint64_t b = rng.bits(8);
      for (int k = 0; k < 8; ++k) {
        inputs[static_cast<std::size_t>(k)] =
            static_cast<std::uint8_t>((a >> k) & 1u);
        inputs[static_cast<std::size_t>(8 + k)] =
            static_cast<std::uint8_t>((b >> k) & 1u);
      }
      const StepResult r = sim.step(inputs);
      window_e += r.window_energy_fj;
      settle_e += r.total_energy_fj;
      bit_errors += static_cast<std::uint64_t>(
          hamming_distance(pack_word(sim.sampled_values(),
                                     rca.sum),
                           a + b, 9));
    }
    window_e /= static_cast<double>(patterns);
    settle_e /= static_cast<double>(patterns);
    if (vdd == 1.0) {
      base_window = window_e;
      base_settle = settle_e;
    }
    t.add_row(
        {triad_label(triad),
         format_double(100.0 * static_cast<double>(bit_errors) /
                           (static_cast<double>(patterns) * 9.0),
                       2),
         format_double(window_e, 2), format_double(settle_e, 2),
         format_double(window_e / settle_e, 3),
         format_double((1.0 - window_e / base_window) * 100.0, 1),
         format_double((1.0 - settle_e / base_settle) * 100.0, 1)});
  }
  t.print(std::cout);
  write_csv(t, "ablation_energywindow.csv");
  std::cout << "\nreading: at 0% BER both accountings agree (ratio 1); past"
               " the error cliff the window accounting drops extra energy"
               " because truncated carry chains never switch — the source"
               " of the paper's >quadratic savings at deep VOS.\n"
            << "CSV: ablation_energywindow.csv\n";
  return 0;
}
