// Table I reproduction: the carry-propagation probability table
// P(Cmax | Cth_max) of a modified 4-bit adder. The paper's Table I shows
// the *template* (lower-triangular, column-stochastic); here we print an
// actual table trained with Algorithm 1 against the timing simulator at
// a voltage-over-scaled triad, plus the template structure check.
#include <iostream>

#include "bench/bench_common.hpp"
#include "src/apps/approx_arith.hpp"
#include "src/model/trainer.hpp"
#include "src/model/vos_model.hpp"
#include "src/netlist/dut.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/util/table.hpp"

int main() {
  using namespace vosim;
  using namespace vosim::bench;
  print_header(
      "Table I — Carry propagation probability table, modified 4-bit adder",
      "paper Table I (template) + Section IV Algorithm 1");

  const CellLibrary& lib = make_fdsoi28_lvt();
  const DutNetlist rca = to_dut(build_rca(4));
  const double cp = synthesize_report(rca.netlist, lib).critical_path_ns;

  // A mid-VOS triad: deep enough that long chains truncate.
  const OperatingTriad triad{cp, 0.62, 0.0};
  std::cout << "triad: " << triad_label(triad) << "  (Tclk = synthesis CP)\n";

  VosDutSim sim(rca, lib, triad);
  TrainerConfig cfg;
  cfg.num_patterns = pattern_budget();
  const CarryChainProbTable table =
      train_carry_table(4, sim_batch_adder_fn(sim), cfg);

  const TextTable t = table.to_table(3);
  t.print(std::cout);
  write_csv(t, "table1_prob_table.csv");

  // Structural checks mirroring the paper's template.
  bool lower_triangular = true;
  for (int l = 0; l <= 4; ++l)
    for (int k = l + 1; k <= 4; ++k)
      if (table.prob(k, l) != 0.0) lower_triangular = false;
  std::cout << "\nlower-triangular (P(k|l)=0 for k>l): "
            << (lower_triangular ? "yes" : "NO") << "\n";
  std::cout << "column expectations E[Cmax|Cth]:";
  for (int l = 0; l <= 4; ++l)
    std::cout << " " << format_double(table.expected(l), 2);
  std::cout << "\nCSV: table1_prob_table.csv\n";
  return 0;
}
