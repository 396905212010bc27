// Fleet-scale Monte-Carlo bench: a population of chip instances (die
// corners drawn from FleetConfig) each running the pipe2-mul8
// closed-loop controller over a shared workload stream. The ladder is
// characterized once on the nominal die; the per-chip serving phase is
// what a sharded campaign parallelizes across processes.
//
// Machine-readable lines:
//   FLEET_CHIPS                population size
//   FLEET_THROUGHPUT           chips/sec of the serving phase (shared
//                              pool, default jobs) — gated >= 20 in
//                              run_benches.sh's gate table
//   FLEET_PARALLEL_EFFICIENCY  serial-serve time / (threads x parallel
//                              serve time): the in-process analogue of
//                              the multi-process shard efficiency
//                              run_benches.sh measures (fleet_shard)
//   FLEET_ENERGY_SPREAD_PCT    (max-min)/mean of per-chip energy — the
//                              fleet answer a fixed guard band hides
#include <algorithm>
#include <iostream>

#include "bench/bench_common.hpp"
#include "src/characterize/report.hpp"
#include "src/fleet/fleet.hpp"
#include "src/util/parallel.hpp"

int main() {
  using namespace vosim;
  using namespace vosim::bench;
  print_header("Fleet campaign — chip-instance Monte-Carlo",
               "die-to-die corners over the closed-loop ladder");

  const CellLibrary& lib = make_fdsoi28_lvt();

  FleetStudyConfig cfg;
  cfg.circuit = "pipe2-mul8";
  cfg.fleet.num_chips = std::max<std::size_t>(32, pattern_budget() / 8);
  cfg.ladder_patterns = pattern_budget();
  cfg.cycles = std::max<std::size_t>(1024, pattern_budget() * 4);
  cfg.control.op_error_margin = 0.05;
  cfg.control.window_cycles = 128;
  cfg.control.min_dwell_cycles = 128;

  // Warm-up + serial reference: jobs=1 serves every chip on the
  // submitting thread, giving the single-worker baseline the
  // efficiency figure is measured against.
  cfg.jobs = 1;
  const FleetOutcome serial = run_fleet_study(lib, cfg);
  cfg.jobs = 0;  // shared-pool default (hardware threads)
  const FleetOutcome out = run_fleet_study(lib, cfg);

  std::cout << "\n--- " << cfg.circuit << ": " << cfg.fleet.num_chips
            << " chips, " << cfg.cycles << " cycles each, ladder "
            << out.ladder.size() << " rungs ("
            << format_double(out.ladder_seconds, 2)
            << " s characterization, shared) ---\n";
  TextTable rung_t({"rung", "E/cycle [fJ]", "chips"});
  for (std::size_t r = 0; r < out.ladder.size(); ++r)
    rung_t.add_row({std::to_string(r),
                    format_double(out.ladder[r].energy_per_op_fj, 1),
                    std::to_string(out.rung_histogram[r])});
  rung_t.print(std::cout);

  TextTable spread_t({"metric", "mean", "min", "median", "max", "sigma"});
  const auto spread_row = [&](const std::string& name,
                              const DieSpread& s, int prec) {
    spread_t.add_row({name, format_double(s.mean, prec),
                      format_double(s.min, prec),
                      format_double(s.median, prec),
                      format_double(s.max, prec),
                      format_double(s.stddev, prec)});
  };
  spread_row("energy [fJ/cycle]", out.energy_fj, 1);
  spread_row("final rung", out.final_rung, 2);
  spread_t.print(std::cout);

  const unsigned hw = hardware_parallelism();
  const double tps = out.serve_seconds > 0.0
                         ? static_cast<double>(cfg.fleet.num_chips) /
                               out.serve_seconds
                         : 0.0;
  const double eff =
      (out.serve_seconds > 0.0 && hw > 0)
          ? serial.serve_seconds / (hw * out.serve_seconds)
          : 0.0;
  const double spread_pct =
      out.energy_fj.mean > 0.0
          ? 100.0 * (out.energy_fj.max - out.energy_fj.min) /
                out.energy_fj.mean
          : 0.0;

  std::cout << "serve phase: "
            << format_double(serial.serve_seconds, 2) << " s serial, "
            << format_double(out.serve_seconds, 2) << " s on " << hw
            << " hardware threads\n";
  std::cout << "\nFLEET_CHIPS " << cfg.fleet.num_chips
            << "\nFLEET_THROUGHPUT " << format_double(tps, 2)
            << "\nFLEET_PARALLEL_EFFICIENCY " << format_double(eff, 2)
            << "\nFLEET_ENERGY_SPREAD_PCT "
            << format_double(spread_pct, 1) << "\n";
  return 0;
}
