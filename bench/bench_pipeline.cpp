// Sequential pipeline bench: clocked multi-stage operators under VOS
// and the closed-loop controller that exploits them.
//
// Part 1 — per-stage synthesis/slack and the 43-triad sweep of every
// registry pipeline (pipe2-mul8, pipe3-mac4x8, fir4-pipe) on both
// engines' batched step_cycle paths. Machine-readable lines:
//   SEQ_LEVELIZED_SPEEDUP  event/levelized wall-clock ratio of the
//                          sweeps of all pipelines, timed in part 3
//                          (gated >= 10 in run_benches.sh)
//   SEQ_BER_DEV_PP         max |event-lev| BER over the error-onset
//                          band (event BER <= 2%, the regime a quality
//                          floor can accept; past the knee the
//                          pipeline is saturated-broken and the
//                          levelized backend is conservative —
//                          DESIGN.md §10). Gated <= 2pp.
//
// Part 2 — closed-loop VOS control (Kaul-style timing-error-correction
// DVS): a ClosedLoopSeqUnit walks the measured-Razor ladder while the
// open-loop baseline pins the guard-banded signoff rung. Prints
//   CLOSED_LOOP_SAVINGS_PCT  mean closed-loop energy vs the safest
//                            rung, gated >= 10% in run_benches.sh.
//
// Part 3 — the timed figures, by bench_common's time_ratio:
// SEQ_LEVELIZED_SPEEDUP, and PROVENANCE_OVERHEAD_PCT, the observers-off
// pipe2-mul8 levelized sweep timed against itself (gated <= 2%). Both
// of its legs run the same code, so a slower observers-off path slows
// both alike: the figure bounds the timing noise of the bench's own
// legs, not the cost of the dispatch guard (DESIGN.md §13).
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench/bench_common.hpp"
#include "src/characterize/report.hpp"
#include "src/runtime/closed_loop.hpp"
#include "src/runtime/triad_ladder.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_report.hpp"
#include "src/util/rng.hpp"

int main() {
  using namespace vosim;
  using namespace vosim::bench;
  print_header("Sequential pipelines — clocked VOS + closed-loop control",
               "Kaul et al. DVS / Bahoo et al. block-level VOS");

  const CellLibrary& lib = make_fdsoi28_lvt();
  const CharacterizeConfig event_cfg = bench_config();
  CharacterizeConfig lev_cfg = bench_config();
  lev_cfg.engine = EngineKind::kLevelized;
  double onset_dev_pp = 0.0;

  std::vector<TriadRung> mul_ladder;  // reused by part 2
  OperatingTriad mul_nominal{};
  double mul_nominal_energy = 0.0;

  struct Grid {
    SeqDut seq;
    std::vector<OperatingTriad> triads;
  };
  std::vector<Grid> grids;  // reused by the timed comparisons
  for (const char* spec : {"pipe2-mul8", "pipe3-mac4x8", "fir4-pipe"}) {
    const SeqDut seq = build_seq_circuit(spec);
    const double cp = seq_critical_path_ns(seq, lib);
    const auto triads = make_dut_triads(cp);
    grids.push_back({seq, triads});

    std::cout << "\n--- " << seq.display_name << ": " << seq.num_stages()
              << " stages, " << seq.num_gates() << " gates, "
              << seq.num_flops() << " flops, pipeline CP "
              << format_double(cp, 3) << " ns ---\n";
    TextTable slack_t({"stage", "CP (ps)", "slack @CP (ps)"});
    for (const StageSlack& s :
         seq_stage_slacks(seq, lib, {cp, 1.0, 0.0}))
      slack_t.add_row({std::to_string(s.stage),
                       format_double(s.critical_path_ps, 1),
                       format_double(s.slack_ps, 1)});
    slack_t.print(std::cout);

    const auto ev = characterize_seq_dut(seq, lib, triads, event_cfg);
    const auto lev = characterize_seq_dut(seq, lib, triads, lev_cfg);

    double dev = 0.0;
    int onset_points = 0;
    double full_dev = 0.0;
    for (std::size_t t = 0; t < triads.size(); ++t) {
      const double d = std::abs(ev[t].ber - lev[t].ber);
      full_dev = std::max(full_dev, d);
      if (ev[t].ber <= 0.02) {
        dev = std::max(dev, d);
        ++onset_points;
      }
    }
    onset_dev_pp = std::max(onset_dev_pp, dev * 100.0);

    const double baseline = ev[0].energy_per_op_fj;
    fig8_table(sort_for_fig8(ev), baseline).print(std::cout);
    std::cout << "onset band (event BER <= 2%): " << onset_points << "/"
              << triads.size() << " triads, engine dev "
              << format_double(dev * 100.0, 3)
              << " pp (full grid incl. saturated-broken: "
              << format_double(full_dev * 100.0, 2) << " pp)\n";

    if (std::string(spec) == "pipe2-mul8") {
      mul_ladder = build_triad_ladder(lev);
      mul_nominal = triads[0];
      mul_nominal_energy = lev[0].energy_per_op_fj;
    }
  }

  // ---- Part 2: closed-loop control vs the guard-banded safest rung.
  // The ladder's safest rung is pinned to the signoff (relaxed-nominal)
  // triad — the operating point an open-loop design must hold because,
  // without runtime error feedback, the synthesis guard band cannot be
  // shaved safely.
  if (mul_ladder.empty() ||
      !(mul_ladder.front().triad == mul_nominal))
    mul_ladder.insert(mul_ladder.begin(),
                      TriadRung{mul_nominal, 0.0, mul_nominal_energy});

  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  ClosedLoopConfig cl_cfg;
  cl_cfg.op_error_margin = 0.05;  // quality floor: <=5% flagged cycles
  cl_cfg.window_cycles = 128;
  cl_cfg.min_dwell_cycles = 128;
  // The unit runs on the die the ladder was characterized on.
  const CharacterizeConfig char_cfg = bench_config();
  TimingSimConfig sim_cfg;
  sim_cfg.variation_sigma = char_cfg.variation_sigma;
  sim_cfg.variation_seed = char_cfg.variation_seed;
  sim_cfg.engine = EngineKind::kLevelized;
  ClosedLoopSeqUnit unit(seq, lib, mul_ladder, cl_cfg, sim_cfg);

  const std::size_t cycles = std::max<std::size_t>(
      3000, pattern_budget() * 10);
  Rng rng(2024);
  std::vector<std::size_t> rung_cycles(mul_ladder.size(), 0);
  std::uint64_t razor_cycles = 0;
  for (std::size_t c = 0; c < cycles; ++c) {
    const ClosedLoopCycleResult r =
        unit.step_cycle(rng() & 0xFF, rng() & 0xFF);
    ++rung_cycles[r.rung];
    if (r.cycle.razor_flags != 0) ++razor_cycles;
  }

  const double baseline = mul_ladder.front().energy_per_op_fj;
  const double mean = unit.mean_energy_fj();
  const double savings = 100.0 * (1.0 - mean / baseline);
  std::cout << "\n--- closed-loop VOS control: " << seq.display_name
            << ", " << cycles << " cycles, floor "
            << format_double(cl_cfg.op_error_margin * 100.0, 0)
            << "% flagged cycles ---\n";
  TextTable cl_t({"rung", "triad", "E/cycle [fJ]", "char. BER [%]",
                  "cycles"});
  for (std::size_t r = 0; r < mul_ladder.size(); ++r)
    cl_t.add_row({std::to_string(r), triad_label(mul_ladder[r].triad),
                  format_double(mul_ladder[r].energy_per_op_fj, 1),
                  format_double(mul_ladder[r].expected_ber * 100.0, 2),
                  std::to_string(rung_cycles[r])});
  cl_t.print(std::cout);
  std::cout << "switches: " << unit.controller().switches()
            << ", Razor-flagged cycles: " << razor_cycles << "/" << cycles
            << "\nmean energy " << format_double(mean, 1)
            << " fJ/cycle vs safest rung "
            << format_double(baseline, 1) << " fJ/cycle\n";

  std::cout << "\nreading: with in-simulator Razor feedback the"
               " controller leaves the guard-banded signoff rung on"
               " measured evidence, something open-loop speculation"
               " cannot justify; the measured per-stage error rate —"
               " not the characterized BER table — rejects rungs past"
               " the quality floor.\n";

  // ---- Part 3: the timed comparisons, by bench_common's one rule.
  const auto sweep_all = [&](const CharacterizeConfig& cfg) {
    return [&, cfg] {
      for (const Grid& g : grids)
        characterize_seq_dut(g.seq, lib, g.triads, cfg);
    };
  };
  std::cout << "\n--- engine comparison (all pipeline sweeps, equal"
               " patterns) ---\n";
  print_engine_speedup("SEQ_LEVELIZED_SPEEDUP", sweep_all(event_cfg),
                       sweep_all(lev_cfg));
  // The observers-off pipe2-mul8 sweep on one thread.
  const Grid& mul = grids.front();
  CharacterizeConfig off_cfg = lev_cfg;
  off_cfg.threads = 1;
  print_provenance_overhead(
      [&] { characterize_seq_dut(mul.seq, lib, mul.triads, off_cfg); });
  std::cout << "SEQ_BER_DEV_PP " << format_double(onset_dev_pp, 3)
            << "\nCLOSED_LOOP_SAVINGS_PCT " << format_double(savings, 1)
            << "\n";
  return 0;
}
