#include "src/fleet/fleet.hpp"

#include <chrono>
#include <cmath>

#include "src/characterize/characterizer.hpp"
#include "src/characterize/triads.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_report.hpp"
#include "src/util/contracts.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace vosim {

std::uint64_t fleet_content_hash(std::uint64_t seed,
                                 const std::string& tag) {
  std::uint64_t h = 14695981039346656037ULL ^ seed;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

ChipInstance draw_chip_instance(const FleetConfig& config,
                                std::uint64_t chip) {
  VOSIM_EXPECTS(config.speed_sigma >= 0.0);
  VOSIM_EXPECTS(config.leakage_sigma >= 0.0);
  ChipInstance inst;
  inst.chip = chip;
  if (chip == 0) return inst;  // the nominal die
  // One Rng per chip, seeded by content: the draw order inside a chip
  // is fixed (speed, then leakage), so adding distributions later must
  // append draws, never reorder these two.
  Rng rng(fleet_content_hash(config.seed,
                             "chip|" + std::to_string(chip)));
  inst.delay_scale = std::exp(config.speed_sigma * rng.gaussian());
  inst.leakage_scale = std::exp(config.leakage_sigma * rng.gaussian());
  inst.variation_seed = fleet_content_hash(
      config.seed, "chip-die|" + std::to_string(chip));
  return inst;
}

TimingSimConfig apply_chip(const TimingSimConfig& base,
                           const ChipInstance& chip,
                           double within_die_sigma) {
  if (chip.chip == 0) return base;
  TimingSimConfig cfg = base;
  cfg.delay_scale = chip.delay_scale;
  cfg.leakage_scale = chip.leakage_scale;
  cfg.variation_sigma = within_die_sigma;
  cfg.variation_seed = chip.variation_seed;
  return cfg;
}

FleetOutcome run_fleet_study(const CellLibrary& lib,
                             const FleetStudyConfig& config) {
  VOSIM_EXPECTS(config.fleet.num_chips >= 1);
  VOSIM_EXPECTS(config.cycles > 0);

  const SeqDut seq = build_seq_circuit(config.circuit);
  const double cp_ns = seq_critical_path_ns(seq, lib);
  const auto triads = make_dut_triads(cp_ns);

  // Ladder characterization happens once, on the nominal die: the
  // controller's menu is a design-time artifact every chip shares —
  // per-chip truth comes from each die's own Razor monitors at run
  // time, not from re-characterizing the grid per chip.
  CharacterizeConfig ccfg;
  ccfg.num_patterns = config.ladder_patterns;
  ccfg.pattern_seed = config.pattern_seed;
  ccfg.engine = EngineKind::kLevelized;
  ccfg.threads = config.jobs;
  const auto t0 = std::chrono::steady_clock::now();
  const auto lev = [&] {
    obs::ScopedSpan span("fleet.ladder", "fleet");
    span.arg("circuit", config.circuit)
        .arg("triads", static_cast<std::uint64_t>(triads.size()));
    return characterize_seq_dut(seq, lib, triads, ccfg);
  }();
  const auto t1 = std::chrono::steady_clock::now();

  FleetOutcome out;
  out.ladder_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.ladder = build_triad_ladder(lev);
  // Pin the safest rung to the signoff (relaxed-nominal) triad: the
  // operating point an open-loop fleet would have to hold.
  if (out.ladder.empty() || !(out.ladder.front().triad == triads[0]))
    out.ladder.insert(out.ladder.begin(),
                      TriadRung{triads[0], 0.0, lev[0].energy_per_op_fj});

  // One shared operand stream, generated once and reused by every chip
  // (the fleet serves the same workload; regenerating it per chip
  // would dominate small-circuit runs).
  const std::size_t nops = seq.num_operands();
  std::vector<std::uint64_t> operands(config.cycles * nops, 0);
  {
    DutPatternStream patterns(seq.operand_widths(), config.pattern_seed);
    for (std::size_t c = 0; c < config.cycles; ++c)
      patterns.next(std::span<std::uint64_t>(
          operands.data() + c * nops, nops));
  }

  TimingSimConfig base_cfg;
  base_cfg.engine = EngineKind::kLevelized;

  out.chips.resize(config.fleet.num_chips);
  auto& chips = out.chips;
  obs::metrics().counter("fleet.chips").add(config.fleet.num_chips);
  obs::LatencyHisto& chip_seconds =
      obs::metrics().histogram("fleet.chip.seconds");
  obs::Counter& switch_counter =
      obs::metrics().counter("fleet.controller.switches");
  obs::Counter& flagged_counter =
      obs::metrics().counter("fleet.cycles.flagged");
  obs::ScopedSpan serve_span("fleet.serve", "fleet");
  serve_span.arg("chips",
                 static_cast<std::uint64_t>(config.fleet.num_chips));
  const auto t2 = std::chrono::steady_clock::now();
  parallel_for(
      config.fleet.num_chips,
      [&](std::size_t i) {
        obs::ScopedSpan chip_span("fleet.chip", "fleet");
        chip_span.arg("chip", static_cast<std::uint64_t>(i + 1));
        obs::ScopedTimer chip_timer(chip_seconds);
        const ChipInstance chip =
            draw_chip_instance(config.fleet, i + 1);  // chips are 1-based
        ClosedLoopSeqUnit unit(
            seq, lib, out.ladder, config.control,
            apply_chip(base_cfg, chip, config.fleet.within_die_sigma));
        std::vector<ClosedLoopCycleResult> results(config.cycles);
        unit.run_batch(operands, config.cycles, results);

        ChipOutcome& oc = chips[i];
        oc.chip = chip;
        oc.final_rung = unit.controller().rung();
        oc.mean_energy_fj = unit.mean_energy_fj();
        oc.switches = unit.controller().switches();
        std::uint64_t flagged = 0, valid = 0, wrong = 0;
        for (const ClosedLoopCycleResult& r : results) {
          if (r.cycle.razor_flags != 0) ++flagged;
          if (!r.cycle.output_valid) continue;
          ++valid;
          if (r.cycle.captured != r.cycle.expected) ++wrong;
        }
        switch_counter.add(oc.switches);
        flagged_counter.add(flagged);
        oc.flagged_rate = static_cast<double>(flagged) /
                          static_cast<double>(config.cycles);
        oc.error_rate =
            valid > 0 ? static_cast<double>(wrong) /
                            static_cast<double>(valid)
                      : 0.0;
      },
      config.jobs);
  out.serve_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t2)
                          .count();

  std::vector<double> energies, rungs;
  energies.reserve(chips.size());
  rungs.reserve(chips.size());
  out.rung_histogram.assign(out.ladder.size(), 0);
  for (const ChipOutcome& oc : chips) {
    energies.push_back(oc.mean_energy_fj);
    rungs.push_back(static_cast<double>(oc.final_rung));
    ++out.rung_histogram[oc.final_rung];
  }
  out.energy_fj = spread_of(std::move(energies));
  out.final_rung = spread_of(std::move(rungs));
  return out;
}

}  // namespace vosim
