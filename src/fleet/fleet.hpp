// Fleet-scale Monte-Carlo: a population of chip instances, each a
// die-to-die process corner (delay/leakage scaling plus a within-die
// per-gate variation draw), serving a shared workload stream. The
// MPSoC voltage-margins literature (PAPERS.md, arXiv 2209.12134) shows
// guardbands are a per-chip *distribution*; this subsystem answers the
// fleet question — which ladder rung does the closed-loop controller
// pick on each die, and what is the fleet-wide energy/quality spread.
//
// Chip identity is content-hashed: chip i's corner derives from the
// fleet seed and the index alone, never from scheduling, shard or
// engine — so chip i is the same die on any engine, shard, or thread
// count (the same contract CampaignStore keys rely on, DESIGN.md §11).
#ifndef VOSIM_FLEET_FLEET_HPP
#define VOSIM_FLEET_FLEET_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "src/characterize/patterns.hpp"
#include "src/characterize/variability.hpp"
#include "src/runtime/closed_loop.hpp"
#include "src/runtime/triad_ladder.hpp"
#include "src/sim/sim_engine.hpp"
#include "src/tech/library.hpp"

namespace vosim {

/// Die-to-die population parameters. num_chips == 0 disables the chip
/// axis (the single nominal die — chip id 0); a fleet draws chips
/// 1..num_chips from the log-normal corner distributions below.
struct FleetConfig {
  std::size_t num_chips = 0;
  /// Log-normal sigma of the die-wide gate-delay multiplier (the
  /// slow/fast-corner spread across dies).
  double speed_sigma = 0.05;
  /// Log-normal sigma of the die-wide leakage multiplier. Leakage
  /// spreads much wider than delay across real dies.
  double leakage_sigma = 0.15;
  /// Per-gate within-die sigma applied inside each chip instance
  /// (TimingSimConfig::variation_sigma), on top of the die corner.
  double within_die_sigma = 0.03;
  /// Fleet seed: every chip's corner and within-die draw is hashed
  /// from this and the chip index.
  std::uint64_t seed = 7;
};

/// One die of the fleet. Chip 0 is the nominal die (unit scales);
/// fleet members are 1-based.
struct ChipInstance {
  std::uint64_t chip = 0;
  double delay_scale = 1.0;
  double leakage_scale = 1.0;
  /// Within-die per-gate draw (TimingSimConfig::variation_seed).
  std::uint64_t variation_seed = 7;
};

/// FNV-1a of `tag` mixed with `seed` — the schedule-independent
/// content hash shared by chip drawing and store sharding.
std::uint64_t fleet_content_hash(std::uint64_t seed,
                                 const std::string& tag);

/// Draws chip `chip`'s corner from the fleet distributions. Pure
/// content: two calls agree on any process/thread/shard. Chip 0 always
/// returns the nominal die regardless of the sigmas.
ChipInstance draw_chip_instance(const FleetConfig& config,
                                std::uint64_t chip);

/// Applies a chip's corner to a simulator config: delay/leakage scale,
/// within-die sigma and the chip's own variation seed. Chip 0 returns
/// `base` untouched (bit-compatible with pre-fleet behavior).
TimingSimConfig apply_chip(const TimingSimConfig& base,
                           const ChipInstance& chip,
                           double within_die_sigma);

/// Closed-loop fleet study configuration: one pipelined circuit, one
/// shared ladder and workload stream, `fleet.num_chips` dies.
struct FleetStudyConfig {
  std::string circuit = "pipe2-mul8";  ///< seq registry spec
  FleetConfig fleet{.num_chips = 25};
  /// Ladder characterization budget (patterns per triad, nominal die).
  std::size_t ladder_patterns = 2000;
  /// Workload cycles each chip serves.
  std::size_t cycles = 4096;
  std::uint64_t pattern_seed = 42;  ///< shared stream across chips
  ClosedLoopConfig control;
  unsigned jobs = 0;  ///< shared-pool worker cap (0 = default)
};

/// One chip's closed-loop outcome.
struct ChipOutcome {
  ChipInstance chip;
  std::size_t final_rung = 0;   ///< rung held at the end of the run
  double mean_energy_fj = 0.0;  ///< per cycle, register energy included
  double flagged_rate = 0.0;    ///< Razor-flagged cycles / cycles
  double error_rate = 0.0;      ///< wrong valid outputs / valid outputs
  std::uint64_t switches = 0;   ///< controller rung switches
};

/// The fleet answer: per-chip outcomes (chip order) plus the
/// population distributions.
struct FleetOutcome {
  std::vector<TriadRung> ladder;  ///< safest (signoff) rung first
  std::vector<ChipOutcome> chips;
  DieSpread energy_fj;            ///< mean energy/cycle across chips
  DieSpread final_rung;           ///< rung index across chips
  /// Chips whose controller ended on each rung (ladder order).
  std::vector<std::size_t> rung_histogram;
  /// Wall-clock split: the shared one-time ladder characterization vs
  /// the per-chip serving phase (what FLEET_THROUGHPUT measures).
  double ladder_seconds = 0.0;
  double serve_seconds = 0.0;
};

/// Runs the study: characterizes the circuit's ladder once on the
/// nominal die (levelized grid fast path), generates one shared
/// operand stream, then walks every chip's closed-loop controller over
/// it in parallel on the shared pool. Bit-deterministic for a fixed
/// config across thread counts.
FleetOutcome run_fleet_study(const CellLibrary& lib,
                             const FleetStudyConfig& config);

}  // namespace vosim

#endif  // VOSIM_FLEET_FLEET_HPP
