// Monte-Carlo process-variation study: characterize one operating triad
// across many simulated dies (independent per-gate delay samples) and
// summarize the spread of BER and energy. Supports the paper's Section
// II/III discussion — "the impact of variability has to be considered to
// achieve optimum balance between accuracy and energy".
#ifndef VOSIM_CHARACTERIZE_VARIABILITY_HPP
#define VOSIM_CHARACTERIZE_VARIABILITY_HPP

#include <cstdint>
#include <vector>

#include "src/characterize/characterizer.hpp"

namespace vosim {

/// Spread of a metric across dies (see spread_of()).
struct DieSpread {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double q25 = 0.0;
  double median = 0.0;
  double q75 = 0.0;
  double max = 0.0;
};

/// Per-triad Monte-Carlo outcome.
struct VariabilityResult {
  OperatingTriad triad;
  int dies = 0;
  DieSpread ber;
  DieSpread energy_fj;
  /// Fraction of dies that are completely error-free at this triad —
  /// the parametric-yield view of a VOS operating point.
  double error_free_die_fraction = 0.0;
};

/// Study configuration.
struct VariabilityConfig {
  int num_dies = 25;
  double variation_sigma = 0.05;     ///< per-gate log-normal sigma
  std::size_t num_patterns = 3000;
  std::uint64_t pattern_seed = 42;
  /// Worker cap on the shared persistent ThreadPool (0 = default) —
  /// the same convention as CampaignConfig::jobs, so nesting a
  /// variability study inside a campaign or fleet run never
  /// oversubscribes the machine with a second pool.
  unsigned jobs = 0;
  /// Simulation backend; both backends draw identical per-die variation
  /// samples, so die i names the same circuit under either engine.
  EngineKind engine = EngineKind::kEvent;
};

/// Runs the Monte-Carlo study for each triad over any DUT. Errors are
/// counted against the DUT's settled function (timing errors only).
std::vector<VariabilityResult> variability_study(
    const DutNetlist& dut, const CellLibrary& lib,
    const std::vector<OperatingTriad>& triads,
    const VariabilityConfig& config = {});

/// Summarizes a sample vector into a DieSpread (mean, stddev,
/// min/quartiles/max). Shared by the variability and fleet studies.
DieSpread spread_of(std::vector<double> samples);

}  // namespace vosim

#endif  // VOSIM_CHARACTERIZE_VARIABILITY_HPP
