// Workload registry — the application layer of the campaign subsystem.
//
// A Workload wraps one of the src/apps kernels behind a uniform
// run(BatchAdderFn, seed) -> QualityResult interface, so the campaign
// runner can sweep every error-resilient application over the same
// circuit × triad × backend grid (the paper's Section IV story made
// repeatable). Each workload fixes its input data from the seed, runs
// its one batch kernel through the routed adder — so every backend
// sees the same additions in the same order — and scores the output
// against the exact-adder reference with its own domain metric (SNR,
// PSNR, clustering accuracy, MRED) plus a normalized [0, 1] quality
// score the Pareto aggregation can compare across workloads.
#ifndef VOSIM_CAMPAIGN_WORKLOAD_HPP
#define VOSIM_CAMPAIGN_WORKLOAD_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/apps/approx_arith.hpp"

namespace vosim {

/// Outcome of one workload run on one adder.
struct QualityResult {
  std::string metric;       ///< "snr_db", "psnr_db", "accuracy", "mred"
  double value = 0.0;       ///< in the metric's native unit
  double normalized = 0.0;  ///< [0, 1], higher is better, unit-free
  std::uint64_t adds = 0;   ///< routed adder invocations
};

/// One registered application workload. `width` is the adder width the
/// kernel routes its arithmetic through; a campaign circuit must expose
/// an adder of exactly that width for the model/sim backends.
struct Workload {
  std::string name;    ///< registry key, e.g. "fir"
  std::string title;   ///< human description
  std::string metric;  ///< metric token of the QualityResult it emits
  int width = 16;      ///< routed adder width
  std::function<QualityResult(const BatchAdderFn&, std::uint64_t seed)> run;
};

/// The built-in workloads: fir (SNR), blur + sobel (PSNR), kmeans
/// (clustering accuracy), dot (MRED).
const std::vector<Workload>& workload_registry();

/// Registry lookup; nullptr when unknown.
const Workload* find_workload(const std::string& name);

/// Resolves names ("all" expands to the full registry) or throws
/// std::invalid_argument naming the unknown workload.
std::vector<Workload> resolve_workloads(
    const std::vector<std::string>& names);

/// One-line list of registered workloads for CLI usage text.
std::string known_workloads_help();

/// Maps a metric value onto the unit-free [0, 1] quality scale used by
/// Pareto fronts and quality floors: dB metrics saturate at
/// snr_display_cap_db, accuracy is already a fraction, MRED inverts
/// (1 - mred). Throws std::invalid_argument on an unknown metric token.
double normalized_quality(const std::string& metric, double value);

}  // namespace vosim

#endif  // VOSIM_CAMPAIGN_WORKLOAD_HPP
