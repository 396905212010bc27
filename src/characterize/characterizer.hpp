// Triad sweep driver: runs a timing-simulation engine over a pattern set
// at every operating triad and gathers error + energy statistics — the
// reproduction of the paper's characterization flow (Fig. 4) with the
// gate-level simulators standing in for SPICE, generalized to any
// DutNetlist (adders, multipliers, MAC trees). The backend is selected
// per sweep: the event-driven reference, or the bit-parallel levelized
// engine for order-of-magnitude faster full-grid sweeps.
#ifndef VOSIM_CHARACTERIZE_CHARACTERIZER_HPP
#define VOSIM_CHARACTERIZE_CHARACTERIZER_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/characterize/metrics.hpp"
#include "src/characterize/patterns.hpp"
#include "src/netlist/dut.hpp"
#include "src/obs/probe.hpp"
#include "src/sim/sim_engine.hpp"
#include "src/tech/operating_point.hpp"

namespace vosim {

/// External error reference: maps one pattern's operand words to the
/// reference output word (see CharacterizeConfig::golden).
using GoldenFn =
    std::function<std::uint64_t(std::span<const std::uint64_t>)>;

/// Sweep configuration.
struct CharacterizeConfig {
  std::size_t num_patterns = 20000;  ///< SPICE runs per triad in the paper
  std::uint64_t pattern_seed = 42;   ///< same stimuli at every triad
  double variation_sigma = 0.03;     ///< per-gate process variation
  std::uint64_t variation_seed = 7;  ///< "one die" across all triads
  /// Pool threads a sweep may use (0 = hardware default). Results are
  /// the same bits at every count: the levelized sweep's pattern split
  /// depends on num_patterns alone.
  unsigned threads = 0;
  /// Simulation backend: the event-driven reference (default) or the
  /// bit-parallel levelized engine (same stimuli, ~10x+ faster sweeps;
  /// see DESIGN.md §7 for where the two diverge). Both keep circuit
  /// state between operations (DESIGN.md §6.5).
  EngineKind engine = EngineKind::kEvent;
  /// Error reference. Default (empty): the DUT's own settled function,
  /// so BER/MRED measure timing errors only and stay meaningful for
  /// approximate adders and multipliers alike (DESIGN.md §8). Supply a
  /// GoldenFn to measure against an external reference instead — e.g.
  /// exact addition when quantifying a static approximate adder's
  /// total (design-time + timing) error.
  GoldenFn golden;
  /// Opt-in error provenance: attach an ErrorProvenance observer per
  /// triad (per stage for pipelines) and fill TriadResult::provenance.
  /// Forces the generic per-triad sweep — the levelized grid fast
  /// paths (step_batch_sweep / normalized-seq) never dispatch
  /// observers — so a provenance sweep costs roughly one fast sweep
  /// per triad instead of one pass total (DESIGN.md §13).
  bool provenance = false;
  /// Culprit nets kept per TriadResult and published per sweep when
  /// provenance is on.
  std::size_t top_culprits = 8;
};

/// Per-triad characterization outcome.
struct TriadResult {
  OperatingTriad triad;
  double ber = 0.0;                 ///< bit error rate vs the reference
  std::vector<double> bitwise_ber;  ///< per output position (Fig. 5)
  double op_error_rate = 0.0;
  double mse = 0.0;
  double mred = 0.0;                ///< mean relative error distance
  double energy_per_op_fj = 0.0;    ///< dynamic window + leakage
  double dynamic_energy_fj = 0.0;
  double leakage_energy_fj = 0.0;
  double mean_settle_ps = 0.0;
  std::size_t patterns = 0;
  /// Filled when CharacterizeConfig::provenance: per-net culprit
  /// attribution of this triad's erroneous bits (culprits truncated to
  /// config.top_culprits). For pipelines the culprits aggregate over
  /// stages ("s<k>:<net>" names) and bitwise_ber is the output stage's
  /// local per-bit error probability.
  ProvenanceSummary provenance;
};

/// Runs the sweep; one simulator per triad, all sharing the same pattern
/// sequence and the same per-gate variation sample. Parallel over triads
/// on the shared persistent thread pool and bit-deterministic for a
/// fixed config (including across engines at generous Tclk). With the
/// levelized engine the whole Tclk/Vdd/Vbb grid collapses into one
/// normalized timing pass (step_batch_sweep) regardless of the DUT.
std::vector<TriadResult> characterize_dut(
    const DutNetlist& dut, const CellLibrary& lib,
    const std::vector<OperatingTriad>& triads,
    const CharacterizeConfig& config = {});

struct SeqDut;

/// Sequential variant: sweeps a pipelined DUT with the clocked SeqSim.
/// Each triad streams the same operand patterns through the pipeline
/// (one new operation per cycle plus latency-1 flush cycles), scoring
/// the captured output register against the pipeline's settled function
/// aligned by latency — so errors that latch in an early stage and
/// corrupt later cycles are charged to the pattern that suffered them.
/// Per-op energy is per *cycle*: stage window dynamic + stage leakage +
/// register clock/latch energy. config.golden is ignored (the reference
/// is always the pipeline's own settled composition). On the levelized
/// engine a replay whose first 64-cycle lane word already flags at
/// least a quarter of its operations is past the error-onset cliff and
/// is scored from that word alone; TriadResult::patterns reports the
/// count actually used (DESIGN.md §10).
std::vector<TriadResult> characterize_seq_dut(
    const SeqDut& seq, const CellLibrary& lib,
    const std::vector<OperatingTriad>& triads,
    const CharacterizeConfig& config = {});

/// Energy efficiency vs a baseline energy (paper's "energy saving
/// compared to ideal test case"): 1 − E/E_baseline.
double energy_efficiency(double energy_fj, double baseline_fj);

}  // namespace vosim

#endif  // VOSIM_CHARACTERIZE_CHARACTERIZER_HPP
