// Shared plumbing for the benchmark harness binaries: the four paper
// benchmarks, their synthesis reports and triad sweeps, pattern budget
// control via the VOSIM_PATTERNS environment variable, and the one
// timing rule every timed bench figure is measured by.
#ifndef VOSIM_BENCH_BENCH_COMMON_HPP
#define VOSIM_BENCH_BENCH_COMMON_HPP

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/characterize/characterizer.hpp"
#include "src/characterize/triads.hpp"
#include "src/netlist/adders.hpp"
#include "src/netlist/dut.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/tech/library.hpp"

namespace vosim::bench {

/// One of the paper's four benchmark operators. `adder` keeps the
/// architecture-specific view for the carry-chain/energy model benches;
/// `dut` is the same netlist as the generic DUT every simulator and
/// sweep consumes.
struct Benchmark {
  std::string name;  ///< e.g. "8-bit RCA"
  AdderArch arch;
  int width;
  AdderNetlist adder;
  DutNetlist dut;
  SynthesisReport report;
  std::vector<OperatingTriad> triads;  ///< Table III sweep (43 triads)
};

/// Builds the paper's benchmark set: 8/16-bit RCA and BKA.
std::vector<Benchmark> paper_benchmarks();

/// Pattern count per triad: paper uses 20000; override with the
/// VOSIM_PATTERNS environment variable (min 200) to trade fidelity for
/// runtime.
std::size_t pattern_budget();

/// Default characterization config for benches (paper settings, with
/// pattern_budget() applied).
CharacterizeConfig bench_config();

/// Prints a section header for harness output and registers the
/// exit-time BENCH_METRICS_JSON telemetry line.
void print_header(const std::string& title, const std::string& paper_ref);

// Timed figures share one rule (time_ratio in bench_common.cpp). One
// warm-up pair runs each leg's work until it has lasted at least 50 ms
// of wall clock; that repeat count then holds for the interleaved
// reference/fast pairs, which alternate which leg runs first, so each
// timed leg also lasts about 50 ms. Pairs run until there are at least
// 5 and they have taken at least 2 s together: short legs get more
// pairs, and a sweep at the paper's pattern budget still runs only 6
// times per leg. A figure is the median of the per-pair ratios
// (reference time over fast time); its quartile spread is printed as
// NAME_SPREAD. The bench's exit-time telemetry is the snapshot taken
// before its first timed comparison, so the repetitions do not count.

/// Times an event-engine sweep against the same sweep on the levelized
/// engine, prints both median run times, and prints the median ratio
/// and its spread as the `NAME value` and `NAME_SPREAD spread` lines
/// that tools/run_benches.sh folds into the bench's figures.
void print_engine_speedup(const std::string& name,
                          const std::function<void()>& event_sweep,
                          const std::function<void()>& levelized_sweep);

/// Times `sweep` against itself and prints PROVENANCE_OVERHEAD_PCT,
/// |median ratio - 1| in percent, with its _SPREAD. Both legs run the
/// same code, so the figure bounds the timing noise of the bench's own
/// legs.
void print_provenance_overhead(const std::function<void()>& sweep);

}  // namespace vosim::bench

#endif  // VOSIM_BENCH_BENCH_COMMON_HPP
