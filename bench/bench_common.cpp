#include "bench/bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "src/obs/metrics.hpp"
#include "src/util/stats.hpp"
#include "src/util/table.hpp"

namespace vosim::bench {

namespace {

// The timing rule's constants (time_ratio); fixed, not settings.
constexpr double kMinLegSeconds = 0.05;
constexpr int kMinPairs = 5;
constexpr double kMinPairsSeconds = 2.0;

using Clock = std::chrono::steady_clock;

// The telemetry of the bench's own pass, frozen by the first
// time_ratio call: its repetitions would otherwise scale every counter
// by a repeat count that depends on the host's speed. Namespace scope,
// so it is built before the exit-time handler is registered and
// outlives it.
std::string frozen_metrics;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `work` until it has lasted kMinLegSeconds; returns the count.
int warm_up(const std::function<void()>& work) {
  const auto t0 = Clock::now();
  int reps = 0;
  do {
    work();
    ++reps;
  } while (seconds_since(t0) < kMinLegSeconds);
  return reps;
}

/// Seconds per run of `work`, timed over `reps` back-to-back runs.
double time_leg(const std::function<void()>& work, int reps) {
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) work();
  return seconds_since(t0) / reps;
}

/// Wall-clock speed ratio of two legs of work, reference over fast.
struct TimedRatio {
  double median = 0.0;       ///< median of the per-pair ratios
  double spread = 0.0;       ///< their quartile spread (q75 - q25)
  double reference_s = 0.0;  ///< median seconds of one reference run
  double fast_s = 0.0;       ///< median seconds of one fast run
};

/// The timing rule of every timed bench figure (bench_common.hpp).
TimedRatio time_ratio(const std::function<void()>& reference,
                      const std::function<void()>& fast) {
  if (frozen_metrics.empty())
    frozen_metrics = obs::metrics().snapshot().to_json();
  const int reference_reps = warm_up(reference);
  const int fast_reps = warm_up(fast);
  std::vector<double> ratios;
  std::vector<double> reference_s;
  std::vector<double> fast_s;
  const auto t0 = Clock::now();
  for (int pair = 0; pair < kMinPairs || seconds_since(t0) < kMinPairsSeconds;
       ++pair) {
    double r = 0.0;
    double f = 0.0;
    if (pair % 2 == 0) {
      r = time_leg(reference, reference_reps);
      f = time_leg(fast, fast_reps);
    } else {
      f = time_leg(fast, fast_reps);
      r = time_leg(reference, reference_reps);
    }
    ratios.push_back(r / f);
    reference_s.push_back(r);
    fast_s.push_back(f);
  }
  const std::vector<double> q = quantiles(ratios, {0.25, 0.5, 0.75});
  return {q[1], q[2] - q[0], quantile(reference_s, 0.5),
          quantile(fast_s, 0.5)};
}

/// Prints the machine-readable `NAME value` and `NAME_SPREAD spread`
/// lines that tools/run_benches.sh folds into the bench's figures.
void print_figure(const std::string& name, double value, double spread) {
  std::cout << name << " " << format_double(value, 2) << "\n"
            << name << "_SPREAD " << format_double(spread, 2) << "\n";
}

void emit_metrics_at_exit() {
  // One exit-time metrics line per bench process: run_benches.sh folds
  // it into the bench's BENCH_*.json as a "metrics" block.
  // <iostream>'s ios_base::Init keeps std::cout alive through atexit
  // handlers.
  static const bool metrics_registered = [] {
    std::atexit([] {
      std::cout << "BENCH_METRICS_JSON "
                << (frozen_metrics.empty()
                        ? obs::metrics().snapshot().to_json()
                        : frozen_metrics)
                << "\n";
    });
    return true;
  }();
  (void)metrics_registered;
}

}  // namespace

std::vector<Benchmark> paper_benchmarks() {
  const CellLibrary& lib = make_fdsoi28_lvt();
  std::vector<Benchmark> out;
  const struct {
    const char* name;
    AdderArch arch;
    int width;
  } specs[] = {
      {"8-bit RCA", AdderArch::kRipple, 8},
      {"8-bit BKA", AdderArch::kBrentKung, 8},
      {"16-bit RCA", AdderArch::kRipple, 16},
      {"16-bit BKA", AdderArch::kBrentKung, 16},
  };
  for (const auto& s : specs) {
    Benchmark b{s.name, s.arch, s.width, build_adder(s.arch, s.width),
                {},     {},     {}};
    b.dut = to_dut(b.adder);  // one generation, one copy
    b.report = synthesize_report(b.adder.netlist, lib);
    b.triads =
        make_paper_triads(s.arch, s.width, b.report.critical_path_ns);
    out.push_back(std::move(b));
  }
  return out;
}

std::size_t pattern_budget() {
  if (const char* env = std::getenv("VOSIM_PATTERNS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(std::max(200L, v));
  }
  return 20000;  // the paper's per-triad SPICE budget
}

CharacterizeConfig bench_config() {
  CharacterizeConfig cfg;
  cfg.num_patterns = pattern_budget();
  return cfg;
}

void print_header(const std::string& title, const std::string& paper_ref) {
  emit_metrics_at_exit();
  std::cout << "\n================================================================\n"
            << title << "\n"
            << "reproduces: " << paper_ref << "\n"
            << "patterns/triad: " << pattern_budget()
            << " (override with VOSIM_PATTERNS)\n"
            << "================================================================\n";
}

void print_engine_speedup(const std::string& name,
                          const std::function<void()>& event_sweep,
                          const std::function<void()>& levelized_sweep) {
  const TimedRatio r = time_ratio(event_sweep, levelized_sweep);
  std::cout << "event engine:     " << format_double(r.reference_s * 1e3, 2)
            << " ms\nlevelized engine: " << format_double(r.fast_s * 1e3, 2)
            << " ms\n";
  print_figure(name, r.median, r.spread);
}

void print_provenance_overhead(const std::function<void()>& sweep) {
  const TimedRatio legs = time_ratio(sweep, sweep);
  std::cout << "\nobservers-off legs: "
            << format_double(legs.reference_s * 1e3, 3) << " and "
            << format_double(legs.fast_s * 1e3, 3)
            << " ms per sweep (medians)\n";
  print_figure("PROVENANCE_OVERHEAD_PCT",
               100.0 * std::abs(legs.median - 1.0), 100.0 * legs.spread);
}

}  // namespace vosim::bench
