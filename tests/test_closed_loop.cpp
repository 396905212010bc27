// Closed-loop VOS control tests: ladder-walking policy in isolation,
// then the full loop over clocked pipelines and over combinational
// circuits wrapped as single-stage pipelines — measured Razor rates
// must drive the unit to cheaper rungs when safe and hold it back when
// not.
#include <gtest/gtest.h>

#include <string>

#include "src/characterize/characterizer.hpp"
#include "src/netlist/dut.hpp"
#include "src/runtime/closed_loop.hpp"
#include "src/runtime/triad_ladder.hpp"
#include "src/seq/error_monitor.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_report.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

ClosedLoopConfig fast_config() {
  ClosedLoopConfig cfg;
  cfg.window_cycles = 32;
  cfg.min_dwell_cycles = 32;
  return cfg;
}

// ---------------------------------------------------------- controller
TEST(ClosedLoopPolicy, DescendsWhenClean) {
  ClosedLoopController c(3, fast_config());
  EXPECT_EQ(c.rung(), 0u);
  std::size_t downs = 0;
  for (int i = 0; i < 200; ++i)
    if (c.observe(0.0, true) == SpeculationAction::kStepDown) ++downs;
  EXPECT_EQ(c.rung(), 2u);
  EXPECT_EQ(downs, 2u);
  // At the last rung it holds.
  EXPECT_EQ(c.observe(0.0, true), SpeculationAction::kHold);
}

TEST(ClosedLoopPolicy, BacksOffOnViolation) {
  ClosedLoopConfig cfg = fast_config();
  cfg.op_error_margin = 0.05;
  ClosedLoopController c(3, cfg);
  for (int i = 0; i < 100; ++i) c.observe(0.0, true);
  EXPECT_EQ(c.rung(), 2u);
  // A measured violation steps up exactly once per dwell period.
  SpeculationAction a = SpeculationAction::kHold;
  for (int i = 0; i < 40 && a == SpeculationAction::kHold; ++i)
    a = c.observe(0.5, true);
  EXPECT_EQ(a, SpeculationAction::kStepUp);
  EXPECT_EQ(c.rung(), 1u);
}

TEST(ClosedLoopPolicy, HysteresisBandHolds) {
  ClosedLoopConfig cfg = fast_config();
  cfg.op_error_margin = 0.10;
  ClosedLoopController c(3, cfg);
  // A rate inside (margin/2, margin] must neither climb nor descend.
  for (int i = 0; i < 300; ++i)
    EXPECT_EQ(c.observe(0.08, true), SpeculationAction::kHold);
  EXPECT_EQ(c.rung(), 0u);
  EXPECT_EQ(c.switches(), 0u);
}

TEST(ClosedLoopPolicy, WaitsForWindowAndDwell) {
  ClosedLoopController c(2, fast_config());
  // No decision before the window fills, however long it waits.
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(c.observe(0.0, false), SpeculationAction::kHold);
  // Dwell restarts after a switch.
  ClosedLoopController d(3, fast_config());
  for (int i = 0; i < 40; ++i) d.observe(0.0, true);
  EXPECT_EQ(d.rung(), 1u);
  EXPECT_LE(d.switches(), 2u);
}

TEST(ClosedLoopPolicy, ReprobeBackoffBarsFailingRung) {
  ClosedLoopConfig cfg = fast_config();
  cfg.op_error_margin = 0.1;
  ClosedLoopController c(2, cfg);
  // Descend, fail, retreat.
  for (int i = 0; i < 40; ++i) c.observe(0.0, true);
  ASSERT_EQ(c.rung(), 1u);
  SpeculationAction a = SpeculationAction::kHold;
  for (int i = 0; i < 40 && a == SpeculationAction::kHold; ++i)
    a = c.observe(0.9, true);
  ASSERT_EQ(a, SpeculationAction::kStepUp);
  EXPECT_EQ(c.barred_rung(), 1u);
  // The failed rung is barred: the next few clean decision windows must
  // NOT re-enter it (without backoff each one would).
  int suppressed_windows = 0;
  while (c.rung() == 0 && suppressed_windows < 4) {
    for (int i = 0; i < 40 && c.rung() == 0; ++i) c.observe(0.0, true);
    if (c.rung() == 0) break;
    // It eventually re-probes once the cooldown drains.
    ++suppressed_windows;
  }
  // Count decisions until the first re-probe: must take > 1 window.
  ClosedLoopController d(2, cfg);
  for (int i = 0; i < 40; ++i) d.observe(0.0, true);
  for (int i = 0; i < 40 && d.rung() == 1; ++i) d.observe(0.9, true);
  ASSERT_EQ(d.rung(), 0u);
  int windows_to_reprobe = 0;
  while (d.rung() == 0 && windows_to_reprobe < 100) {
    for (int i = 0; i < 32; ++i)
      if (d.observe(0.0, true) != SpeculationAction::kHold) break;
    ++windows_to_reprobe;
  }
  EXPECT_GE(windows_to_reprobe, 4);  // cooldown held it back
  EXPECT_LT(windows_to_reprobe, 100);  // but it does re-probe
  // Failing again doubles the penalty.
  for (int i = 0; i < 40 && d.rung() == 1; ++i) d.observe(0.9, true);
  ASSERT_EQ(d.rung(), 0u);
  int second = 0;
  while (d.rung() == 0 && second < 100) {
    for (int i = 0; i < 32; ++i)
      if (d.observe(0.0, true) != SpeculationAction::kHold) break;
    ++second;
  }
  EXPECT_GT(second, windows_to_reprobe);
  // Surviving a window on the once-barred rung clears the bar.
  for (int i = 0; i < 40; ++i) d.observe(0.0, true);
  EXPECT_EQ(d.barred_rung(), d.num_rungs());
}

/// One policy scenario: each rung's true flagged-op rate (rising along
/// the ladder), the margin, and the window (= minimum dwell).
struct PolicyCase {
  std::vector<double> rates;
  double margin;
  std::size_t window;
  std::uint64_t max_switches;
};

/// What a controller did over a run.
struct PolicyWalk {
  std::vector<std::size_t> cycles_on;  ///< per rung
  std::size_t flagged = 0;
  std::size_t final_rung = 0;
  std::uint64_t switches = 0;
};

/// Runs the controller against a real Razor monitor fed with seeded
/// flags at the current rung's rate. A switch resets the window, as
/// ClosedLoopSeqUnit does when it resets the new rung's simulator.
PolicyWalk walk_rates(const PolicyCase& pc, std::uint64_t seed,
                      std::size_t cycles) {
  ClosedLoopConfig cfg;
  cfg.op_error_margin = pc.margin;
  cfg.window_cycles = pc.window;
  cfg.min_dwell_cycles = pc.window;
  ClosedLoopController c(pc.rates.size(), cfg);
  DoubleSamplingMonitor mon(1, pc.window);
  Rng rng(seed);
  PolicyWalk w;
  w.cycles_on.assign(pc.rates.size(), 0);
  for (std::size_t i = 0; i < cycles; ++i) {
    const bool flag = rng.flip(pc.rates[c.rung()]);
    ++w.cycles_on[c.rung()];
    w.flagged += flag;
    mon.record_word(flag ? 1 : 0);
    if (c.observe(mon.window_op_error_rate(), mon.window_full()) !=
        SpeculationAction::kHold)
      mon.reset_window();
  }
  w.final_rung = c.rung();
  w.switches = c.switches();
  return w;
}

TEST(ClosedLoopPolicy, SettlesOnCheapestRungInsideMargin) {
  const PolicyCase cases[] = {
      // Rung 2 fits the 5% margin, rung 3 does not.
      {{0.0, 0.005, 0.02, 0.20}, 0.05, 256, 30},
      // Tight margin: only the error-free rung fits.
      {{0.0, 0.01, 0.04, 0.20}, 0.004, 256, 30},
      // Loose margin: every rung fits, straight down in 3 switches.
      {{0.0, 0.01, 0.04, 0.20}, 0.5, 128, 3},
  };
  constexpr std::size_t kCycles = 20000;
  for (const PolicyCase& pc : cases) {
    std::size_t target = 0;  // cheapest rung whose rate fits the margin
    while (target + 1 < pc.rates.size() &&
           pc.rates[target + 1] <= pc.margin)
      ++target;
    for (std::uint64_t seed = 42; seed <= 46; ++seed) {
      SCOPED_TRACE("margin " + std::to_string(pc.margin) + " seed " +
                   std::to_string(seed));
      const PolicyWalk w = walk_rates(pc, seed, kCycles);
      EXPECT_GT(w.cycles_on[target], kCycles / 2);
      EXPECT_LE(static_cast<double>(w.flagged) / kCycles, pc.margin);
      EXPECT_LE(w.switches, pc.max_switches);
      if (target + 1 == pc.rates.size()) {
        EXPECT_EQ(w.final_rung, target);
      }
    }
  }
}

TEST(ClosedLoopPolicy, Validation) {
  EXPECT_THROW(ClosedLoopController(0), ContractViolation);
}

// ---------------------------------------------------------------- unit
/// A guard-band-shaped ladder: one expensive clean rung (the signoff
/// operating point) and increasingly over-scaled, increasingly
/// erroneous cheap rungs. Only the clean rung may have zero BER —
/// otherwise build_triad_ladder's Pareto filter (correctly) collapses
/// the clean rungs onto the cheapest of them.
std::vector<TriadRung> pipeline_ladder(const SeqDut& seq) {
  const double cp = seq_critical_path_ns(seq, lib());
  CharacterizeConfig cfg;
  cfg.num_patterns = 200;
  cfg.engine = EngineKind::kLevelized;
  const std::vector<OperatingTriad> triads = {
      {1.2 * cp, 1.0, 0.0},
      {0.8 * cp, 0.7, 0.0},
      {0.6 * cp, 0.7, 0.0},
      {0.45 * cp, 0.5, 0.0}};
  return build_triad_ladder(
      characterize_seq_dut(seq, lib(), triads, cfg));
}

TEST(ClosedLoopUnit, DescendsLadderAndSavesEnergy) {
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  const std::vector<TriadRung> ladder = pipeline_ladder(seq);
  ASSERT_GE(ladder.size(), 2u);
  EXPECT_DOUBLE_EQ(ladder.front().expected_ber, 0.0);
  ClosedLoopConfig cfg = fast_config();
  cfg.op_error_margin = 0.6;  // generous floor for an 8x8 multiplier
  TimingSimConfig sim_cfg;
  sim_cfg.engine = EngineKind::kLevelized;
  ClosedLoopSeqUnit unit(seq, lib(), ladder, cfg, sim_cfg);
  Rng rng(17);
  std::size_t deepest = 0;
  for (int c = 0; c < 2000; ++c) {
    const ClosedLoopCycleResult r =
        unit.step_cycle(rng() & 0xFF, rng() & 0xFF);
    deepest = std::max(deepest, r.rung);
  }
  EXPECT_GE(deepest, 1u);  // left the guard-banded rung
  EXPECT_GT(unit.controller().switches(), 0u);
  // Mean energy must beat pinning the safest (guard-banded) rung.
  EXPECT_LT(unit.mean_energy_fj(), ladder.front().energy_per_op_fj);
  EXPECT_EQ(unit.cycles(), 2000u);
}

TEST(ClosedLoopUnit, ZeroMarginPinsSafestRung) {
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  const std::vector<TriadRung> ladder = pipeline_ladder(seq);
  ClosedLoopConfig cfg = fast_config();
  cfg.op_error_margin = 0.0;  // nothing tolerated, nothing gained
  TimingSimConfig sim_cfg;
  sim_cfg.engine = EngineKind::kLevelized;
  ClosedLoopSeqUnit unit(seq, lib(), ladder, cfg, sim_cfg);
  Rng rng(29);
  for (int c = 0; c < 500; ++c)
    unit.step_cycle(rng() & 0xFF, rng() & 0xFF);
  EXPECT_EQ(unit.controller().rung(), 0u);
  EXPECT_EQ(unit.controller().switches(), 0u);
}

TEST(ClosedLoopUnit, WalksToCheaperErrorFreeRung) {
  // Combinational circuits run as single-stage pipelines. Both rungs
  // clear the clock by a wide margin, and the forward-body-biased
  // 0.8 V rung is the cheaper one: the unit moves there once and stays.
  for (const char* circuit : {"rca8", "mul4-array"}) {
    for (const EngineKind kind :
         {EngineKind::kEvent, EngineKind::kLevelized}) {
      SCOPED_TRACE(std::string(circuit) + " on " + engine_kind_name(kind));
      const SeqDut seq = wrap_as_pipeline(build_circuit(circuit));
      const double cp = seq_critical_path_ns(seq, lib());
      const std::vector<TriadRung> ladder = {
          {{1.6 * cp, 1.0, 0.0}, 0.0, 0.0},
          {{1.6 * cp, 0.8, 2.0}, 0.0, 0.0},
      };
      ClosedLoopConfig cfg;
      cfg.window_cycles = 64;
      cfg.min_dwell_cycles = 64;
      TimingSimConfig sim_cfg;
      sim_cfg.engine = kind;
      ClosedLoopSeqUnit unit(seq, lib(), ladder, cfg, sim_cfg);
      const int width = seq.operand_widths()[0];
      Rng rng(48);
      std::uint32_t flags = 0;
      double energy[2] = {0.0, 0.0};
      std::size_t cycles_on[2] = {0, 0};
      for (int c = 0; c < 600; ++c) {
        const ClosedLoopCycleResult r =
            unit.step_cycle(rng.bits(width), rng.bits(width));
        flags |= r.cycle.razor_flags;
        energy[r.rung] += r.cycle.energy_fj;
        ++cycles_on[r.rung];
      }
      EXPECT_EQ(unit.controller().rung(), 1u);
      EXPECT_EQ(unit.controller().switches(), 1u);
      EXPECT_EQ(flags, 0u);
      ASSERT_GT(cycles_on[0], 0u);
      ASSERT_GT(cycles_on[1], 0u);
      EXPECT_LT(energy[1] / cycles_on[1], energy[0] / cycles_on[0]);
    }
  }
}

TEST(ClosedLoopUnit, MeasuredRatesComeFromRazor) {
  // The controller's sensor is the active rung's own monitors: when a
  // violating rung is reached, the unit must retreat from it — the
  // measured rate, not the characterized BER, drives the loop. Each
  // ladder's cheap rung is badly broken but claims to be error-free.
  struct Case {
    SeqDut seq;
    double safe_tclk_cp;   // rung 0's Tclk, in pipeline CPs
    double cheap_tclk_cp;  // rung 1's Tclk, in pipeline CPs
    double cheap_vdd;
    double margin;
    std::size_t window;
    int cycles;
    std::uint64_t seed;
  };
  const Case cases[] = {
      {build_seq_circuit("pipe2-mul8"), 1.2, 0.3, 0.6, 0.05, 32, 1500, 31},
      // A deep-VOS 0.5 V rung under an adder's full clock.
      {wrap_as_pipeline(build_circuit("rca8")), 1.6, 1.6, 0.5, 0.02, 64,
       3000, 49},
  };
  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.seq.kind);
    const double cp = seq_critical_path_ns(tc.seq, lib());
    const std::vector<TriadRung> ladder = {
        {{tc.safe_tclk_cp * cp, 1.0, 0.0}, 0.0, 500.0},
        {{tc.cheap_tclk_cp * cp, tc.cheap_vdd, 0.0}, 0.0, 100.0},
    };
    ClosedLoopConfig cfg;
    cfg.op_error_margin = tc.margin;
    cfg.window_cycles = tc.window;
    cfg.min_dwell_cycles = tc.window;
    TimingSimConfig sim_cfg;
    sim_cfg.engine = EngineKind::kLevelized;
    ClosedLoopSeqUnit unit(tc.seq, lib(), ladder, cfg, sim_cfg);
    const std::uint64_t mask = mask_n(tc.seq.operand_widths()[0]);
    Rng rng(tc.seed);
    bool reached_cheap = false;
    bool retreated = false;
    int cycles_on_cheap = 0;
    for (int c = 0; c < tc.cycles; ++c) {
      const ClosedLoopCycleResult r =
          unit.step_cycle(rng() & mask, rng() & mask);
      if (r.rung == 1) {
        reached_cheap = true;
        ++cycles_on_cheap;
      }
      if (reached_cheap && r.action == SpeculationAction::kStepUp)
        retreated = true;
    }
    EXPECT_TRUE(reached_cheap);  // it probed the cheap rung...
    EXPECT_TRUE(retreated);      // ...and Razor truth exposed it
    // The backoff keeps most cycles on the safe rung.
    EXPECT_LT(cycles_on_cheap, tc.cycles / 2);
    EXPECT_GT(unit.controller().switches(), 1u);
  }
}

}  // namespace
}  // namespace vosim
