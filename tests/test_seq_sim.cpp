// Clocked-simulation tests: engine step_cycle semantics, pipeline
// correctness at relaxed Tclk, cross-engine equivalence (bit-exact
// relaxed, bounded divergence over-scaled), Razor detection from
// simulator truth, energy accounting and characterize_seq_dut.
#include <gtest/gtest.h>

#include <cmath>

#include "src/characterize/characterizer.hpp"
#include "src/netlist/dut.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_report.hpp"
#include "src/seq/seq_sim.hpp"
#include "src/sim/sim_engine.hpp"
#include "src/tech/library.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

/// One operation on a bare engine: the operands scattered into lane 0
/// and a one-lane step_batch (clocked = false) or step_cycle_batch.
StepResult one_op(SimEngine& eng, const DutPinMap& pins,
                  std::span<const std::uint64_t> ops, bool clocked) {
  std::vector<lanes::Word> words(eng.netlist().primary_inputs().size());
  pins.scatter_lanes(ops, 1, words);
  StepResult r;
  if (clocked)
    eng.step_cycle_batch(words, 1, {&r, 1});
  else
    eng.step_batch(words, 1, {&r, 1});
  return r;
}

/// A relaxed triad for a pipeline: every stage settles well inside the
/// cycle, so clocked operation must be functionally exact.
OperatingTriad relaxed_triad(const SeqDut& seq) {
  return {1.5 * seq_critical_path_ns(seq, lib()), 1.0, 0.0};
}

// ------------------------------------------------- engine step_cycle
TEST(StepCycle, MatchesStepWhenRelaxed) {
  // On a quiet circuit with a generous clock, one-op clocked and
  // streaming calls (step_cycle_batch vs step_batch) see identical
  // sampled/settled words on both engines.
  const DutNetlist dut = build_circuit("rca8");
  const double cp =
      1.5 * synthesize_report(dut.netlist, lib()).critical_path_ns;
  for (const EngineKind kind :
       {EngineKind::kEvent, EngineKind::kLevelized}) {
    TimingSimConfig cfg;
    cfg.engine = kind;
    const auto cycle_eng =
        make_engine(dut.netlist, lib(), {cp, 1.0, 0.0}, cfg);
    const auto step_eng =
        make_engine(dut.netlist, lib(), {cp, 1.0, 0.0}, cfg);
    const DutPinMap pins(dut);
    Rng rng(3);
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t ops[2] = {rng() & 0xFF, rng() & 0xFF};
      const StepResult c = one_op(*cycle_eng, pins, ops, true);
      const StepResult s = one_op(*step_eng, pins, ops, false);
      EXPECT_EQ(c.sampled_outputs, s.sampled_outputs);
      EXPECT_EQ(c.settled_outputs, s.settled_outputs);
      EXPECT_EQ(pins.gather_output(c.sampled_outputs), ops[0] + ops[1]);
    }
  }
}

TEST(StepCycle, TruncatesAtTightClock) {
  // With the clock far below the carry chain's settle time the sampled
  // word must diverge from the settled word, on both engines, and the
  // error must persist as launch state instead of being settled away.
  const DutNetlist dut = build_circuit("rca8");
  const DutPinMap pins(dut);
  for (const EngineKind kind :
       {EngineKind::kEvent, EngineKind::kLevelized}) {
    TimingSimConfig cfg;
    cfg.engine = kind;
    const auto eng =
        make_engine(dut.netlist, lib(), {0.02, 1.0, 0.0}, cfg);
    const std::uint64_t ops[2] = {0xFF, 0x01};  // full carry ripple
    const StepResult st = one_op(*eng, pins, ops, true);
    EXPECT_EQ(pins.gather_output(st.settled_outputs), 0x100u)
        << engine_kind_name(kind);
    EXPECT_NE(st.sampled_outputs, st.settled_outputs)
        << engine_kind_name(kind);
  }
}

TEST(StepCycle, EventInFlightEventsLandNextCycle) {
  // Event engine: transitions cut off by the edge stay in flight and
  // commit early in the next cycle — holding the same inputs for a few
  // cycles converges the sampled word to the settled sum.
  const DutNetlist dut = build_circuit("rca8");
  const DutPinMap pins(dut);
  TimingSimConfig cfg;  // event engine
  const auto eng = make_engine(dut.netlist, lib(), {0.06, 1.0, 0.0}, cfg);
  const std::uint64_t ops[2] = {0xFF, 0x01};
  StepResult st = one_op(*eng, pins, ops, true);
  EXPECT_NE(st.sampled_outputs, st.settled_outputs);
  for (int c = 0; c < 20; ++c) st = one_op(*eng, pins, ops, true);
  EXPECT_EQ(pins.gather_output(st.sampled_outputs), 0x100u);
}

// ------------------------------------------------------ pipeline sim
TEST(SeqSimTest, RelaxedPipelineIsExactAndRazorClean) {
  for (const char* spec : {"pipe2-mul8", "pipe3-mac4x8", "fir4-pipe"}) {
    const SeqDut seq = build_seq_circuit(spec);
    SeqSim sim(seq, lib(), relaxed_triad(seq));
    Rng rng(11);
    std::vector<std::uint64_t> ops(seq.num_operands());
    for (int c = 0; c < 80; ++c) {
      for (auto& o : ops) o = rng() & 0xFF;
      const SeqCycleResult r = sim.step_cycle(ops);
      EXPECT_EQ(r.razor_flags, 0u) << spec;
      EXPECT_EQ(r.output_valid, c + 1 >= (int)seq.latency_cycles());
      if (r.output_valid) {
        EXPECT_EQ(r.captured, r.expected) << spec;
      }
      EXPECT_GT(r.energy_fj, 0.0);
    }
    for (std::size_t k = 0; k < seq.num_stages(); ++k)
      EXPECT_EQ(sim.stage_monitor(k).total_flagged_ops(), 0u);
  }
}

TEST(SeqSimTest, CrossEngineBitExactAtRelaxedTclk) {
  for (const char* spec : {"pipe2-mul8", "pipe3-mac4x8"}) {
    const SeqDut seq = build_seq_circuit(spec);
    TimingSimConfig ev_cfg;
    ev_cfg.engine = EngineKind::kEvent;
    TimingSimConfig lev_cfg;
    lev_cfg.engine = EngineKind::kLevelized;
    SeqSim ev(seq, lib(), relaxed_triad(seq), ev_cfg);
    SeqSim lev(seq, lib(), relaxed_triad(seq), lev_cfg);
    Rng rng(23);
    std::vector<std::uint64_t> ops(seq.num_operands());
    for (int c = 0; c < 60; ++c) {
      for (auto& o : ops) o = rng() & 0xFF;
      const SeqCycleResult a = ev.step_cycle(ops);
      const SeqCycleResult b = lev.step_cycle(ops);
      EXPECT_EQ(a.captured, b.captured) << spec << " cycle " << c;
      EXPECT_EQ(a.razor_flags, b.razor_flags) << spec;
      EXPECT_EQ(a.expected, b.expected) << spec;
    }
  }
}

TEST(SeqSimTest, OverscaledRazorFlagsFire) {
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  const double cp = seq_critical_path_ns(seq, lib());
  SeqSim sim(seq, lib(), {0.45 * cp, 0.7, 0.0});
  Rng rng(5);
  std::uint64_t flagged = 0;
  int mismatches = 0;
  for (int c = 0; c < 200; ++c) {
    const SeqCycleResult r =
        sim.step_cycle(rng() & 0xFF, rng() & 0xFF);
    flagged |= r.razor_flags;
    if (r.output_valid && r.captured != r.expected) ++mismatches;
  }
  EXPECT_NE(flagged, 0u);
  EXPECT_GT(mismatches, 0);
  EXPECT_GT(sim.worst_stage_op_error_rate(), 0.0);
  // Razor truth drives the monitors: some stage saw flagged ops.
  std::uint64_t monitor_flags = 0;
  for (std::size_t k = 0; k < seq.num_stages(); ++k)
    monitor_flags += sim.stage_monitor(k).total_flagged_ops();
  EXPECT_GT(monitor_flags, 0u);
}

TEST(SeqSimTest, EnergyIncludesRegisterClock) {
  const SeqDut seq = build_seq_circuit("fir4-pipe");
  SeqSim sim(seq, lib(), relaxed_triad(seq));
  const double clock = sim.clock_energy_fj_per_cycle();
  EXPECT_DOUBLE_EQ(clock, seq_clock_energy_fj(seq, lib(), 1.0));
  // A cycle with zero switching still pays clock + leakage.
  const std::vector<std::uint64_t> zeros(seq.num_operands(), 0);
  sim.step_cycle(zeros);
  const SeqCycleResult r = sim.step_cycle(zeros);
  EXPECT_NEAR(r.energy_fj,
              clock + sim.leakage_energy_fj_per_cycle(), 1e-9);
}

// ------------------------------------------------- characterize_seq
TEST(CharacterizeSeq, RelaxedGridErrorFreeAndDeterministic) {
  const SeqDut seq = build_seq_circuit("fir4-pipe");
  const double cp = seq_critical_path_ns(seq, lib());
  CharacterizeConfig cfg;
  cfg.num_patterns = 300;
  cfg.engine = EngineKind::kLevelized;
  const std::vector<OperatingTriad> triads = {
      {1.5 * cp, 1.0, 0.0}, {1.0 * cp, 1.0, 0.0}, {0.5 * cp, 0.6, 0.0}};
  const auto a = characterize_seq_dut(seq, lib(), triads, cfg);
  const auto b = characterize_seq_dut(seq, lib(), triads, cfg);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].ber, 0.0);
  EXPECT_GT(a[2].ber, 0.0);  // deep over-scale must fail
  EXPECT_GT(a[0].energy_per_op_fj,
            a[0].leakage_energy_fj);  // clock energy is in there
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_DOUBLE_EQ(a[t].ber, b[t].ber);
    EXPECT_DOUBLE_EQ(a[t].energy_per_op_fj, b[t].energy_per_op_fj);
  }
}

TEST(CharacterizeSeq, CrossEngineWithinTwoPointsOnOverscaledGrid) {
  // The acceptance gate: event vs levelized step_cycle BER within 2pp
  // over the over-scaled grid, judged in the error-onset band (event
  // BER <= 2% — the regime an application quality floor can accept).
  // Past the knee the pipeline is saturated-broken, cross-cycle error
  // feedback is chaotic, and the levelized backend over-predicts
  // (conservative for the controller); DESIGN.md §10.
  for (const char* spec : {"pipe2-mul8", "pipe3-mac4x8"}) {
    const SeqDut seq = build_seq_circuit(spec);
    const double cp = seq_critical_path_ns(seq, lib());
    CharacterizeConfig ev;
    ev.num_patterns = 250;
    ev.engine = EngineKind::kEvent;
    CharacterizeConfig lev = ev;
    lev.engine = EngineKind::kLevelized;
    const std::vector<OperatingTriad> triads = {
        {1.0 * cp, 1.0, 0.0}, {0.8 * cp, 1.0, 0.0},
        {0.6 * cp, 1.0, 0.0}, {0.8 * cp, 0.9, 2.0},
        {0.6 * cp, 0.8, 2.0}, {0.5 * cp, 0.7, 0.0},
        {0.4 * cp, 0.6, 0.0}};
    const auto re = characterize_seq_dut(seq, lib(), triads, ev);
    const auto rl = characterize_seq_dut(seq, lib(), triads, lev);
    int onset_points = 0;
    for (std::size_t t = 0; t < triads.size(); ++t) {
      if (re[t].ber > 0.02) continue;  // saturated-broken regime
      ++onset_points;
      EXPECT_NEAR(re[t].ber, rl[t].ber, 0.02)
          << spec << " @ " << triad_label(triads[t]);
    }
    // The band must actually cover most of the grid, including at
    // least the mild over-scaled points.
    EXPECT_GE(onset_points, 5) << spec;
    // Relaxed rung: bit-exact zero on both engines.
    EXPECT_DOUBLE_EQ(re[0].ber, 0.0);
    EXPECT_DOUBLE_EQ(rl[0].ber, 0.0);
  }
}

}  // namespace
}  // namespace vosim
