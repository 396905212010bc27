// Split-invariance of the clocked path: SeqSim has one clocked body
// (step_cycle_batch), and a stream fed as 64-cycle lane-word batches
// must be bit-exact against the same stream fed one cycle per call
// (step_cycle, a one-cycle batch: one-lane engine passes) — sampled
// and expected output words, per-cycle energy (same floating-point
// accumulation order), Razor flag words and the stage monitors'
// lifetime/window statistics — on every registry pipeline, on both
// engines, across the error-onset band, including operation counts
// that do not fill a whole 64-cycle lane word. The closed-loop unit is
// held to the same: run_batch against one step_cycle per cycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/runtime/closed_loop.hpp"
#include "src/runtime/triad_ladder.hpp"
#include "src/seq/error_monitor.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_report.hpp"
#include "src/seq/seq_sim.hpp"
#include "src/tech/library.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() {
  static const CellLibrary& l = make_fdsoi28_lvt();
  return l;
}

std::vector<std::uint64_t> random_operands(const SeqDut& seq,
                                           std::size_t cycles,
                                           std::uint64_t seed) {
  const std::size_t nops = seq.num_operands();
  std::vector<std::uint64_t> ops(cycles * nops);
  Rng rng(seed);
  for (std::size_t c = 0; c < cycles; ++c)
    for (std::size_t o = 0; o < nops; ++o)
      ops[c * nops + o] = rng.bits(seq.operand_width(o));
  return ops;
}

/// Runs `cycles` one-cycle step_cycle calls and one step_cycle_batch
/// over the same operand stream on two identically-configured
/// simulators and asserts every per-cycle field and every stage monitor
/// statistic matches exactly.
void expect_batch_matches_scalar(const SeqDut& seq,
                                 const OperatingTriad& op,
                                 EngineKind engine, std::size_t cycles,
                                 std::uint64_t seed) {
  TimingSimConfig cfg;
  cfg.engine = engine;
  SeqSim scalar(seq, lib(), op, cfg);
  SeqSim batched(seq, lib(), op, cfg);
  const std::size_t nops = seq.num_operands();
  const std::vector<std::uint64_t> ops =
      random_operands(seq, cycles, seed);

  std::vector<SeqCycleResult> want(cycles);
  for (std::size_t c = 0; c < cycles; ++c)
    want[c] = scalar.step_cycle(
        std::span<const std::uint64_t>(ops.data() + c * nops, nops));

  std::vector<SeqCycleResult> got(cycles);
  batched.step_cycle_batch(ops, cycles, got);

  for (std::size_t c = 0; c < cycles; ++c) {
    ASSERT_EQ(want[c].output_valid, got[c].output_valid) << c;
    ASSERT_EQ(want[c].captured, got[c].captured) << c;
    ASSERT_EQ(want[c].expected, got[c].expected) << c;
    ASSERT_EQ(want[c].razor_flags, got[c].razor_flags) << c;
    ASSERT_DOUBLE_EQ(want[c].energy_fj, got[c].energy_fj) << c;
    ASSERT_DOUBLE_EQ(want[c].max_settle_ps, got[c].max_settle_ps) << c;
  }
  for (std::size_t k = 0; k < seq.num_stages(); ++k) {
    const DoubleSamplingMonitor& ms = scalar.stage_monitor(k);
    const DoubleSamplingMonitor& mb = batched.stage_monitor(k);
    EXPECT_EQ(ms.total_ops(), mb.total_ops()) << k;
    EXPECT_EQ(ms.total_flagged_ops(), mb.total_flagged_ops()) << k;
    EXPECT_EQ(ms.window_fill(), mb.window_fill()) << k;
    EXPECT_DOUBLE_EQ(ms.window_op_error_rate(),
                     mb.window_op_error_rate())
        << k;
  }
}

// Every registry pipeline, both engines, over the error-onset band
// (relaxed, at the knee, and past it) with a 130-cycle stream — two
// full lane words plus a ragged 2-lane tail.
TEST(SeqBatch, MatchesScalarAcrossRegistryEnginesAndOnsetBand) {
  for (const std::string& spec : seq_circuit_registry()) {
    const SeqDut seq = build_seq_circuit(spec);
    const double cp = seq_critical_path_ns(seq, lib());
    const std::vector<OperatingTriad> band = {
        {1.1 * cp, 1.0, 0.0},   // error-free
        {0.85 * cp, 1.0, 0.0},  // onset knee
        {0.6 * cp, 0.9, 0.0},   // saturated over-scale
    };
    for (const EngineKind engine :
         {EngineKind::kEvent, EngineKind::kLevelized}) {
      for (const OperatingTriad& op : band) {
        SCOPED_TRACE(spec);
        expect_batch_matches_scalar(seq, op, engine, 130, 99);
      }
    }
  }
}

// Ragged lane-word boundaries: a single cycle, one lane short of a
// word, exactly one word, one lane over, and a two-word ragged tail
// must all agree with the scalar loop.
TEST(SeqBatch, RaggedCountsMatchScalar) {
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  const double cp = seq_critical_path_ns(seq, lib());
  const OperatingTriad op{0.8 * cp, 1.0, 0.0};
  for (const std::size_t cycles : {std::size_t{1}, std::size_t{63},
                                   std::size_t{64}, std::size_t{65},
                                   std::size_t{130}})
    expect_batch_matches_scalar(seq, op, EngineKind::kLevelized, cycles,
                                7 + cycles);
}

// The monitor's word ingest is the batched path's contract: feeding
// record_word(sampled ^ settled) must report exactly what per-op
// observe() reports, including window semantics.
TEST(SeqBatch, RecordWordMatchesObserve) {
  DoubleSamplingMonitor a(16, 8);
  DoubleSamplingMonitor b(16, 8);
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t sampled = rng.bits(16);
    // Bias towards agreement so flagged and clean ops both occur.
    const std::uint64_t settled =
        (i % 3 == 0) ? sampled ^ rng.bits(4) : sampled;
    a.observe(sampled, settled);
    b.record_word(sampled ^ settled);
    ASSERT_EQ(a.total_ops(), b.total_ops());
    ASSERT_EQ(a.total_flagged_ops(), b.total_flagged_ops());
    ASSERT_DOUBLE_EQ(a.window_op_error_rate(), b.window_op_error_rate());
    ASSERT_EQ(a.window_fill(), b.window_fill());
  }
}

// The closed-loop unit's run_batch must replay the scalar control
// trajectory exactly: same rung at every cycle, same captured words,
// same switch count, same accumulated energy.
TEST(SeqBatch, ClosedLoopRunBatchMatchesScalar) {
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  const double cp = seq_critical_path_ns(seq, lib());
  // Hand-built ladder — no characterization needed for equivalence.
  const std::vector<TriadRung> ladder = {
      {{1.1 * cp, 1.0, 0.0}, 0.0, 100.0},
      {{0.85 * cp, 1.0, 0.0}, 0.005, 70.0},
      {{0.7 * cp, 0.95, 0.0}, 0.05, 50.0},
  };
  ClosedLoopConfig cfg;
  cfg.window_cycles = 48;
  cfg.min_dwell_cycles = 48;
  cfg.op_error_margin = 0.1;
  TimingSimConfig sim_cfg;
  sim_cfg.engine = EngineKind::kLevelized;

  const std::size_t cycles = 700;  // several windows, ragged tail
  const std::vector<std::uint64_t> ops =
      random_operands(seq, cycles, 2024);

  ClosedLoopSeqUnit scalar(seq, lib(), ladder, cfg, sim_cfg);
  std::vector<ClosedLoopCycleResult> want(cycles);
  const std::size_t nops = seq.num_operands();
  for (std::size_t c = 0; c < cycles; ++c)
    want[c] = scalar.step_cycle(
        std::span<const std::uint64_t>(ops.data() + c * nops, nops));

  ClosedLoopSeqUnit batched(seq, lib(), ladder, cfg, sim_cfg);
  std::vector<ClosedLoopCycleResult> got(cycles);
  batched.run_batch(ops, cycles, got);

  for (std::size_t c = 0; c < cycles; ++c) {
    ASSERT_EQ(want[c].rung, got[c].rung) << c;
    ASSERT_EQ(want[c].cycle.captured, got[c].cycle.captured) << c;
    ASSERT_EQ(want[c].cycle.razor_flags, got[c].cycle.razor_flags) << c;
    ASSERT_DOUBLE_EQ(want[c].cycle.energy_fj, got[c].cycle.energy_fj)
        << c;
  }
  EXPECT_EQ(scalar.controller().switches(), batched.controller().switches());
  EXPECT_DOUBLE_EQ(scalar.mean_energy_fj(), batched.mean_energy_fj());
}

}  // namespace
}  // namespace vosim
