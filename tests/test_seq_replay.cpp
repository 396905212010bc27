// Replay against a recorded reference: SeqSim::replay_cycle_batch must
// give step_cycle_batch's results at the same threshold — every
// SeqCycleResult field equal, energy bits included, and the same stage
// monitor statistics — on every registry pipeline, from relaxed to
// saturated thresholds, with references that do and do not truncate,
// at ragged and multi-word counts. The clocked sweep that replays
// (characterize_seq_dut on the levelized engine) is pinned to hashes
// of its results, and the engines' carried-state checkpoints round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/characterize/characterizer.hpp"
#include "src/characterize/triads.hpp"
#include "src/netlist/dut.hpp"
#include "src/obs/metrics.hpp"
#include "src/seq/error_monitor.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_report.hpp"
#include "src/seq/seq_sim.hpp"
#include "src/sim/sim_engine.hpp"
#include "src/tech/library.hpp"
#include "src/util/rng.hpp"
#include "tests/triad_hash.hpp"

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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t counter(const char* name) {
  return obs::metrics().counter(name).value();
}

/// A simulator on the normalized die of `op`, its capture edge moved to
/// `capture_ps` and reset.
std::unique_ptr<SeqSim> sim_at(const SeqDut& seq, const OperatingTriad& op,
                               const TimingSimConfig& cfg,
                               double capture_ps) {
  auto sim = std::make_unique<SeqSim>(seq, lib(), op, cfg);
  EXPECT_TRUE(sim->retarget_capture_ps(capture_ps));
  sim->reset();
  return sim;
}

void expect_same_cycles(std::span<const SeqCycleResult> want,
                        std::span<const SeqCycleResult> got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t c = 0; c < want.size(); ++c) {
    ASSERT_EQ(want[c].captured, got[c].captured) << "cycle " << c;
    ASSERT_EQ(want[c].expected, got[c].expected) << "cycle " << c;
    ASSERT_EQ(want[c].output_valid, got[c].output_valid) << "cycle " << c;
    ASSERT_EQ(want[c].razor_flags, got[c].razor_flags) << "cycle " << c;
    ASSERT_EQ(bits(want[c].energy_fj), bits(got[c].energy_fj))
        << "cycle " << c;
    ASSERT_EQ(bits(want[c].max_settle_ps), bits(got[c].max_settle_ps))
        << "cycle " << c;
  }
}

void expect_same_monitors(const SeqSim& want, const SeqSim& got) {
  for (std::size_t k = 0; k < want.num_stages(); ++k) {
    const DoubleSamplingMonitor& a = want.stage_monitor(k);
    const DoubleSamplingMonitor& b = got.stage_monitor(k);
    EXPECT_EQ(a.total_ops(), b.total_ops()) << k;
    EXPECT_EQ(a.total_flagged_ops(), b.total_flagged_ops()) << k;
    EXPECT_EQ(a.window_fill(), b.window_fill()) << k;
    EXPECT_EQ(bits(a.window_op_error_rate()),
              bits(b.window_op_error_rate()))
        << k;
  }
}

// Every registry pipeline at σ 0 and 0.05 on one operand stream, in
// units of W, the latest commit the stream makes at a relaxed clock:
// two references, one above W (1.2 W) and one below it (0.9 W, so it
// truncates), each replayed at the thresholds from itself down to
// saturation (0.97, 0.9, 0.7 and 0.4 W), over prefixes that end inside,
// on and just past a lane word. Replays alternate one call per stream
// and one call per lane word. Copied plus simulated cycles must add up
// to every replay's budget, and the relaxed reference must let the
// onset replays copy words.
TEST(SeqReplay, MatchesSteppingAcrossRegistry) {
  const std::vector<std::size_t> counts = {1, 63, 64, 65, 130, 2000};
  const std::vector<double> fracs = {1.2, 0.97, 0.9, 0.7, 0.4};
  for (const std::string& spec : seq_circuit_registry()) {
    const SeqDut seq = build_seq_circuit(spec);
    const std::size_t nops = seq.num_operands();
    const double cp_ns = seq_critical_path_ns(seq, lib());
    const OperatingTriad op{2.0 * cp_ns, 1.0, 0.0};
    const std::vector<std::uint64_t> stream =
        random_operands(seq, counts.back(), 31);
    for (const double sigma : {0.0, 0.05}) {
      TimingSimConfig cfg;
      cfg.engine = EngineKind::kLevelized;
      cfg.variation_sigma = sigma;
      cfg.variation_seed = 7;
      double worst = 0.0;
      {
        auto relaxed = sim_at(seq, op, cfg, 2.0 * cp_ns * 1e3);
        std::vector<SeqCycleResult> rs(counts.back());
        relaxed->step_cycle_batch(stream, counts.back(), rs);
        for (const SeqCycleResult& r : rs)
          worst = std::max(worst, r.max_settle_ps);
      }
      std::uint64_t copied = 0;
      for (const std::size_t count : counts) {
        SCOPED_TRACE(spec + " sigma " + std::to_string(sigma) + " count " +
                     std::to_string(count));
        const std::span<const std::uint64_t> ops(stream.data(),
                                                 count * nops);
        std::vector<SeqRecording> recs;
        for (const double ref_frac : {1.2, 0.9})
          recs.push_back(sim_at(seq, op, cfg, ref_frac * worst)
                             ->record_cycle_batch(ops, count));
        if (count == counts.back()) {
          // The low reference really commits past its edge.
          double latest = 0.0;
          for (const SeqCycleResult& r : recs[1].results())
            latest = std::max(latest, r.max_settle_ps);
          EXPECT_GE(latest, recs[1].capture_ps());
        }
        for (std::size_t i = 0; i < fracs.size(); ++i) {
          const double tau = fracs[i] * worst;
          SCOPED_TRACE("threshold " + std::to_string(fracs[i]) + " W");
          auto stepper = sim_at(seq, op, cfg, tau);
          std::vector<SeqCycleResult> want(count);
          stepper->step_cycle_batch(ops, count, want);
          for (const SeqRecording& rec : recs) {
            if (tau > rec.capture_ps()) continue;
            SCOPED_TRACE("reference " +
                         std::to_string(rec.capture_ps() / worst) + " W");
            if (tau == rec.capture_ps())
              expect_same_cycles(want, rec.results());
            auto replayer = sim_at(seq, op, cfg, tau);
            std::vector<SeqCycleResult> got(count);
            const std::uint64_t reused0 = counter("sim.seq.reused_cycles");
            const std::uint64_t simulated0 = counter("sim.levelized.cycles");
            if (i % 2 == 0) {
              replayer->replay_cycle_batch(rec, ops, count, got);
            } else {
              for (std::size_t first = 0; first < count; first += 64) {
                const std::size_t n = std::min<std::size_t>(64, count - first);
                replayer->replay_cycle_batch(
                    rec, ops.subspan(first * nops, n * nops), n,
                    {got.data() + first, n});
              }
            }
            const std::uint64_t reused =
                counter("sim.seq.reused_cycles") - reused0;
            const std::uint64_t simulated =
                counter("sim.levelized.cycles") - simulated0;
            EXPECT_EQ(reused + simulated / seq.num_stages(), count);
            if (&rec == &recs[0] && fracs[i] < 1.0) copied += reused;
            expect_same_cycles(want, got);
            expect_same_monitors(*stepper, *replayer);
            EXPECT_EQ(replayer->cycles(), stepper->cycles());
          }
        }
      }
      EXPECT_GT(copied, 0u) << spec << " sigma " << sigma;
    }
  }
}

// A word the recording entered unsettled is simulated, even when all
// its commits land before the replay's threshold: a catch-up commit
// lands at min(gate delay, 0.999 × threshold), so it moves with the
// threshold. A registered buffer slower than the recorded edge
// truncates the input's rise in the last cycle of word 0; word 1 then
// opens with the buffer's catch-up at 0.999 × the recorded edge, which
// a replay a hair below that edge must place at 0.999 × its own.
TEST(SeqReplay, UnsettledWordIsSimulated) {
  Netlist nl("buf1");
  const NetId a = nl.add_input("a_0");
  const NetId y = nl.add_gate(CellKind::kBuf, {a}, "y");
  nl.mark_output(y);
  nl.finalize();
  const SeqDut seq = wrap_as_pipeline(DutNetlist{.netlist = std::move(nl),
                                                 .inputs = {DutBus{"a", {a}}},
                                                 .outputs = {y},
                                                 .kind = "buf1",
                                                 .display_name = "buf1"});
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kLevelized;
  const OperatingTriad op{1.0, 1.0, 0.0};
  std::vector<std::uint64_t> ops(128, 0);
  std::fill(ops.begin() + 63, ops.end(), 1);
  double delay = 0.0;  // the buffer's delay: its commit time on a rise
  {
    auto relaxed = sim_at(seq, op, cfg, 900.0);
    std::vector<SeqCycleResult> rs(128);
    relaxed->step_cycle_batch(ops, 128, rs);
    delay = rs[63].max_settle_ps;
  }
  ASSERT_GT(delay, 0.0);
  const double ref_ps = 0.9 * delay;
  const SeqRecording rec =
      sim_at(seq, op, cfg, ref_ps)->record_cycle_batch(ops, 128);
  ASSERT_EQ(rec.results()[64].max_settle_ps, 0.999 * ref_ps);
  const double tau = 0.9995 * ref_ps;
  auto stepper = sim_at(seq, op, cfg, tau);
  std::vector<SeqCycleResult> want(128);
  stepper->step_cycle_batch(ops, 128, want);
  auto replayer = sim_at(seq, op, cfg, tau);
  std::vector<SeqCycleResult> got(128);
  replayer->replay_cycle_batch(rec, ops, 128, got);
  EXPECT_EQ(want[64].max_settle_ps, 0.999 * tau);
  expect_same_cycles(want, got);
}

// A replayed stream continues only through replay_cycle_batch; reset()
// starts a new stream, and a replay may not outrun its recording.
TEST(SeqReplay, ReplayedStreamRejectsStepping) {
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  const double cp_ns = seq_critical_path_ns(seq, lib());
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kLevelized;
  const OperatingTriad op{2.0 * cp_ns, 1.0, 0.0};
  const std::vector<std::uint64_t> ops = random_operands(seq, 128, 5);
  auto recorder = sim_at(seq, op, cfg, 1.2 * cp_ns * 1e3);
  const SeqRecording rec = recorder->record_cycle_batch(ops, 128);
  auto sim = sim_at(seq, op, cfg, 0.9 * cp_ns * 1e3);
  std::vector<SeqCycleResult> out(128);
  sim->replay_cycle_batch(rec, {ops.data(), 64 * 2}, 64, out);
  EXPECT_THROW(sim->step_cycle_batch({ops.data(), 2}, 1, out),
               ContractViolation);
  EXPECT_THROW(sim->replay_cycle_batch(rec, {ops.data(), 2}, 1, out),
               ContractViolation);
  sim->reset();
  sim->step_cycle_batch({ops.data(), 2}, 1, out);
  // Above the recorded threshold nothing can be copied.
  auto above = sim_at(seq, op, cfg, 1.3 * cp_ns * 1e3);
  EXPECT_THROW(above->replay_cycle_batch(rec, ops, 128, out),
               ContractViolation);
}

// The levelized engine's carried state round-trips through a
// checkpoint mid-stream at a truncating clock; the event engine keeps
// in-flight transitions a net-value checkpoint cannot hold.
TEST(SeqReplay, CarriedStateRoundTrips) {
  const DutNetlist dut = build_circuit("rca8");
  const DutPinMap pins(dut);
  const std::size_t npis = dut.netlist.primary_inputs().size();
  Rng rng(17);
  std::vector<lanes::Word> words(npis);
  const auto fill = [&] {
    std::vector<std::uint64_t> ops(2 * 64);
    for (auto& o : ops) o = rng.bits(8);
    std::fill(words.begin(), words.end(), lanes::Word{0});
    pins.scatter_lanes(ops, 64, words);
  };
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kLevelized;
  const auto eng = make_engine(dut.netlist, lib(), {0.08, 1.0, 0.0}, cfg);
  std::vector<StepResult> first(64);
  std::vector<StepResult> again(64);
  fill();
  eng->step_cycle_batch(words, 64, first);
  std::vector<lanes::Word> saved(lanes::words_for(dut.netlist.num_nets()));
  ASSERT_TRUE(eng->save_carried_state(saved));
  fill();
  eng->step_cycle_batch(words, 64, first);
  ASSERT_TRUE(eng->restore_carried_state(saved));
  eng->step_cycle_batch(words, 64, again);
  for (std::size_t k = 0; k < 64; ++k) {
    EXPECT_EQ(first[k].sampled_outputs, again[k].sampled_outputs) << k;
    EXPECT_EQ(bits(first[k].window_energy_fj),
              bits(again[k].window_energy_fj))
        << k;
    EXPECT_EQ(bits(first[k].settle_time_ps), bits(again[k].settle_time_ps))
        << k;
  }
  TimingSimConfig ev_cfg;
  const auto ev = make_engine(dut.netlist, lib(), {0.08, 1.0, 0.0}, ev_cfg);
  EXPECT_FALSE(ev->save_carried_state(saved));
  EXPECT_FALSE(ev->restore_carried_state(saved));
}

// The clocked sweep on the levelized engine, pinned to hashes its
// results had before replays reused the reference trajectory: all 43
// make_dut_triads triads at 2 000 patterns (σ 0.03), and an over-scaled
// seven-triad set at 3 000 patterns (σ 0.05).
TEST(SeqReplay, ClockedSweepMatchesGoldenPin) {
  struct Pin {
    const char* spec;
    std::uint64_t grid;
    std::uint64_t over;
  };
  const Pin pins[] = {
      {"fir4-pipe", 0x36b7ebb6caee716dULL, 0x82cdc7deec20eafbULL},
      {"pipe2-mul8", 0xdd486f278e910ee8ULL, 0xb6663094dd77d57aULL},
      {"pipe3-mac4x8", 0x754a33dc4be8b1fbULL, 0xf9a2fac8f8539cc1ULL},
  };
  for (const Pin& pin : pins) {
    const SeqDut seq = build_seq_circuit(pin.spec);
    const double cp = seq_critical_path_ns(seq, lib());
    const std::vector<OperatingTriad> triads = make_dut_triads(cp);
    ASSERT_EQ(triads.size(), 43u);
    CharacterizeConfig cfg;
    cfg.num_patterns = 2000;
    cfg.pattern_seed = 2024;
    cfg.engine = EngineKind::kLevelized;
    EXPECT_EQ(hash_results(characterize_seq_dut(seq, lib(), triads, cfg)),
              pin.grid)
        << pin.spec;
    const std::vector<OperatingTriad> over = {
        {1.0 * cp, 1.0, 0.0}, {0.8 * cp, 1.0, 0.0},
        {0.6 * cp, 1.0, 0.0}, {0.8 * cp, 0.9, 2.0},
        {0.6 * cp, 0.8, 2.0}, {0.5 * cp, 0.7, 0.0},
        {0.4 * cp, 0.6, 0.0}};
    cfg.num_patterns = 3000;
    cfg.variation_sigma = 0.05;
    EXPECT_EQ(hash_results(characterize_seq_dut(seq, lib(), over, cfg)),
              pin.over)
        << pin.spec;
  }
}

}  // namespace
}  // namespace vosim
