// Cross-engine differential fuzz test at relaxed clocks, fixed seed:
// every combinational registry circuit and every registry pipeline, at
// three random paper (Vdd, Vbb) points each with its own varied die
// (per-gate sigma 0.05), fed uniform operands in calls of 1, 63, 64,
// 65 and 130 operations. With Tclk at twice the critical path at that
// point (plus the flop setup time for pipelines) everything settles
// inside the cycle, so the event and levelized engines must agree bit
// for bit, no Razor flag may rise, and every valid pipeline output must
// equal seq_settled_output of the operands latency_cycles() - 1 cycles
// earlier — a golden computed independently of SeqSim.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/characterize/triads.hpp"
#include "src/netlist/dut.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_sim.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/sta.hpp"
#include "src/tech/library.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

constexpr std::uint64_t kSeed = 0xF0221E5ULL;
constexpr std::size_t kRuns[] = {1, 63, 64, 65, 130};
constexpr int kPointsPerCircuit = 3;

/// A random paper (Vdd, Vbb) point and a die seed.
struct Point {
  double vdd_v = 1.0;
  double vbb_v = 0.0;
  std::uint64_t die_seed = 1;
};

Point random_point(Rng& rng) {
  const std::vector<double> vdd = paper_vdd_steps();
  const std::vector<double> vbb = paper_vbb_steps();
  Point p;
  p.vdd_v = vdd[rng.below(vdd.size())];
  p.vbb_v = vbb[rng.below(vbb.size())];
  p.die_seed = rng();
  return p;
}

TimingSimConfig die_config(const Point& p, EngineKind engine) {
  TimingSimConfig cfg;
  cfg.variation_sigma = 0.05;
  cfg.variation_seed = p.die_seed;
  cfg.engine = engine;
  return cfg;
}

/// Critical path (ps) of a netlist at the point's supply and bias.
double critical_path_ps(const Netlist& nl, const Point& p) {
  return analyze_timing(nl, lib(), {1.0, p.vdd_v, p.vbb_v}).critical_path_ps;
}

/// Uniform operands for `count` operations, operation-major.
std::vector<std::uint64_t> uniform_operands(Rng& rng,
                                            std::span<const int> widths,
                                            std::size_t count) {
  std::vector<std::uint64_t> ops;
  ops.reserve(count * widths.size());
  for (std::size_t k = 0; k < count; ++k)
    for (const int w : widths) ops.push_back(rng.bits(w));
  return ops;
}

TEST(EngineFuzz, CombinationalEnginesAgreeAtRelaxedClock) {
  Rng rng(kSeed);
  std::size_t checks = 0;
  for (const std::string& spec : circuit_registry_examples()) {
    const DutNetlist dut = build_circuit(spec);
    const std::vector<int> widths = dut.operand_widths();
    for (int pt = 0; pt < kPointsPerCircuit; ++pt) {
      const Point p = random_point(rng);
      const OperatingTriad op{2.0 * critical_path_ps(dut.netlist, p) * 1e-3,
                              p.vdd_v, p.vbb_v};
      VosDutSim ev(dut, lib(), op, die_config(p, EngineKind::kEvent));
      VosDutSim lev(dut, lib(), op, die_config(p, EngineKind::kLevelized));
      for (const std::size_t run : kRuns) {
        const std::vector<std::uint64_t> ops =
            uniform_operands(rng, widths, run);
        std::vector<VosOpResult> re(run);
        std::vector<VosOpResult> rl(run);
        ev.apply_batch(ops, run, re);
        lev.apply_batch(ops, run, rl);
        for (std::size_t k = 0; k < run; ++k) {
          ASSERT_EQ(re[k].sampled, rl[k].sampled)
              << spec << " Vdd " << p.vdd_v << " Vbb " << p.vbb_v
              << " run " << run << " op " << k;
          ASSERT_EQ(re[k].settled, rl[k].settled)
              << spec << " Vdd " << p.vdd_v << " Vbb " << p.vbb_v
              << " run " << run << " op " << k;
          checks += 2;
        }
      }
    }
  }
  EXPECT_EQ(checks, circuit_registry_examples().size() * kPointsPerCircuit *
                        2 * (1 + 63 + 64 + 65 + 130));
}

TEST(EngineFuzz, PipelineEnginesAgreeAtRelaxedClock) {
  Rng rng(kSeed ^ 0x5E9ULL);
  std::size_t checks = 0;
  for (const std::string& spec : seq_circuit_registry()) {
    const SeqDut seq = build_seq_circuit(spec);
    std::vector<int> widths;
    for (std::size_t b = 0; b < seq.num_operands(); ++b)
      widths.push_back(seq.operand_width(b));
    const std::size_t nops = seq.num_operands();
    const std::size_t lag = seq.latency_cycles() - 1;
    for (int pt = 0; pt < kPointsPerCircuit; ++pt) {
      const Point p = random_point(rng);
      double cp_ps = 0.0;
      for (const DutNetlist& stage : seq.stages)
        cp_ps = std::max(cp_ps, critical_path_ps(stage.netlist, p));
      const OperatingTriad op{(2.0 * cp_ps + lib().dff_setup_ps()) * 1e-3,
                              p.vdd_v, p.vbb_v};
      SeqSim ev(seq, lib(), op, die_config(p, EngineKind::kEvent));
      SeqSim lev(seq, lib(), op, die_config(p, EngineKind::kLevelized));
      // The whole stream, so `expected` can be checked against the
      // operands of the cycle that launched it.
      std::vector<std::uint64_t> stream;
      for (const std::size_t run : kRuns) {
        const std::vector<std::uint64_t> ops =
            uniform_operands(rng, widths, run);
        stream.insert(stream.end(), ops.begin(), ops.end());
        std::vector<SeqCycleResult> re(run);
        std::vector<SeqCycleResult> rl(run);
        ev.step_cycle_batch(ops, run, re);
        lev.step_cycle_batch(ops, run, rl);
        const std::size_t first = stream.size() / nops - run;
        for (std::size_t k = 0; k < run; ++k) {
          const std::size_t cycle = first + k;
          ASSERT_EQ(re[k].captured, rl[k].captured)
              << spec << " Vdd " << p.vdd_v << " Vbb " << p.vbb_v
              << " cycle " << cycle;
          ASSERT_EQ(re[k].razor_flags, 0u) << spec << " cycle " << cycle;
          ASSERT_EQ(rl[k].razor_flags, 0u) << spec << " cycle " << cycle;
          ASSERT_EQ(re[k].output_valid, cycle >= lag) << spec;
          ASSERT_EQ(rl[k].output_valid, cycle >= lag) << spec;
          checks += 3;
          if (cycle < lag) continue;
          const std::uint64_t golden = seq_settled_output(
              seq, {stream.data() + (cycle - lag) * nops, nops});
          ASSERT_EQ(re[k].expected, golden) << spec << " cycle " << cycle;
          ASSERT_EQ(rl[k].expected, golden) << spec << " cycle " << cycle;
          ASSERT_EQ(rl[k].captured, golden) << spec << " cycle " << cycle;
          checks += 3;
        }
      }
    }
  }
  EXPECT_GT(checks, 0u);
}

}  // namespace
}  // namespace vosim
