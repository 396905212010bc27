// Cross-engine equivalence for non-adder DUTs: the bit-parallel
// levelized engine must agree with the event-driven reference
// bit-exactly at relaxed Tclk on multipliers and MAC trees, track its
// BER within tolerance when over-scaled, and stream identically through
// apply_batch — the multiplier/MAC mirror of test_sim_engine's adder
// suite (DESIGN.md §7/§8).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/characterize/characterizer.hpp"
#include "src/characterize/patterns.hpp"
#include "src/characterize/triads.hpp"
#include "src/netlist/dut.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/sta.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

double critical_path_ns(const Netlist& nl, const OperatingTriad& op) {
  return analyze_timing(nl, lib(), op).critical_path_ps * 1e-3;
}

/// Exact arithmetic reference for the registry circuits under test.
std::uint64_t exact_fn(const DutNetlist& dut,
                       std::span<const std::uint64_t> ops) {
  if (dut.kind.rfind("mul", 0) == 0) return ops[0] * ops[1];
  std::uint64_t acc = 0;  // MAC tree
  for (std::size_t k = 0; k + 1 < ops.size(); k += 2)
    acc += ops[k] * ops[k + 1];
  return acc;
}

class DutEngineEquivalence : public ::testing::TestWithParam<const char*> {
};

// At generous Tclk both engines must agree bit-exactly with the exact
// arithmetic function — same stimuli, same per-gate variation die.
TEST_P(DutEngineEquivalence, RelaxedTclkBitExactAcrossEngines) {
  const DutNetlist dut = build_circuit(GetParam());
  const double cp = critical_path_ns(dut.netlist, {1.0, 1.0, 0.0});
  const OperatingTriad relaxed{2.0 * cp, 1.0, 0.0};

  TimingSimConfig cfg;
  cfg.variation_sigma = 0.03;
  cfg.variation_seed = 7;
  cfg.engine = EngineKind::kEvent;
  VosDutSim event_sim(dut, lib(), relaxed, cfg);
  cfg.engine = EngineKind::kLevelized;
  VosDutSim lev_sim(dut, lib(), relaxed, cfg);

  DutPatternStream patterns(dut.operand_widths(), 42);
  std::vector<std::uint64_t> ops(dut.num_operands());
  for (int i = 0; i < 200; ++i) {
    patterns.next(ops);
    const VosOpResult re = event_sim.apply(ops);
    const VosOpResult rl = lev_sim.apply(ops);
    const std::uint64_t golden = exact_fn(dut, ops);
    ASSERT_EQ(re.sampled, golden) << dut.kind << " op " << i;
    ASSERT_EQ(rl.sampled, golden) << dut.kind << " op " << i;
    ASSERT_EQ(re.settled, golden) << dut.kind << " op " << i;
    ASSERT_EQ(rl.settled, golden) << dut.kind << " op " << i;
  }
}

// Over-scaled: the levelized BER must track the event-sim BER within
// the documented tolerance (≤ 2 percentage points), on the same grid
// the multiplier bench gates in CI.
TEST_P(DutEngineEquivalence, OverscaledBerWithinTolerance) {
  const DutNetlist dut = build_circuit(GetParam());
  const double cp = critical_path_ns(dut.netlist, {1.0, 0.8, 0.0});
  std::vector<OperatingTriad> triads;
  for (const double ratio : {1.0, 0.8, 0.6, 0.45})
    triads.push_back({ratio * cp, 0.8, 0.0});

  CharacterizeConfig cfg;
  cfg.num_patterns = 2000;
  cfg.engine = EngineKind::kEvent;
  const auto event_res = characterize_dut(dut, lib(), triads, cfg);
  cfg.engine = EngineKind::kLevelized;
  const auto lev_res = characterize_dut(dut, lib(), triads, cfg);

  ASSERT_EQ(event_res.size(), lev_res.size());
  for (std::size_t t = 0; t < triads.size(); ++t) {
    EXPECT_NEAR(lev_res[t].ber, event_res[t].ber, 0.02)
        << dut.kind << " triad " << triad_label(triads[t]);
  }
  // The sweep actually exercises the error regime.
  EXPECT_GT(event_res.back().ber, 0.01) << dut.kind;
}

// apply_batch must reproduce per-apply streaming semantics exactly on
// both engines (values, energy, settle times).
TEST_P(DutEngineEquivalence, BatchMatchesApplyLoop) {
  const DutNetlist dut = build_circuit(GetParam());
  const double cp = critical_path_ns(dut.netlist, {1.0, 0.8, 0.0});
  const OperatingTriad stressed{0.6 * cp, 0.8, 0.0};
  for (const EngineKind kind :
       {EngineKind::kEvent, EngineKind::kLevelized}) {
    TimingSimConfig cfg;
    cfg.engine = kind;
    VosDutSim stepper(dut, lib(), stressed, cfg);
    VosDutSim batcher(dut, lib(), stressed, cfg);

    const std::size_t nops = dut.num_operands();
    constexpr std::size_t n = 150;  // exercises multiple 64-lane passes
    DutPatternStream patterns(dut.operand_widths(), 5);
    std::vector<std::uint64_t> flat(n * nops);
    for (std::size_t i = 0; i < n; ++i)
      patterns.next({flat.data() + i * nops, nops});

    std::vector<VosOpResult> batched(n);
    batcher.apply_batch(flat, n, batched);
    for (std::size_t i = 0; i < n; ++i) {
      const VosOpResult r =
          stepper.apply({flat.data() + i * nops, nops});
      ASSERT_EQ(batched[i].sampled, r.sampled)
          << dut.kind << " " << engine_kind_name(kind) << " op " << i;
      ASSERT_EQ(batched[i].settled, r.settled);
      ASSERT_DOUBLE_EQ(batched[i].energy_fj, r.energy_fj);
      ASSERT_DOUBLE_EQ(batched[i].settle_time_ps, r.settle_time_ps);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, DutEngineEquivalence,
                         ::testing::Values("mul4-array", "mul4-wallace",
                                           "mul8-array", "mul8-wallace",
                                           "mac2x4"),
                         [](const ::testing::TestParamInfo<const char*>&
                                info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-' || c == 'x') c = '_';
                           return name;
                         });

// The characterizer's levelized grid fast path must match a per-triad
// levelized simulator on a multiplier, exactly as it does on adders.
TEST(DutEngines, SweepFastPathMatchesPerTriadLevelizedOnMul8) {
  const DutNetlist dut = build_circuit("mul8-array");
  const double cp = critical_path_ns(dut.netlist, {1.0, 0.8, 0.0});
  const std::vector<OperatingTriad> triads{
      {2.0 * cp, 1.0, 0.0}, {0.8 * cp, 0.8, 0.0}, {0.6 * cp, 0.7, 2.0}};
  CharacterizeConfig cfg;
  cfg.num_patterns = 1200;
  cfg.engine = EngineKind::kLevelized;
  const auto fast = characterize_dut(dut, lib(), triads, cfg);

  const std::size_t nops = dut.num_operands();
  std::vector<std::uint64_t> pats((cfg.num_patterns + 1) * nops);
  DutPatternStream ps(dut.operand_widths(), cfg.pattern_seed);
  for (std::size_t p = 0; p <= cfg.num_patterns; ++p)
    ps.next({pats.data() + p * nops, nops});

  for (std::size_t t = 0; t < triads.size(); ++t) {
    TimingSimConfig sim_cfg;
    sim_cfg.variation_sigma = cfg.variation_sigma;
    sim_cfg.variation_seed = cfg.variation_seed;
    sim_cfg.engine = EngineKind::kLevelized;
    VosDutSim sim(dut, lib(), triads[t], sim_cfg);
    sim.reset({pats.data(), nops});
    ErrorAccumulator acc(dut.output_width());
    double energy = 0.0;
    for (std::size_t i = 1; i <= cfg.num_patterns; ++i) {
      const std::span<const std::uint64_t> ops{pats.data() + i * nops,
                                               nops};
      const VosOpResult r = sim.apply(ops);
      acc.add(r.settled, r.sampled);
      energy += r.energy_fj;
    }
    EXPECT_NEAR(fast[t].ber, acc.ber(), 1e-4) << triad_label(triads[t]);
    EXPECT_NEAR(fast[t].energy_per_op_fj,
                energy / static_cast<double>(cfg.num_patterns),
                1e-6 * energy)
        << triad_label(triads[t]);
  }
}

// A multiplier characterized at a relaxed grid point is error-free and
// MRED grows once over-scaled.
TEST(DutEngines, MultiplierTriadSweepMetrics) {
  const DutNetlist dut = build_circuit("mul8-wallace");
  const SynthesisReport rep = synthesize_report(dut.netlist, lib());
  const auto all = make_dut_triads(rep.critical_path_ns);
  EXPECT_EQ(all.size(), 43u);
  const std::vector<OperatingTriad> triads{
      all[0],                                  // relaxed nominal
      {0.6 * rep.critical_path_ns, 0.7, 0.0},  // deep over-scaling
  };
  CharacterizeConfig cfg;
  cfg.num_patterns = 1500;
  cfg.engine = EngineKind::kLevelized;
  const auto res = characterize_dut(dut, lib(), triads, cfg);
  EXPECT_EQ(res[0].ber, 0.0);
  EXPECT_EQ(res[0].mred, 0.0);
  EXPECT_EQ(res[0].bitwise_ber.size(), 16u);
  EXPECT_GT(res[1].ber, 0.01);
  EXPECT_GT(res[1].mred, 0.0);
  EXPECT_GT(res[1].op_error_rate, res[1].ber);  // many bits per bad op
}

// An external golden function (exact product) must agree with the
// settled-function default on an exact multiplier.
TEST(DutEngines, GoldenOverrideMatchesSettledOnExactCircuit) {
  const DutNetlist dut = build_circuit("mul4-array");
  const double cp = critical_path_ns(dut.netlist, {1.0, 1.0, 0.0});
  const std::vector<OperatingTriad> triads{{0.55 * cp, 1.0, 0.0}};
  CharacterizeConfig cfg;
  cfg.num_patterns = 1500;
  const auto settled_ref = characterize_dut(dut, lib(), triads, cfg);
  cfg.golden = [](std::span<const std::uint64_t> ops) {
    return ops[0] * ops[1];
  };
  const auto exact_ref = characterize_dut(dut, lib(), triads, cfg);
  EXPECT_DOUBLE_EQ(settled_ref[0].ber, exact_ref[0].ber);
  EXPECT_GT(settled_ref[0].ber, 0.0);
}

}  // namespace
}  // namespace vosim
