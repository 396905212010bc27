// SimEngine abstraction + cross-backend equivalence suite: the
// bit-parallel levelized engine must agree with the event-driven
// reference bit-exactly when timing is relaxed, and within a documented
// BER tolerance when over-scaled (DESIGN.md §7).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "src/characterize/characterizer.hpp"
#include "src/characterize/patterns.hpp"
#include "src/characterize/triads.hpp"
#include "src/netlist/adders.hpp"
#include "src/netlist/approx_adders.hpp"
#include "src/netlist/eval.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/sim/event_sim.hpp"
#include "src/sim/levelized_sim.hpp"
#include "src/sim/sim_engine.hpp"
#include "src/sim/threshold_buckets.hpp"
#include "src/netlist/dut.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/sta.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"
#include "src/util/rng.hpp"
#include "tests/triad_hash.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

double critical_path_ns(const Netlist& nl, const OperatingTriad& op) {
  return analyze_timing(nl, lib(), op).critical_path_ps * 1e-3;
}

TEST(SimEngine, KindNamesRoundTrip) {
  EXPECT_EQ(engine_kind_name(EngineKind::kEvent), "event");
  EXPECT_EQ(engine_kind_name(EngineKind::kLevelized), "levelized");
  EXPECT_EQ(parse_engine_kind("event"), EngineKind::kEvent);
  EXPECT_EQ(parse_engine_kind("levelized"), EngineKind::kLevelized);
  EXPECT_THROW(parse_engine_kind("spice"), std::invalid_argument);
}

TEST(SimEngine, FactoryBuildsSelectedBackend) {
  const AdderNetlist rca = build_rca(4);
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kLevelized;
  const auto lev = make_engine(rca.netlist, lib(), {1.0, 1.0, 0.0}, cfg);
  EXPECT_EQ(lev->kind(), EngineKind::kLevelized);
  EXPECT_NE(dynamic_cast<LevelizedSimulator*>(lev.get()), nullptr);
  cfg.engine = EngineKind::kEvent;
  const auto ev = make_engine(rca.netlist, lib(), {1.0, 1.0, 0.0}, cfg);
  EXPECT_EQ(ev->kind(), EngineKind::kEvent);
  EXPECT_NE(dynamic_cast<TimingSimulator*>(ev.get()), nullptr);
}

// The packed 64-lane cell evaluator must agree with cell_truth() for
// every cell kind on every minterm.
TEST(SimEngine, PackedEvalMatchesTruthTables) {
  const CellKind kinds[] = {
      CellKind::kInv,   CellKind::kBuf,   CellKind::kNand2,
      CellKind::kNor2,  CellKind::kAnd2,  CellKind::kOr2,
      CellKind::kXor2,  CellKind::kXnor2, CellKind::kAoi21,
      CellKind::kOai21, CellKind::kAo21,  CellKind::kMaj3};
  for (const CellKind kind : kinds) {
    const int n = cell_num_inputs(kind);
    Netlist nl("cell_" + cell_kind_name(kind));
    std::vector<NetId> pis;
    for (int i = 0; i < n; ++i) pis.push_back(nl.add_input("i" + std::to_string(i)));
    NetId out = invalid_net;
    switch (n) {
      case 1: out = nl.add_gate(kind, {pis[0]}); break;
      case 2: out = nl.add_gate(kind, {pis[0], pis[1]}); break;
      default: out = nl.add_gate(kind, {pis[0], pis[1], pis[2]}); break;
    }
    nl.mark_output(out);
    nl.finalize();

    TimingSimConfig cfg;
    cfg.engine = EngineKind::kLevelized;
    // Generous clock: the evaluation is purely functional. One lane per
    // minterm: lane m of input i's word is bit i of m.
    LevelizedSimulator sim(nl, lib(), {100.0, 1.0, 0.0}, cfg);
    const unsigned minterms = 1u << n;
    std::vector<lanes::Word> words(static_cast<std::size_t>(n), 0);
    for (unsigned minterm = 0; minterm < minterms; ++minterm)
      for (int i = 0; i < n; ++i)
        if ((minterm >> i) & 1u)
          lanes::set_lane(words[static_cast<std::size_t>(i)], minterm);
    std::vector<StepResult> rs(minterms);
    sim.step_batch(words, minterms, rs);
    for (unsigned minterm = 0; minterm < minterms; ++minterm) {
      const StepResult& r = rs[minterm];
      const auto expected =
          static_cast<std::uint64_t>((cell_truth(kind) >> minterm) & 1u);
      EXPECT_EQ(r.settled_outputs, expected)
          << cell_kind_name(kind) << " minterm " << minterm;
      EXPECT_EQ(r.sampled_outputs, expected)
          << cell_kind_name(kind) << " minterm " << minterm;
    }
  }
}

// At generous Tclk both engines must agree bit-exactly with the golden
// zero-delay evaluation on every adder architecture — same stimuli,
// same per-gate variation die.
TEST(SimEngine, GenerousTclkBitExactAcrossArchitectures) {
  const AdderArch archs[] = {
      AdderArch::kRipple,      AdderArch::kBrentKung, AdderArch::kKoggeStone,
      AdderArch::kSklansky,    AdderArch::kCarrySelect,
      AdderArch::kCarrySkip,   AdderArch::kHanCarlson};
  for (const AdderArch arch : archs) {
    const DutNetlist adder = to_dut(build_adder(arch, 8));
    const double cp = critical_path_ns(adder.netlist, {1.0, 1.0, 0.0});
    const OperatingTriad relaxed{2.0 * cp, 1.0, 0.0};

    TimingSimConfig cfg;
    cfg.variation_sigma = 0.03;
    cfg.variation_seed = 7;
    cfg.engine = EngineKind::kEvent;
    VosDutSim event_sim(adder, lib(), relaxed, cfg);
    cfg.engine = EngineKind::kLevelized;
    VosDutSim lev_sim(adder, lib(), relaxed, cfg);
    EXPECT_EQ(event_sim.engine_kind(), EngineKind::kEvent);
    EXPECT_EQ(lev_sim.engine_kind(), EngineKind::kLevelized);

    PatternStream patterns(8, 42);
    for (int i = 0; i < 200; ++i) {
      const OperandPair p = patterns.next();
      const VosOpResult re = event_sim.apply(p.a, p.b);
      const VosOpResult rl = lev_sim.apply(p.a, p.b);
      const std::uint64_t golden = exact_add(p.a, p.b, 8);
      EXPECT_EQ(re.sampled, golden) << adder_arch_name(arch);
      EXPECT_EQ(rl.sampled, golden) << adder_arch_name(arch);
      EXPECT_EQ(re.settled, golden) << adder_arch_name(arch);
      EXPECT_EQ(rl.settled, golden) << adder_arch_name(arch);
    }
  }
}

// Approximate architectures: the engines must agree with each other and
// with the netlist's own functional (settled) behavior.
TEST(SimEngine, GenerousTclkApproxAdderAgreesAcrossEngines) {
  const DutNetlist loa = to_dut(build_lower_or(8, 3));
  const double cp = critical_path_ns(loa.netlist, {1.0, 1.0, 0.0});
  const OperatingTriad relaxed{2.0 * cp, 1.0, 0.0};
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kEvent;
  VosDutSim event_sim(loa, lib(), relaxed, cfg);
  cfg.engine = EngineKind::kLevelized;
  VosDutSim lev_sim(loa, lib(), relaxed, cfg);
  Rng rng(9);  // uniform operands, a then b
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    const VosOpResult re = event_sim.apply(a, b);
    const VosOpResult rl = lev_sim.apply(a, b);
    EXPECT_EQ(re.sampled, rl.sampled);
    EXPECT_EQ(re.settled, rl.settled);
  }
}

// Batched evaluation must reproduce the per-step streaming semantics of
// the levelized engine exactly (values, energy and settle times).
TEST(SimEngine, LevelizedBatchMatchesStep) {
  const DutNetlist rca = to_dut(build_rca(8));
  const double cp = critical_path_ns(rca.netlist, {1.0, 0.7, 0.0});
  const OperatingTriad stressed{0.6 * cp, 0.7, 0.0};
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kLevelized;

  VosDutSim stepper(rca, lib(), stressed, cfg);
  VosDutSim batcher(rca, lib(), stressed, cfg);
  stepper.reset(1, 2);
  batcher.reset(1, 2);

  constexpr std::size_t n = 200;  // exercises several 64-lane passes
  PatternStream patterns(8, 5);
  std::vector<std::uint64_t> ops(2 * n);  // operation i: ops[2i], ops[2i+1]
  for (std::size_t i = 0; i < n; ++i) {
    const OperandPair p = patterns.next();
    ops[2 * i] = p.a;
    ops[2 * i + 1] = p.b;
  }
  std::vector<VosOpResult> batched(n);
  batcher.apply_batch(ops, n, batched);
  for (std::size_t i = 0; i < n; ++i) {
    const VosOpResult r = stepper.apply(ops[2 * i], ops[2 * i + 1]);
    EXPECT_EQ(batched[i].sampled, r.sampled) << "pattern " << i;
    EXPECT_EQ(batched[i].settled, r.settled) << "pattern " << i;
    EXPECT_DOUBLE_EQ(batched[i].energy_fj, r.energy_fj) << "pattern " << i;
    EXPECT_DOUBLE_EQ(batched[i].settle_time_ps, r.settle_time_ps)
        << "pattern " << i;
  }
}

// Deep over-scaling: when every path misses the clock, each operation
// samples the previous operation's settled result — in both engines.
TEST(SimEngine, DeepOverscalingLatchesPreviousResult) {
  const DutNetlist rca = to_dut(build_rca(8));
  const OperatingTriad tiny{0.001, 1.0, 0.0};  // 1 ps: everything is late
  for (const EngineKind kind :
       {EngineKind::kEvent, EngineKind::kLevelized}) {
    TimingSimConfig cfg;
    cfg.engine = kind;
    VosDutSim sim(rca, lib(), tiny, cfg);
    sim.reset(0, 0);
    std::uint64_t prev_settled = 0;  // sum of the reset state
    Rng rng(3);  // uniform operands, a then b
    for (int i = 0; i < 100; ++i) {
      const std::uint64_t a = rng.bits(8);
      const std::uint64_t b = rng.bits(8);
      const VosOpResult r = sim.apply(a, b);
      EXPECT_EQ(r.sampled, prev_settled)
          << engine_kind_name(kind) << " op " << i;
      EXPECT_EQ(r.settled, exact_add(a, b, 8));
      prev_settled = r.settled;
    }
  }
}

// At over-scaled Tclk the levelized BER must track the event-sim BER
// within the documented tolerance (DESIGN.md §7: ≤ 2 percentage points
// on RCA8) — same patterns, same die.
TEST(SimEngine, OverscaledBerWithinToleranceOnRca8) {
  const DutNetlist rca = to_dut(build_rca(8));
  const double cp = critical_path_ns(rca.netlist, {1.0, 0.8, 0.0});
  std::vector<OperatingTriad> triads;
  for (const double ratio : {1.0, 0.85, 0.7, 0.55, 0.4})
    triads.push_back({ratio * cp, 0.8, 0.0});

  CharacterizeConfig cfg;
  cfg.num_patterns = 4000;
  cfg.engine = EngineKind::kEvent;
  const auto event_res = characterize_dut(rca, lib(), triads, cfg);
  cfg.engine = EngineKind::kLevelized;
  const auto lev_res = characterize_dut(rca, lib(), triads, cfg);

  ASSERT_EQ(event_res.size(), lev_res.size());
  for (std::size_t t = 0; t < triads.size(); ++t) {
    EXPECT_NEAR(lev_res[t].ber, event_res[t].ber, 0.02)
        << "triad " << triad_label(triads[t]);
  }
  // The sweep actually exercises the error regime.
  EXPECT_GT(event_res.back().ber, 0.01);
}

// The characterizer produces identical results through the batched
// streaming path as the seed's per-pattern loop did (event engine is
// the default and the reference).
TEST(SimEngine, CharacterizerDefaultsToEventEngine) {
  CharacterizeConfig cfg;
  EXPECT_EQ(cfg.engine, EngineKind::kEvent);
}

// The characterizer's levelized grid fast path (one normalized timing
// pass, per-triad capture thresholds) must reproduce what a per-triad
// levelized simulator computes: delay scaling is uniform in (Vdd, Vbb)
// and the engine's decisions are scale-invariant, so the two paths may
// differ only by floating-point rounding on knife-edge commits.
TEST(SimEngine, SweepFastPathMatchesPerTriadLevelized) {
  const DutNetlist rca = to_dut(build_rca(8));
  const double cp = critical_path_ns(rca.netlist, {1.0, 0.8, 0.0});
  const std::vector<OperatingTriad> triads{
      {2.0 * cp, 1.0, 0.0}, {0.8 * cp, 0.8, 0.0}, {0.6 * cp, 0.7, 2.0}};
  CharacterizeConfig cfg;
  cfg.num_patterns = 1500;
  cfg.engine = EngineKind::kLevelized;
  const auto fast = characterize_dut(rca, lib(), triads, cfg);

  const std::vector<OperandPair> pats = [&] {
    std::vector<OperandPair> out(cfg.num_patterns + 1);
    PatternStream ps(8, cfg.pattern_seed);
    for (OperandPair& p : out) p = ps.next();
    return out;
  }();
  for (std::size_t t = 0; t < triads.size(); ++t) {
    TimingSimConfig sim_cfg;
    sim_cfg.variation_sigma = cfg.variation_sigma;
    sim_cfg.variation_seed = cfg.variation_seed;
    sim_cfg.engine = EngineKind::kLevelized;
    VosDutSim sim(rca, lib(), triads[t], sim_cfg);
    sim.reset(pats[0].a, pats[0].b);
    ErrorAccumulator acc(9);
    double energy = 0.0;
    for (std::size_t i = 1; i <= cfg.num_patterns; ++i) {
      const VosOpResult r = sim.apply(pats[i].a, pats[i].b);
      acc.add(exact_add(pats[i].a, pats[i].b, 8), r.sampled);
      energy += r.energy_fj;
    }
    EXPECT_NEAR(fast[t].ber, acc.ber(), 1e-4)
        << triad_label(triads[t]);
    EXPECT_NEAR(fast[t].energy_per_op_fj,
                energy / static_cast<double>(cfg.num_patterns),
                1e-6 * energy) << triad_label(triads[t]);
  }
}

// The levelized arrival model must reproduce STA: its per-net arrivals
// at zero variation equal analyze_timing's, and its critical path too.
TEST(SimEngine, LevelizedArrivalsMatchSta) {
  const DutNetlist bk = to_dut(build_brent_kung(8));
  const OperatingTriad op{1.0, 0.6, 0.0};
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kLevelized;
  LevelizedSimulator sim(bk.netlist, lib(), op, cfg);
  const TimingAnalysis sta = analyze_timing(bk.netlist, lib(), op);
  for (NetId n = 0; n < static_cast<NetId>(bk.netlist.num_nets()); ++n)
    EXPECT_NEAR(sim.arrival_ps(n), sta.arrival_ps[n], 1e-9);
  EXPECT_NEAR(sim.critical_path_ps(), sta.critical_path_ps, 1e-9);
}

// arrival_times_ps with externally supplied delays (the variation die)
// bounds every per-op settle time the levelized engine reports.
TEST(SimEngine, StaArrivalBoundsSettleTimes) {
  const DutNetlist rca = to_dut(build_rca(8));
  const OperatingTriad op{0.5, 0.7, 0.0};
  TimingSimConfig cfg;
  cfg.variation_sigma = 0.05;
  cfg.variation_seed = 11;
  cfg.engine = EngineKind::kLevelized;
  VosDutSim sim(rca, lib(), op, cfg);
  const LevelizedSimulator& eng =
      dynamic_cast<const LevelizedSimulator&>(sim.engine());
  double cp = 0.0;
  for (NetId n = 0; n < static_cast<NetId>(rca.netlist.num_nets()); ++n)
    cp = std::max(cp, eng.arrival_ps(n));
  PatternStream patterns(8, 21);
  for (int i = 0; i < 200; ++i) {
    const OperandPair p = patterns.next();
    EXPECT_LE(sim.apply(p.a, p.b).settle_time_ps, cp + 1e-9);
  }
}

// The bound the campaign's error-free cells rest on (DESIGN.md §9):
// every commit lands by its net's STA arrival, so no operation settles
// after the die's largest net arrival. Every registry circuit and
// pipeline stage, on σ 0 and σ 0.05 dies at random triads, streams of
// 1, 64 and 130 random operations (130 spans three engine calls):
// streaming on both engines, clocked cycles on the levelized engine.
TEST(SimEngine, SettleTimesStayWithinTheLargestArrival) {
  std::vector<DutNetlist> duts;
  for (const std::string& spec : circuit_registry_examples())
    duts.push_back(build_circuit(spec));
  for (const std::string& spec : seq_circuit_registry())
    for (DutNetlist& stage : build_seq_circuit(spec).stages)
      duts.push_back(std::move(stage));
  Rng rng(0x5e771e);
  for (const DutNetlist& dut : duts) {
    const Netlist& nl = dut.netlist;
    const double cp_ns = critical_path_ns(nl, {1.0, 1.0, 0.0});
    for (const double sigma : {0.0, 0.05}) {
      for (int draw = 0; draw < 2; ++draw) {
        const OperatingTriad op{cp_ns * (0.2 + 1.2 * rng.uniform()),
                                0.5 + 0.5 * rng.uniform(),
                                rng.flip(0.5) ? 2.0 : 0.0};
        TimingSimConfig cfg;
        cfg.variation_sigma = sigma;
        cfg.variation_seed = rng();
        cfg.engine = EngineKind::kLevelized;
        const LevelizedSimulator die(nl, lib(), op, cfg);
        double largest = 0.0;
        for (NetId n = 0; n < static_cast<NetId>(nl.num_nets()); ++n)
          largest = std::max(largest, die.arrival_ps(n));
        std::vector<lanes::Word> words(nl.primary_inputs().size());
        for (const std::size_t ops : {1u, 64u, 130u}) {
          for (const int mode : {0, 1, 2}) {  // event, levelized, cycles
            cfg.engine = mode == 0 ? EngineKind::kEvent
                                   : EngineKind::kLevelized;
            const auto engine = make_engine(nl, lib(), op, cfg);
            std::vector<StepResult> rs(lanes::kWordLanes);
            for (std::size_t done = 0; done < ops;
                 done += lanes::kWordLanes) {
              const std::size_t n = std::min(lanes::kWordLanes, ops - done);
              for (lanes::Word& w : words) w = rng();
              if (mode == 2)
                engine->step_cycle_batch(words, n, rs);
              else
                engine->step_batch(words, n, rs);
              for (std::size_t k = 0; k < n; ++k)
                ASSERT_LE(rs[k].settle_time_ps, largest)
                    << nl.name() << " mode " << mode << " sigma " << sigma
                    << " op " << done + k << " of " << ops;
            }
          }
        }
      }
    }
  }
}

// The sweep's O(1) bucket lookup against std::upper_bound: random
// ascending sets of 1–300 thresholds with duplicates, probed at 0, at
// every threshold, one ulp either side of each, between them, past the
// last and at infinity and NaN.
TEST(SimEngine, ThresholdBucketsMatchUpperBound) {
  Rng rng(0xb0c4e7);
  ThresholdBuckets table;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.below(300);
    // Some sets crowd into a few cells, so lookups step far.
    const double spread = rng.flip(0.3) ? 0.5 : 2000.0;
    std::vector<double> thr(n);
    for (double& t : thr) t = 1000.0 + spread * rng.uniform();
    for (std::size_t i = 1; i < n; ++i)
      if (rng.flip(0.15)) thr[i] = thr[i - 1];  // duplicates
    std::sort(thr.begin(), thr.end());
    ASSERT_FALSE(table.built_for(thr));
    table.build(thr);
    ASSERT_TRUE(table.built_for(thr));
    ASSERT_EQ(table.size(), n);

    std::vector<double> probes = {0.0,
                                  thr.back() * 1.5,
                                  thr.back() * 1e6,
                                  std::numeric_limits<double>::max(),
                                  std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::quiet_NaN()};
    for (const double t : thr) {
      probes.push_back(t);
      probes.push_back(std::nextafter(t, 0.0));
      probes.push_back(std::nextafter(t, 1e300));
    }
    for (int i = 0; i < 500; ++i)
      probes.push_back(thr.back() * 1.1 * rng.uniform());
    for (const double t : probes) {
      const auto expected = static_cast<std::size_t>(
          std::upper_bound(thr.begin(), thr.end(), t) - thr.begin());
      ASSERT_EQ(table.bucket(t), expected)
          << "trial " << trial << " t " << t << " n " << n;
    }
  }
}

// The streaming lane semantics (step_batch and step_batch_sweep) on the
// levelized engine, pinned to hashes of every TriadResult field: the
// Table-III grid at 2 000 patterns through the sweep pass, at four
// thread counts, and an over-scaled seven-triad set at σ 0.05 with
// provenance on, which runs the per-triad step_batch loop with
// observers attached.
TEST(SimEngine, StreamingSweepMatchesGoldenPin) {
  struct Pin {
    const char* spec;
    std::uint64_t grid;
    std::uint64_t over;
  };
  const Pin pins[] = {
      {"rca16", 0xf5ad4ef46c3f7fdbULL,
       0x652290096e55b356ULL},
      {"bka16", 0x1d8458ed8dd69581ULL,
       0x6f5a4813991226f2ULL},
      {"mul8-array", 0x4d22e6844bfb9d53ULL,
       0x987263fcd1baf67cULL},
      {"mul8-wallace", 0xe03d1ec1d431d7cbULL,
       0xc808f4c57cd25d00ULL},
      {"mac4x8", 0x2595cc44405760ccULL,
       0xa897cac708b535a4ULL},
  };
  for (const Pin& pin : pins) {
    const DutNetlist dut = build_circuit(pin.spec);
    const double cp = synthesize_report(dut.netlist, lib()).critical_path_ns;
    CharacterizeConfig cfg;
    cfg.num_patterns = 2000;
    cfg.pattern_seed = 2024;
    cfg.engine = EngineKind::kLevelized;
    // The sweep's pattern split depends on the pattern count alone.
    for (const unsigned threads : {0u, 1u, 2u, 8u}) {
      cfg.threads = threads;
      EXPECT_EQ(hash_results(characterize_dut(
                    dut, lib(), make_circuit_triads(dut, cp), cfg)),
                pin.grid)
          << pin.spec << " at threads " << threads;
    }
    cfg.threads = 0;
    const std::vector<OperatingTriad> over = {
        {1.0 * cp, 1.0, 0.0}, {0.8 * cp, 1.0, 0.0},
        {0.6 * cp, 1.0, 0.0}, {0.8 * cp, 0.9, 2.0},
        {0.6 * cp, 0.8, 2.0}, {0.5 * cp, 0.7, 0.0},
        {0.4 * cp, 0.6, 0.0}};
    cfg.variation_sigma = 0.05;
    cfg.provenance = true;
    EXPECT_EQ(hash_results(characterize_dut(dut, lib(), over, cfg)), pin.over)
        << pin.spec;
  }
}

}  // namespace
}  // namespace vosim
