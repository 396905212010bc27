// Algorithm 1 trainer tests: recovery of synthetic oracles, tie-breaking,
// metric variants, the word-form window scan against Algorithm 1's
// downward scan, golden trained tables, and the order in which the
// oracle sees the pattern stream.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/apps/approx_arith.hpp"
#include "src/model/carry_chain.hpp"
#include "src/model/evaluation.hpp"
#include "src/model/segmented_model.hpp"
#include "src/model/trainer.hpp"
#include "src/model/windowed_add.hpp"
#include "src/netlist/dut.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/sta.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"
#include "tests/model_reference.hpp"

namespace vosim {
namespace {

using reference::elementwise;

constexpr DistanceMetric kMetrics[] = {DistanceMetric::kMse,
                                       DistanceMetric::kHamming,
                                       DistanceMetric::kWeightedHamming};

TEST(BestWindow, ExactOutputPrefersSmallestConsistentWindow) {
  // Observed output equals the exact sum: every window >= Cth fits with
  // distance 0, and Algorithm 1's `<=` keeps the smallest zero-distance
  // window — which is exactly Cth for a pair whose chain affects bits,
  // or smaller when truncation happens not to change the value.
  const std::uint64_t a = 0xFF;
  const std::uint64_t b = 0x01;  // full 8-long chain, truncation visible
  const int c =
      best_window(a, b, 8, a + b, DistanceMetric::kMse);
  EXPECT_EQ(c, theoretical_max_carry_chain(a, b, 8));
}

TEST(BestWindow, TruncatedOutputRecoversWindow) {
  const std::uint64_t a = 0xFF;
  const std::uint64_t b = 0x01;
  for (int target = 0; target <= 8; ++target) {
    const std::uint64_t observed = windowed_add(a, b, 8, target);
    for (const DistanceMetric m :
         {DistanceMetric::kMse, DistanceMetric::kHamming,
          DistanceMetric::kWeightedHamming}) {
      const int c = best_window(a, b, 8, observed, m);
      // The recovered window must regenerate the observation.
      EXPECT_EQ(windowed_add(a, b, 8, c), observed)
          << "target " << target << " metric "
          << distance_metric_name(m);
    }
  }
}

TEST(BestWindow, MatchesAlgorithmOneScan) {
  // The upward first-strict-minimum scan over carry words picks the
  // window of Algorithm 1's downward `<=` scan, for every metric.
  for (int width = 1; width <= 6; ++width)
    for (std::uint64_t a = 0; a <= mask_n(width); ++a)
      for (std::uint64_t b = 0; b <= mask_n(width); ++b)
        for (std::uint64_t obs = 0; obs <= mask_n(width + 1); ++obs)
          for (const DistanceMetric m : kMetrics)
            ASSERT_EQ(best_window(a, b, width, obs, m),
                      reference::best_window(a, b, width, obs, m))
                << width << ": " << a << "+" << b << " -> " << obs << " "
                << distance_metric_name(m);
  // Wider words: observations near the windowed sums (where ties and
  // near-ties live) as well as arbitrary ones.
  Rng rng(1717);
  for (const int width : {8, 16, 32, 63}) {
    for (int t = 0; t < 20000; ++t) {
      const std::uint64_t a = rng.bits(width);
      const std::uint64_t b = rng.bits(width);
      const auto below_width = [&rng, width] {
        return rng.below(static_cast<std::uint64_t>(width) + 1);
      };
      const int c = static_cast<int>(below_width());
      std::uint64_t obs = rng.bits(width + 1);
      if (t % 3 != 0) obs = reference::windowed_add(a, b, width, c);
      if (t % 3 == 2) obs ^= 1ULL << below_width();
      for (const DistanceMetric m : kMetrics)
        ASSERT_EQ(best_window(a, b, width, obs, m),
                  reference::best_window(a, b, width, obs, m))
            << width << ": " << a << "+" << b << " -> " << obs << " "
            << distance_metric_name(m);
    }
  }
}

TEST(Trainer, TrainedTablesAreGolden) {
  // rca8 at a stressed triad, trained through the event engine's batch
  // path. The literals were printed by the bit-serial trainer with its
  // per-pattern oracle; the word arithmetic and the chunked oracle must
  // reproduce them to the last digit.
  const CellLibrary& lib = make_fdsoi28_lvt();
  const double cp_ns =
      analyze_timing(build_rca(8).netlist, lib, {1, 1.0, 0.0})
          .critical_path_ps *
      1e-3;
  const OperatingTriad triad{cp_ns, 0.7, 0.0};
  const DutNetlist rca = to_dut(build_rca(8));
  const std::string golden[] = {
      // MSE distance
      "carry_chain_prob_table v1 8\n"
      "1 0 0 0 0 0 0 0 0\n"
      "0.0011494252873563218 0.99885057471264371 0 0 0 0 0 0 0\n"
      "0 0 1 0 0 0 0 0 0\n"
      "0 0 0.37168141592920356 0.62831858407079644 0 0 0 0 0\n"
      "0 0 0.51282051282051277 0.062271062271062272 0.4249084249084249 0 "
      "0 0 0\n"
      "0 0 0.43529411764705883 0.064705882352941183 0.029411764705882353 "
      "0.47058823529411764 0 0 0\n"
      "0 0 0.41935483870967744 0.021505376344086023 0.064516129032258063 "
      "0.010752688172043012 0.4838709677419355 0 0\n"
      "0 0 0.41509433962264153 0.037735849056603772 0.018867924528301886 "
      "0.075471698113207544 0 0.45283018867924529 0\n"
      "0 0 0.4375 0 0.03125 0.09375 0.0625 0 0.375\n",
      // Hamming distance
      "carry_chain_prob_table v1 8\n"
      "1 0 0 0 0 0 0 0 0\n"
      "0 1 0 0 0 0 0 0 0\n"
      "0 0 1 0 0 0 0 0 0\n"
      "0 0 0.41238938053097346 0.5876106194690266 0 0 0 0 0\n"
      "0 0 0.52747252747252749 0.05128205128205128 0.42124542124542125 0 "
      "0 0 0\n"
      "0 0 0.4823529411764706 0.058823529411764705 0.029411764705882353 "
      "0.42941176470588233 0 0 0\n"
      "0 0 0.4838709677419355 0.021505376344086023 0.064516129032258063 "
      "0.010752688172043012 0.41935483870967744 0 0\n"
      "0 0 0.47169811320754718 0.037735849056603772 0.018867924528301886 "
      "0.075471698113207544 0 0.39622641509433965 0\n"
      "0 0 0.59375 0 0.03125 0.09375 0.03125 0 0.25\n",
      // Weighted Hamming
      "carry_chain_prob_table v1 8\n"
      "1 0 0 0 0 0 0 0 0\n"
      "0 1 0 0 0 0 0 0 0\n"
      "0 0 1 0 0 0 0 0 0\n"
      "0 0 0.38053097345132741 0.61946902654867253 0 0 0 0 0\n"
      "0 0 0.51648351648351654 0.062271062271062272 0.42124542124542125 0 "
      "0 0 0\n"
      "0 0 0.43529411764705883 0.064705882352941183 0.029411764705882353 "
      "0.47058823529411764 0 0 0\n"
      "0 0 0.41935483870967744 0.021505376344086023 0.064516129032258063 "
      "0.010752688172043012 0.4838709677419355 0 0\n"
      "0 0 0.41509433962264153 0.037735849056603772 0.018867924528301886 "
      "0.075471698113207544 0 0.45283018867924529 0\n"
      "0 0 0.4375 0 0.03125 0.09375 0.0625 0 0.375\n",
  };
  for (std::size_t i = 0; i < std::size(kMetrics); ++i) {
    VosDutSim sim(rca, lib, triad);
    TrainerConfig cfg;
    cfg.num_patterns = 4000;
    cfg.metric = kMetrics[i];
    const CarryChainProbTable t =
        train_carry_table(8, sim_batch_adder_fn(sim), cfg);
    std::ostringstream os;
    t.save(os);
    EXPECT_EQ(os.str(), golden[i]) << distance_metric_name(kMetrics[i]);
  }
}

TEST(Trainer, OracleSeesTheStreamInOrder) {
  // Every entry point hands the oracle each pattern of its stream
  // exactly once, in stream order, one call per kOracleChunk patterns.
  struct Recorder {
    std::vector<OperandPair> seen;
    std::size_t calls = 0;
    BatchAdderFn oracle() {
      return [this](std::span<const std::uint64_t> a,
                    std::span<const std::uint64_t> b,
                    std::span<std::uint64_t> out) {
        ++calls;
        EXPECT_LE(a.size(), kOracleChunk);
        for (std::size_t i = 0; i < a.size(); ++i) {
          seen.push_back({a[i], b[i]});
          out[i] = a[i] + b[i];
        }
      };
    }
    void expect_stream(std::uint64_t seed, std::size_t n) const {
      ASSERT_EQ(seen.size(), n);
      EXPECT_EQ(calls, (n + kOracleChunk - 1) / kOracleChunk);
      PatternStream patterns(8, seed);
      for (std::size_t i = 0; i < n; ++i) {
        const OperandPair want = patterns.next();
        ASSERT_EQ(seen[i].a, want.a) << "pattern " << i;
        ASSERT_EQ(seen[i].b, want.b) << "pattern " << i;
      }
    }
  };
  for (const std::size_t n : {1u, 63u, 64u, 65u, 4000u}) {
    TrainerConfig cfg;
    cfg.num_patterns = n;
    Recorder table;
    train_carry_table(8, table.oracle(), cfg);
    table.expect_stream(cfg.pattern_seed, n);
    Recorder segmented;
    train_segmented_model(8, {1.0, 1.0, 0.0}, segmented.oracle(), 3, cfg);
    segmented.expect_stream(cfg.pattern_seed, n);
    FidelityConfig fcfg;
    fcfg.num_patterns = n;
    Recorder fidelity;
    const VosAdderModel identity(8, {1.0, 1.0, 0.0}, DistanceMetric::kMse,
                                 CarryChainProbTable(8));
    const FidelityResult fr =
        evaluate_fidelity(identity, fidelity.oracle(), fcfg);
    fidelity.expect_stream(fcfg.pattern_seed, n);
    EXPECT_TRUE(fr.exact_match);
  }
}

TEST(Trainer, ExactOracleGivesNearIdentityBehaviour) {
  TrainerConfig cfg;
  cfg.num_patterns = 4000;
  const BatchAdderFn exact =
      elementwise([](std::uint64_t a, std::uint64_t b) { return a + b; });
  const CarryChainProbTable t = train_carry_table(8, exact, cfg);
  // The trained table must reproduce exact addition: for every column,
  // sampled windows always regenerate the exact sum. Sufficient check:
  // expected window may sit below l only where truncation is invisible,
  // so verify via end-to-end behaviour on a fresh stream.
  PatternStream patterns(8, 777);
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    const OperandPair pat = patterns.next();
    const int cth = theoretical_max_carry_chain(pat.a, pat.b, 8);
    const int k = t.sample(cth, rng);
    EXPECT_EQ(windowed_add(pat.a, pat.b, 8, k), pat.a + pat.b)
        << pat.a << "+" << pat.b;
  }
}

TEST(Trainer, WindowedOracleConcentratesAtWindow) {
  // Oracle = windowed adder with a fixed hardware window C*; the trained
  // table should put its mass at min(C*, Cth) in every informative
  // column (chains shorter than C* complete, longer ones truncate).
  const int cstar = 3;
  const BatchAdderFn oracle =
      elementwise([cstar](std::uint64_t a, std::uint64_t b) {
        return windowed_add(a, b, 8, cstar);
      });
  TrainerConfig cfg;
  cfg.num_patterns = 8000;
  const CarryChainProbTable t = train_carry_table(8, oracle, cfg);
  for (int l = cstar + 1; l <= 8; ++l) {
    // Mass at or below cstar (ties can pick smaller equivalent windows).
    double mass_le = 0.0;
    for (int k = 0; k <= cstar; ++k) mass_le += t.prob(k, l);
    EXPECT_GT(mass_le, 0.95) << "column " << l;
    EXPECT_GT(t.prob(cstar, l), 0.3) << "column " << l;
  }
  for (int l = 0; l <= cstar; ++l) {
    double mass_le_l = 0.0;
    for (int k = 0; k <= l; ++k) mass_le_l += t.prob(k, l);
    EXPECT_NEAR(mass_le_l, 1.0, 1e-12);
  }
}

TEST(Trainer, MetricsProduceValidTables) {
  const BatchAdderFn noisy_oracle =
      elementwise([](std::uint64_t a, std::uint64_t b) {
        return windowed_add(a, b, 8, 5);
      });
  TrainerConfig cfg;
  cfg.num_patterns = 2000;
  for (const DistanceMetric m :
       {DistanceMetric::kMse, DistanceMetric::kHamming,
        DistanceMetric::kWeightedHamming}) {
    cfg.metric = m;
    const CarryChainProbTable t = train_carry_table(8, noisy_oracle, cfg);
    for (int l = 0; l <= 8; ++l) {
      double sum = 0.0;
      for (int k = 0; k <= 8; ++k) {
        EXPECT_GE(t.prob(k, l), 0.0);
        sum += t.prob(k, l);
      }
      EXPECT_NEAR(sum, 1.0, 1e-9) << distance_metric_name(m);
    }
  }
}

TEST(Trainer, DeterministicPerSeed) {
  const BatchAdderFn oracle =
      elementwise([](std::uint64_t a, std::uint64_t b) {
        return windowed_add(a, b, 8, 4);
      });
  TrainerConfig cfg;
  cfg.num_patterns = 1500;
  const CarryChainProbTable t1 = train_carry_table(8, oracle, cfg);
  const CarryChainProbTable t2 = train_carry_table(8, oracle, cfg);
  EXPECT_EQ(t1, t2);
}

TEST(DistanceMetrics, HandValues) {
  EXPECT_DOUBLE_EQ(distance(10, 6, 8, DistanceMetric::kMse), 16.0);
  EXPECT_DOUBLE_EQ(distance(0b1100, 0b1010, 8, DistanceMetric::kHamming),
                   2.0);
  // Weighted Hamming: flipped bits at positions 1 and 2 -> 2 + 4.
  EXPECT_DOUBLE_EQ(
      distance(0b1100, 0b1010, 8, DistanceMetric::kWeightedHamming), 6.0);
  // Width masking.
  EXPECT_DOUBLE_EQ(distance(0x10, 0x00, 4, DistanceMetric::kHamming), 0.0);
}

TEST(DistanceMetrics, NamesDistinct) {
  EXPECT_NE(distance_metric_name(DistanceMetric::kMse),
            distance_metric_name(DistanceMetric::kHamming));
  EXPECT_NE(distance_metric_name(DistanceMetric::kHamming),
            distance_metric_name(DistanceMetric::kWeightedHamming));
}

}  // namespace
}  // namespace vosim
