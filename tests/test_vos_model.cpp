// End-to-end statistical model tests: training against the timing
// simulator, fidelity, determinism and serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "src/apps/approx_arith.hpp"
#include "src/model/evaluation.hpp"
#include "src/model/vos_model.hpp"
#include "src/netlist/dut.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/sta.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

double rca8_cp_ns() {
  static const double cp =
      analyze_timing(build_rca(8).netlist, lib(), {1, 1.0, 0.0})
          .critical_path_ps *
      1e-3;
  return cp;
}

/// A mid-VOS triad with a healthy error rate.
OperatingTriad stressed_triad() { return {rca8_cp_ns(), 0.7, 0.0}; }

TEST(VosModel, TrainedModelTracksSimulatorClosely) {
  const DutNetlist rca = to_dut(build_rca(8));
  VosDutSim train_sim(rca, lib(), stressed_triad());
  TrainerConfig cfg;
  cfg.num_patterns = 6000;
  const VosAdderModel model = train_vos_model(
      8, stressed_triad(), sim_batch_adder_fn(train_sim), cfg);
  EXPECT_NE(model.table(), CarryChainProbTable(8));  // not an exact adder

  VosDutSim eval_sim(rca, lib(), stressed_triad());
  FidelityConfig fcfg;
  fcfg.num_patterns = 6000;
  const FidelityResult fr =
      evaluate_fidelity(model, sim_batch_adder_fn(eval_sim), fcfg);
  EXPECT_GT(fr.oracle_ber, 0.0);
  EXPECT_GT(fr.snr_db, 8.0);
  EXPECT_LT(fr.normalized_hamming, 0.25);
  // The model's own error rate should be in the ballpark of the
  // hardware's (same order of magnitude).
  EXPECT_GT(fr.model_ber, 0.2 * fr.oracle_ber);
  EXPECT_LT(fr.model_ber, 5.0 * fr.oracle_ber);
}

TEST(VosModel, RelaxedTriadYieldsExactModel) {
  const DutNetlist rca = to_dut(build_rca(8));
  const OperatingTriad relaxed{rca8_cp_ns() * 2.0, 1.0, 0.0};
  VosDutSim sim(rca, lib(), relaxed);
  TrainerConfig cfg;
  cfg.num_patterns = 3000;
  const VosAdderModel model =
      train_vos_model(8, relaxed, sim_batch_adder_fn(sim), cfg);
  Rng rng(1);
  for (int t = 0; t < 2000; ++t) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    ASSERT_EQ(model.add(a, b, rng), a + b);
  }
}

TEST(VosModel, DeterministicGivenRngSeed) {
  CarryChainProbTable table(8);
  std::vector<std::vector<std::uint64_t>> counts(
      9, std::vector<std::uint64_t>(9, 0));
  for (int l = 0; l <= 8; ++l) {
    counts[static_cast<std::size_t>(l)][static_cast<std::size_t>(l)] = 1;
    if (l >= 2) counts[static_cast<std::size_t>(l)][2] = 1;
  }
  const VosAdderModel model(
      8, stressed_triad(), DistanceMetric::kMse,
      CarryChainProbTable::from_counts(8, counts));
  Rng r1(123);
  Rng r2(123);
  for (int t = 0; t < 500; ++t) {
    const std::uint64_t a = r1.bits(8);
    const std::uint64_t b = r1.bits(8);
    const std::uint64_t a2 = r2.bits(8);
    const std::uint64_t b2 = r2.bits(8);
    ASSERT_EQ(model.add(a, b, r1), model.add(a2, b2, r2));
  }
}

TEST(VosModel, SaveLoadRoundTrip) {
  std::vector<std::vector<std::uint64_t>> counts(
      9, std::vector<std::uint64_t>(9, 0));
  counts[8][8] = 3;
  counts[8][5] = 1;
  counts[4][4] = 1;
  // The second triad must come back bit for bit: 0.6099405 ns reads
  // back as 0.60994 at a stream's default 6 digits, and a 0.1 + 0.2 V
  // bias (0.30000000000000004) needs all 17 significant digits.
  for (const OperatingTriad triad : {OperatingTriad{0.28, 0.5, 2.0},
                                     OperatingTriad{0.6099405, 0.7,
                                                    0.1 + 0.2}}) {
    const VosAdderModel model(8, triad, DistanceMetric::kWeightedHamming,
                              CarryChainProbTable::from_counts(8, counts));
    std::stringstream ss;
    model.save(ss);
    const VosAdderModel back = VosAdderModel::load(ss);
    EXPECT_EQ(back.width(), 8);
    EXPECT_EQ(back.triad(), triad) << triad_label(triad);
    EXPECT_EQ(back.metric(), DistanceMetric::kWeightedHamming);
    EXPECT_EQ(back.table(), model.table());
  }
}

TEST(FidelitySummaryTest, ExcludesErrorFreeTriads) {
  std::vector<FidelityResult> runs(3);
  runs[0].oracle_ber = 0.0;
  runs[0].exact_match = true;  // excluded
  runs[1].oracle_ber = 0.05;
  runs[1].snr_db = 20.0;
  runs[1].normalized_hamming = 0.1;
  runs[2].oracle_ber = 0.10;
  runs[2].snr_db = 10.0;
  runs[2].normalized_hamming = 0.2;
  const FidelitySummary s = summarize_fidelity(runs);
  EXPECT_EQ(s.error_free_triads, 1);
  EXPECT_EQ(s.evaluated_triads, 2);
  EXPECT_NEAR(s.mean_snr_db, 15.0, 1e-12);
  EXPECT_NEAR(s.mean_normalized_hamming, 0.15, 1e-12);
}

}  // namespace
}  // namespace vosim
