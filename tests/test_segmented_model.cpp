// Segmented statistical model tests: arithmetic of per-segment windows,
// training behaviour, serialization and the fidelity gain on the
// parallel-prefix adder it was designed for.
#include <gtest/gtest.h>


#include "src/apps/approx_arith.hpp"
#include "src/characterize/metrics.hpp"
#include "src/model/carry_chain.hpp"
#include "src/model/segmented_model.hpp"
#include "src/model/vos_model.hpp"
#include "src/model/windowed_add.hpp"
#include "src/netlist/dut.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/sta.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"
#include "tests/model_reference.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

TEST(SegmentedAdd, EqualSegmentsCoverWord) {
  const auto b1 = equal_segments(8, 1);
  EXPECT_EQ(b1, (std::vector<int>{0, 9}));
  const auto b3 = equal_segments(8, 3);
  ASSERT_EQ(b3.size(), 4u);
  EXPECT_EQ(b3.front(), 0);
  EXPECT_EQ(b3.back(), 9);
  EXPECT_THROW(equal_segments(8, 0), ContractViolation);
}

TEST(SegmentedAdd, SingleSegmentEqualsWindowedAdd) {
  const std::vector<int> bounds = equal_segments(8, 1);
  Rng rng(1);
  for (int t = 0; t < 3000; ++t) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    for (int c = 0; c <= 8; ++c)
      ASSERT_EQ(segmented_windowed_add(a, b, 8, bounds, {c}),
                windowed_add(a, b, 8, c))
          << a << "+" << b << " C=" << c;
  }
}

TEST(SegmentedAdd, FullWindowsAreExact) {
  const std::vector<int> bounds = equal_segments(16, 4);
  Rng rng(2);
  for (int t = 0; t < 2000; ++t) {
    const std::uint64_t a = rng.bits(16);
    const std::uint64_t b = rng.bits(16);
    ASSERT_EQ(
        segmented_windowed_add(a, b, 16, bounds, {16, 16, 16, 16}),
        a + b);
  }
}

TEST(SegmentedAdd, WindowsActPerSegment) {
  // 0xFF + 0x01: the carry travels through every bit. Truncating only
  // the upper segment's window must corrupt only upper bits.
  const std::vector<int> bounds{0, 4, 9};
  const std::uint64_t exact = 0x100;
  const std::uint64_t got =
      segmented_windowed_add(0xFF, 0x01, 8, bounds, {8, 0});
  // Lower segment (bits 0..3) matches the exact sum; upper differs.
  EXPECT_EQ(got & mask_n(4), exact & mask_n(4));
  EXPECT_NE(got >> 4, exact >> 4);
  // And the mirror case: upper window full, lower truncated.
  const std::uint64_t got2 =
      segmented_windowed_add(0xFF, 0x01, 8, bounds, {0, 8});
  EXPECT_NE(got2 & mask_n(4), exact & mask_n(4));
  EXPECT_EQ(got2 >> 4, exact >> 4);
}

TEST(SegmentedAdd, MatchesBruteForcePerBitRule) {
  // Reference: carry into bit i survives iff travel distance <= window
  // of i's segment.
  Rng rng(3);
  const std::vector<int> bounds{0, 3, 6, 9};
  for (int t = 0; t < 3000; ++t) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    const std::vector<int> windows{static_cast<int>(rng.below(9)),
                                   static_cast<int>(rng.below(9)),
                                   static_cast<int>(rng.below(9))};
    const auto dist = reference::carry_travel_distances(a, b, 8);
    const std::uint64_t p = a ^ b;
    std::uint64_t expect = 0;
    for (int i = 0; i <= 8; ++i) {
      std::size_t seg = 0;
      while (i >= bounds[seg + 1]) ++seg;
      const bool carry = dist[static_cast<std::size_t>(i)] > 0 &&
                         dist[static_cast<std::size_t>(i)] <= windows[seg];
      const bool bit =
          (i == 8) ? carry : ((bit_of(p, i) != 0) != carry);
      if (bit) expect |= (1ULL << i);
    }
    ASSERT_EQ(segmented_windowed_add(a, b, 8, bounds, windows), expect)
        << a << "+" << b;
  }
}

TEST(SegmentedAdd, MatchesBitSerialScan) {
  // Per-segment carry words against the per-bit scans, for the windowed
  // sum and each segment's longest incoming carry: exhaustive operands
  // at widths 1-6 with random segmentations and windows, and random
  // pairs up to the widest word.
  Rng rng(5);
  const auto check = [&rng](int width, std::uint64_t a, std::uint64_t b) {
    const int segments = 1 + static_cast<int>(rng.below(
                                 static_cast<std::uint64_t>(width) + 1));
    const std::vector<int> bounds = equal_segments(width, segments);
    std::vector<int> windows;
    for (int s = 0; s < segments; ++s)
      windows.push_back(static_cast<int>(
          rng.below(static_cast<std::uint64_t>(width) + 1)));
    ASSERT_EQ(segmented_windowed_add(a, b, width, bounds, windows),
              reference::segmented_windowed_add(a, b, width, bounds,
                                                windows))
        << width << ": " << a << "+" << b;
    for (std::size_t s = 0; s + 1 < bounds.size(); ++s)
      ASSERT_EQ(max_chain_into_segment(a, b, width, bounds[s],
                                       bounds[s + 1]),
                reference::max_chain_into_segment(a, b, width, bounds[s],
                                                  bounds[s + 1]))
          << width << ": " << a << "+" << b << " segment " << s;
  };
  for (int width = 1; width <= 6; ++width)
    for (std::uint64_t a = 0; a <= mask_n(width); ++a)
      for (std::uint64_t b = 0; b <= mask_n(width); ++b)
        check(width, a, b);
  for (const int width : {8, 16, 32, 63})
    for (int t = 0; t < 5000; ++t)
      check(width, rng.bits(width), rng.bits(width));
}

TEST(SegmentedModel, TrainingMatchesBitSerialReference) {
  // The one-sweep, all-segments training step against Algorithm 1's
  // downward scan run per segment on the bit-serial windowed sum, with
  // an oracle whose outputs disagree with every window now and then.
  const int width = 8;
  const int segments = 3;
  const BatchAdderFn oracle = reference::elementwise(
      [](std::uint64_t a, std::uint64_t b) {
        const std::uint64_t sum = windowed_add(a, b, width, 3);
        return (a * 7 + b) % 5 == 0 ? sum ^ (1ULL << (a % 9)) : sum;
      });
  for (const DistanceMetric metric :
       {DistanceMetric::kMse, DistanceMetric::kHamming,
        DistanceMetric::kWeightedHamming}) {
    TrainerConfig cfg;
    cfg.num_patterns = 3000;
    cfg.metric = metric;
    const SegmentedVosModel model =
        train_segmented_model(width, {1.0, 1.0, 0.0}, oracle, segments, cfg);

    const std::vector<int> bounds = equal_segments(width, segments);
    std::vector<std::vector<std::vector<std::uint64_t>>> counts(
        segments, std::vector<std::vector<std::uint64_t>>(
                      width + 1, std::vector<std::uint64_t>(width + 1, 0)));
    PatternStream patterns(width, cfg.pattern_seed);
    for (std::size_t i = 0; i < cfg.num_patterns; ++i) {
      const OperandPair pat = patterns.next();
      std::uint64_t observed = 0;
      oracle(std::span<const std::uint64_t>(&pat.a, 1),
             std::span<const std::uint64_t>(&pat.b, 1), {&observed, 1});
      for (std::size_t s = 0; s < bounds.size() - 1; ++s) {
        const int lo = bounds[s];
        const int hi = bounds[s + 1];
        const std::uint64_t m = mask_n(hi) & ~mask_n(lo);
        const int cth =
            reference::max_chain_into_segment(pat.a, pat.b, width, lo, hi);
        double best = -1.0;
        int best_c = cth;
        for (int c = cth; c >= 0; --c) {
          const std::uint64_t x =
              reference::windowed_add(pat.a, pat.b, width, c);
          const double d = distance((observed & m) >> lo, (x & m) >> lo,
                                    hi - lo, metric);
          if (best < 0.0 || d <= best) {
            best = d;
            best_c = c;
          }
        }
        ++counts[s][static_cast<std::size_t>(cth)]
                [static_cast<std::size_t>(best_c)];
      }
    }
    for (int s = 0; s < segments; ++s)
      EXPECT_EQ(model.table(s),
                CarryChainProbTable::from_counts(
                    width, counts[static_cast<std::size_t>(s)]))
          << distance_metric_name(metric) << " segment " << s;
  }
}

TEST(SegmentedModel, MaxChainIntoSegment) {
  // 0xFF+0x01: distances rise 1..8 across the bits.
  EXPECT_EQ(max_chain_into_segment(0xFF, 0x01, 8, 0, 4), 3);
  EXPECT_EQ(max_chain_into_segment(0xFF, 0x01, 8, 4, 9), 8);
  EXPECT_EQ(max_chain_into_segment(0x00, 0x00, 8, 0, 9), 0);
}

TEST(SegmentedModel, TrainOnExactOracleIsExact) {
  const BatchAdderFn exact = reference::elementwise(
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  TrainerConfig cfg;
  cfg.num_patterns = 3000;
  const SegmentedVosModel model =
      train_segmented_model(8, {1.0, 1.0, 0.0}, exact, 3, cfg);
  Rng rng(4);
  PatternStream patterns(8, 777);
  for (int t = 0; t < 3000; ++t) {
    const OperandPair pat = patterns.next();
    ASSERT_EQ(model.add(pat.a, pat.b, rng), pat.a + pat.b);
  }
}

TEST(SegmentedModel, ImprovesBrentKungFidelity) {
  // The single-window model averages the BKA's region-dependent failure
  // depths; per-segment windows should track the simulator better.
  const DutNetlist bka = to_dut(build_brent_kung(8));
  const double cp_ns =
      analyze_timing(bka.netlist, lib(), {1, 1.0, 0.0}).critical_path_ps *
      1e-3;
  const OperatingTriad triad{cp_ns, 0.68, 0.0};

  TrainerConfig cfg;
  cfg.num_patterns = 8000;

  VosDutSim train_base(bka, lib(), triad);
  const VosAdderModel base =
      train_vos_model(8, triad, sim_batch_adder_fn(train_base), cfg);
  VosDutSim train_seg(bka, lib(), triad);
  const SegmentedVosModel seg =
      train_segmented_model(8, triad, sim_batch_adder_fn(train_seg), 3, cfg);

  // Evaluate both on held-out patterns against fresh simulators.
  VosDutSim eval_base(bka, lib(), triad);
  VosDutSim eval_seg(bka, lib(), triad);
  PatternStream pat_base(8, 1729);
  PatternStream pat_seg(8, 1729);
  Rng rng_base(5);
  Rng rng_seg(5);
  ErrorAccumulator acc_base(9);
  ErrorAccumulator acc_seg(9);
  for (int t = 0; t < 8000; ++t) {
    const OperandPair pb = pat_base.next();
    acc_base.add(eval_base.apply(pb.a, pb.b).sampled,
                 base.add(pb.a, pb.b, rng_base));
    const OperandPair ps = pat_seg.next();
    acc_seg.add(eval_seg.apply(ps.a, ps.b).sampled,
                seg.add(ps.a, ps.b, rng_seg));
  }
  // Oracle must actually err for this comparison to mean anything.
  ASSERT_GT(acc_base.ops(), 0u);
  EXPECT_GT(acc_seg.snr_db(), acc_base.snr_db() - 0.5);
  EXPECT_LT(acc_seg.normalized_hamming(),
            acc_base.normalized_hamming() * 1.05);
}

TEST(SegmentedModel, Validation) {
  EXPECT_THROW(
      SegmentedVosModel(8, {1, 1, 0}, {0, 5}, {}),  // no tables
      ContractViolation);
  EXPECT_THROW(segmented_windowed_add(0, 0, 8, {0, 4, 9}, {1}),
               ContractViolation);
  EXPECT_THROW(segmented_windowed_add(0, 0, 8, {1, 9}, {1}),
               ContractViolation);
}

}  // namespace
}  // namespace vosim
