// Runtime module tests: the double-sampling monitor and the Pareto
// triad ladder. The controller that walks the ladder is tested in
// test_closed_loop.cpp.
#include <gtest/gtest.h>

#include "src/runtime/triad_ladder.hpp"
#include "src/seq/error_monitor.hpp"
#include "src/util/contracts.hpp"

namespace vosim {
namespace {

// ----------------------------------------------------------------- monitor
TEST(Monitor, ExactWindowRate) {
  DoubleSamplingMonitor mon(8, 4);
  mon.observe(0b00000000, 0b00000011);  // 2 flagged bits
  mon.observe(0b11110000, 0b11110000);  // 0
  mon.observe(0b00000001, 0b00000000);  // 1
  EXPECT_DOUBLE_EQ(mon.window_op_error_rate(), 2.0 / 3.0);
  EXPECT_FALSE(mon.window_full());
  mon.observe(0, 0);
  EXPECT_TRUE(mon.window_full());
}

TEST(Monitor, SlidingWindowEvictsOldest) {
  DoubleSamplingMonitor mon(8, 2);
  mon.observe(0, 0xFF);  // 8 errors
  mon.observe(0, 0);     // 0
  mon.observe(0, 0);     // 0 -> the 8-error op falls out
  EXPECT_DOUBLE_EQ(mon.window_op_error_rate(), 0.0);
  EXPECT_EQ(mon.total_flagged_ops(), 1u);
  EXPECT_EQ(mon.total_ops(), 3u);
}

TEST(Monitor, ResetWindowKeepsLifetime) {
  DoubleSamplingMonitor mon(4, 8);
  mon.observe(0, 0xF);
  mon.reset_window();
  EXPECT_EQ(mon.window_fill(), 0u);
  EXPECT_DOUBLE_EQ(mon.window_op_error_rate(), 0.0);
  EXPECT_EQ(mon.total_ops(), 1u);
  EXPECT_EQ(mon.total_flagged_ops(), 1u);
}

TEST(Monitor, Validation) {
  EXPECT_THROW(DoubleSamplingMonitor(0, 4), ContractViolation);
  EXPECT_THROW(DoubleSamplingMonitor(8, 0), ContractViolation);
}

// ------------------------------------------------------------------ ladder
std::vector<TriadResult> fake_results() {
  auto mk = [](double tclk, double vdd, double ber, double e) {
    TriadResult r;
    r.triad = {tclk, vdd, 0.0};
    r.ber = ber;
    r.energy_per_op_fj = e;
    return r;
  };
  return {
      mk(0.5, 1.0, 0.00, 100.0), mk(0.4, 0.9, 0.00, 80.0),
      mk(0.4, 0.8, 0.02, 60.0),  mk(0.4, 0.7, 0.01, 70.0),
      mk(0.3, 0.6, 0.10, 40.0),  mk(0.3, 0.5, 0.30, 30.0),
      mk(0.3, 0.9, 0.40, 90.0),  // dominated: expensive and bad
  };
}

TEST(Ladder, ParetoFrontierStructure) {
  const auto ladder = build_triad_ladder(fake_results());
  ASSERT_GE(ladder.size(), 2u);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    // Energy strictly decreasing, BER strictly increasing along rungs.
    EXPECT_LT(ladder[i].energy_per_op_fj, ladder[i - 1].energy_per_op_fj);
    EXPECT_GT(ladder[i].expected_ber, ladder[i - 1].expected_ber);
  }
  // The dominated 90fJ/0.40 triad must not appear.
  for (const TriadRung& r : ladder)
    EXPECT_FALSE(r.energy_per_op_fj == 90.0 && r.expected_ber == 0.40);
  // The cheapest error-free triad must be the safest rung.
  EXPECT_DOUBLE_EQ(ladder.front().expected_ber, 0.0);
  EXPECT_DOUBLE_EQ(ladder.front().energy_per_op_fj, 80.0);
}

TEST(Ladder, EmptyRejected) {
  EXPECT_THROW(build_triad_ladder({}), ContractViolation);
}

TEST(Ladder, EqualEnergyTieKeepsOnlyLowerBer) {
  auto mk = [](double ber, double e) {
    TriadResult r;
    r.triad = {0.4, 0.8, 0.0};
    r.ber = ber;
    r.energy_per_op_fj = e;
    return r;
  };
  // Two rungs at exactly the same energy: only the lower-BER one may
  // survive the Pareto filter.
  const auto ladder = build_triad_ladder({mk(0.5, 60.0), mk(0.1, 60.0)});
  ASSERT_EQ(ladder.size(), 1u);
  EXPECT_DOUBLE_EQ(ladder[0].expected_ber, 0.1);
}

TEST(Ladder, NearEqualEnergyTieCollapses) {
  auto mk = [](double ber, double e) {
    TriadResult r;
    r.triad = {0.4, 0.8, 0.0};
    r.ber = ber;
    r.energy_per_op_fj = e;
    return r;
  };
  // Energies differing only by floating-point rounding noise are one
  // rung: without a tolerance the lower-BER-but-epsilon-more-expensive
  // triad would coexist with the worse one.
  const double e = 60.0;
  const auto ladder =
      build_triad_ladder({mk(0.5, e), mk(0.1, e * (1.0 + 1e-12))});
  ASSERT_EQ(ladder.size(), 1u);
  EXPECT_DOUBLE_EQ(ladder[0].expected_ber, 0.1);
  // And the collapse keeps the ladder monotone when flanked by real
  // rungs on both sides.
  auto full = std::vector<TriadResult>{
      mk(0.0, 100.0), mk(0.5, e), mk(0.1, e * (1.0 + 1e-12)),
      mk(0.9, 20.0)};
  const auto ladder2 = build_triad_ladder(full);
  ASSERT_EQ(ladder2.size(), 3u);
  for (std::size_t i = 1; i < ladder2.size(); ++i) {
    EXPECT_LT(ladder2[i].energy_per_op_fj,
              ladder2[i - 1].energy_per_op_fj);
    EXPECT_GT(ladder2[i].expected_ber, ladder2[i - 1].expected_ber);
  }
}

// --------------------------------------------- monitor edge cases
TEST(Monitor, SingleOpWindow) {
  // A window of one operation: every observation replaces the estimate.
  DoubleSamplingMonitor mon(8, 1);
  mon.observe(0, 0xFF);
  EXPECT_TRUE(mon.window_full());
  EXPECT_DOUBLE_EQ(mon.window_op_error_rate(), 1.0);
  mon.observe(0, 0);
  EXPECT_DOUBLE_EQ(mon.window_op_error_rate(), 0.0);
  EXPECT_EQ(mon.total_ops(), 2u);
}

TEST(Monitor, Width63Masks) {
  // 63-bit words (max_word_bits): a flip in bit 62 counts, a flip in
  // bit 63 — outside the compared word — must not.
  DoubleSamplingMonitor mon(63, 4);
  mon.observe(0, 1ULL << 62);
  EXPECT_DOUBLE_EQ(mon.window_op_error_rate(), 1.0);
  mon.observe(0, 1ULL << 63);
  EXPECT_DOUBLE_EQ(mon.window_op_error_rate(), 0.5);
  EXPECT_EQ(mon.total_flagged_ops(), 1u);
}

TEST(Monitor, CountsFlaggedOpsNotBits) {
  // One op with three bad bits vs three ops with one bad bit each: the
  // same bit errors, but one flagged op against three — the rate the
  // closed-loop controller reads counts operations.
  DoubleSamplingMonitor burst(8, 8);
  burst.observe(0, 0b111);
  burst.observe(0, 0);
  burst.observe(0, 0);
  DoubleSamplingMonitor spread(8, 8);
  spread.observe(0, 0b001);
  spread.observe(0, 0b010);
  spread.observe(0, 0b100);
  EXPECT_DOUBLE_EQ(burst.window_op_error_rate(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(spread.window_op_error_rate(), 1.0);
}

TEST(Monitor, ResetBetweenCampaigns) {
  // A monitor reused across campaigns: reset_window isolates the new
  // campaign's window statistics while lifetime counters keep growing.
  DoubleSamplingMonitor mon(8, 4);
  for (int i = 0; i < 6; ++i) mon.observe(0, 0xFF);
  EXPECT_TRUE(mon.window_full());
  mon.reset_window();
  EXPECT_EQ(mon.window_fill(), 0u);
  EXPECT_FALSE(mon.window_full());
  EXPECT_DOUBLE_EQ(mon.window_op_error_rate(), 0.0);
  EXPECT_EQ(mon.total_ops(), 6u);
  EXPECT_EQ(mon.total_flagged_ops(), 6u);
  // The next campaign's observations rebuild the window from scratch.
  mon.observe(0, 0);
  mon.observe(0, 1);
  EXPECT_EQ(mon.window_fill(), 2u);
  EXPECT_DOUBLE_EQ(mon.window_op_error_rate(), 0.5);
  EXPECT_EQ(mon.total_ops(), 8u);
  EXPECT_EQ(mon.total_flagged_ops(), 7u);
}

}  // namespace
}  // namespace vosim
