// Probability-table tests: stochastic structure, sampling fidelity and
// serialization round-trips.
#include <gtest/gtest.h>

#include <sstream>

#include "src/model/prob_table.hpp"
#include "src/util/contracts.hpp"

namespace vosim {
namespace {

TEST(ProbTable, IdentityByDefault) {
  const CarryChainProbTable t(8);
  for (int l = 0; l <= 8; ++l) {
    EXPECT_DOUBLE_EQ(t.prob(l, l), 1.0);
    EXPECT_DOUBLE_EQ(t.expected(l), static_cast<double>(l));
  }
}

TEST(ProbTable, FromCountsNormalizesColumns) {
  const int w = 4;
  std::vector<std::vector<std::uint64_t>> counts(
      5, std::vector<std::uint64_t>(5, 0));
  counts[3][3] = 6;  // P(3|3) = 0.6
  counts[3][2] = 2;  // P(2|3) = 0.2
  counts[3][0] = 2;  // P(0|3) = 0.2
  const CarryChainProbTable t = CarryChainProbTable::from_counts(w, counts);
  EXPECT_DOUBLE_EQ(t.prob(3, 3), 0.6);
  EXPECT_DOUBLE_EQ(t.prob(2, 3), 0.2);
  EXPECT_DOUBLE_EQ(t.prob(0, 3), 0.2);
  EXPECT_DOUBLE_EQ(t.prob(1, 3), 0.0);
  // Untouched columns stay identity.
  EXPECT_DOUBLE_EQ(t.prob(2, 2), 1.0);
  // Column sums are 1.
  for (int l = 0; l <= w; ++l) {
    double sum = 0.0;
    for (int k = 0; k <= w; ++k) sum += t.prob(k, l);
    EXPECT_NEAR(sum, 1.0, 1e-12) << "column " << l;
  }
  EXPECT_NEAR(t.expected(3), 0.6 * 3 + 0.2 * 2, 1e-12);
}

TEST(ProbTable, UpperTriangleRejected) {
  std::vector<std::vector<std::uint64_t>> counts(
      5, std::vector<std::uint64_t>(5, 0));
  counts[2][4] = 1;  // P(4|2): chain longer than theoretical — invalid
  EXPECT_THROW(CarryChainProbTable::from_counts(4, counts),
               ContractViolation);
}

TEST(ProbTable, SamplingTracksDistribution) {
  std::vector<std::vector<std::uint64_t>> counts(
      9, std::vector<std::uint64_t>(9, 0));
  counts[8][8] = 50;
  counts[8][4] = 30;
  counts[8][0] = 20;
  const CarryChainProbTable t = CarryChainProbTable::from_counts(8, counts);
  Rng rng(42);
  int histogram[9] = {0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++histogram[t.sample(8, rng)];
  EXPECT_NEAR(histogram[8] / static_cast<double>(n), 0.5, 0.02);
  EXPECT_NEAR(histogram[4] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(histogram[0] / static_cast<double>(n), 0.2, 0.02);
  EXPECT_EQ(histogram[1] + histogram[2] + histogram[3] + histogram[5] +
                histogram[6] + histogram[7],
            0);
}

TEST(ProbTable, SampleNeverExceedsCth) {
  const CarryChainProbTable t(8);
  Rng rng(5);
  for (int l = 0; l <= 8; ++l)
    for (int i = 0; i < 100; ++i) EXPECT_LE(t.sample(l, rng), l);
}

TEST(ProbTable, SaveLoadRoundTrip) {
  std::vector<std::vector<std::uint64_t>> counts(
      5, std::vector<std::uint64_t>(5, 0));
  counts[4][4] = 7;
  counts[4][1] = 3;
  counts[2][2] = 1;
  const CarryChainProbTable t = CarryChainProbTable::from_counts(4, counts);
  std::stringstream ss;
  t.save(ss);
  const CarryChainProbTable u = CarryChainProbTable::load(ss);
  EXPECT_EQ(u.width(), 4);
  for (int l = 0; l <= 4; ++l)
    for (int k = 0; k <= 4; ++k)
      EXPECT_NEAR(u.prob(k, l), t.prob(k, l), 1e-12);
}

TEST(ProbTable, LoadRejectsGarbage) {
  std::stringstream ss("not_a_table v1 4\n");
  EXPECT_THROW(CarryChainProbTable::load(ss), std::runtime_error);
  std::stringstream truncated("carry_chain_prob_table v1 4\n0.5 0.5");
  EXPECT_THROW(CarryChainProbTable::load(truncated), std::runtime_error);
}

TEST(ProbTable, ToTableHasPaperShape) {
  const CarryChainProbTable t(4);
  const TextTable tt = t.to_table();
  EXPECT_EQ(tt.row_count(), 5u);  // Cmax rows 0..4 (Table I layout)
}

TEST(ProbTable, WidthValidated) {
  EXPECT_THROW(CarryChainProbTable(0), ContractViolation);
  EXPECT_THROW(CarryChainProbTable(64), ContractViolation);
}

}  // namespace
}  // namespace vosim
