// Pattern-generation tests: determinism, range safety and carry-chain
// coverage of the stimulus policies.
#include <gtest/gtest.h>

#include <set>

#include "src/characterize/patterns.hpp"
#include "src/model/carry_chain.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {
namespace {

class PatternPolicyTest : public ::testing::TestWithParam<PatternPolicy> {};

TEST_P(PatternPolicyTest, DeterministicPerSeed) {
  PatternStream s1(GetParam(), 16, 42);
  PatternStream s2(GetParam(), 16, 42);
  for (int i = 0; i < 200; ++i) {
    const OperandPair a = s1.next();
    const OperandPair b = s2.next();
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
  }
}

TEST_P(PatternPolicyTest, OperandsFitWidth) {
  for (int width : {4, 8, 16, 32}) {
    PatternStream s(GetParam(), width, 7);
    for (int i = 0; i < 500; ++i) {
      const OperandPair p = s.next();
      EXPECT_EQ(p.a & ~mask_n(width), 0u);
      EXPECT_EQ(p.b & ~mask_n(width), 0u);
    }
  }
}

TEST_P(PatternPolicyTest, DifferentSeedsDiffer) {
  PatternStream s1(GetParam(), 16, 1);
  PatternStream s2(GetParam(), 16, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (s1.next().a == s2.next().a) ++same;
  EXPECT_LT(same, 20);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PatternPolicyTest,
    ::testing::Values(PatternPolicy::kUniform, PatternPolicy::kCarryBalanced,
                      PatternPolicy::kCorrelatedWalk),
    [](const ::testing::TestParamInfo<PatternPolicy>& info) {
      switch (info.param) {
        case PatternPolicy::kUniform: return "Uniform";
        case PatternPolicy::kCarryBalanced: return "CarryBalanced";
        case PatternPolicy::kCorrelatedWalk: return "Walk";
      }
      return "Unknown";
    });

TEST(CarryBalancedPatterns, CoverAllChainLengths) {
  // The paper requires stimuli that exercise every carry-chain length;
  // for an 8-bit adder all Cth values 0..8 must appear in 20k patterns.
  PatternStream s(PatternPolicy::kCarryBalanced, 8, 42);
  std::set<int> seen;
  for (int i = 0; i < 20000; ++i) {
    const OperandPair p = s.next();
    seen.insert(theoretical_max_carry_chain(p.a, p.b, 8));
  }
  EXPECT_EQ(seen.size(), 9u);
}

TEST(CarryBalancedPatterns, LongChainsWellRepresented) {
  // Uniform stimuli almost never produce a full 16-bit chain; the
  // balanced policy must hit long chains regularly.
  PatternStream s(PatternPolicy::kCarryBalanced, 16, 42);
  int long_chains = 0;
  for (int i = 0; i < 20000; ++i) {
    const OperandPair p = s.next();
    if (theoretical_max_carry_chain(p.a, p.b, 16) >= 12) ++long_chains;
  }
  EXPECT_GT(long_chains, 200);
}

TEST(WalkPatterns, StepsAreLocal) {
  PatternStream s(PatternPolicy::kCorrelatedWalk, 16, 9);
  OperandPair prev = s.next();
  for (int i = 0; i < 200; ++i) {
    const OperandPair cur = s.next();
    const auto diff = static_cast<std::int64_t>(cur.a) -
                      static_cast<std::int64_t>(prev.a);
    // Steps are bounded (modulo wraparound at the ends).
    if (std::abs(diff) < (1 << 14)) {
      EXPECT_LE(std::abs(diff), 1 << 10);
    }
    prev = cur;
  }
}

TEST(PatternStreamTest, WidthValidated) {
  EXPECT_THROW(PatternStream(PatternPolicy::kUniform, 0, 1),
               ContractViolation);
  EXPECT_THROW(PatternStream(PatternPolicy::kUniform, 64, 1),
               ContractViolation);
}

}  // namespace
}  // namespace vosim
