// Pattern-generation tests: determinism, range safety and carry-chain
// coverage of the carry-balanced stimulus.
#include <gtest/gtest.h>

#include <set>

#include "src/characterize/patterns.hpp"
#include "src/model/carry_chain.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {
namespace {

TEST(PatternStreamTest, DeterministicPerSeed) {
  PatternStream s1(16, 42);
  PatternStream s2(16, 42);
  for (int i = 0; i < 200; ++i) {
    const OperandPair a = s1.next();
    const OperandPair b = s2.next();
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
  }
}

TEST(PatternStreamTest, OperandsFitWidth) {
  for (int width : {4, 8, 16, 32}) {
    PatternStream s(width, 7);
    for (int i = 0; i < 500; ++i) {
      const OperandPair p = s.next();
      EXPECT_EQ(p.a & ~mask_n(width), 0u);
      EXPECT_EQ(p.b & ~mask_n(width), 0u);
    }
  }
}

TEST(PatternStreamTest, DifferentSeedsDiffer) {
  PatternStream s1(16, 1);
  PatternStream s2(16, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (s1.next().a == s2.next().a) ++same;
  EXPECT_LT(same, 20);
}

TEST(CarryBalancedPatterns, CoverAllChainLengths) {
  // The paper requires stimuli that exercise every carry-chain length;
  // for an 8-bit adder all Cth values 0..8 must appear in 20k patterns.
  PatternStream s(8, 42);
  std::set<int> seen;
  for (int i = 0; i < 20000; ++i) {
    const OperandPair p = s.next();
    seen.insert(theoretical_max_carry_chain(p.a, p.b, 8));
  }
  EXPECT_EQ(seen.size(), 9u);
}

TEST(CarryBalancedPatterns, LongChainsWellRepresented) {
  // Uniform operands almost never produce a full 16-bit chain; the
  // carry-balanced stimulus must hit long chains regularly.
  PatternStream s(16, 42);
  int long_chains = 0;
  for (int i = 0; i < 20000; ++i) {
    const OperandPair p = s.next();
    if (theoretical_max_carry_chain(p.a, p.b, 16) >= 12) ++long_chains;
  }
  EXPECT_GT(long_chains, 200);
}

TEST(PatternStreamTest, WidthValidated) {
  EXPECT_THROW(PatternStream(0, 1), ContractViolation);
  EXPECT_THROW(PatternStream(64, 1), ContractViolation);
}

}  // namespace
}  // namespace vosim
