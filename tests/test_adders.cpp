// Functional verification of every exact adder generator: exhaustive at
// small widths, randomized at large widths, plus structural properties.
#include <gtest/gtest.h>

#include <tuple>

#include "src/netlist/adders.hpp"
#include "src/netlist/eval.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

/// Functional evaluation of an adder netlist (zero-delay).
std::uint64_t functional_add(const AdderNetlist& adder, std::uint64_t a,
                             std::uint64_t b) {
  std::vector<std::uint8_t> inputs(adder.netlist.primary_inputs().size(), 0);
  // Inputs were created a-bits-first, then b-bits (then optional cin).
  for (int i = 0; i < adder.width; ++i) {
    inputs[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((a >> i) & 1u);
    inputs[static_cast<std::size_t>(adder.width + i)] =
        static_cast<std::uint8_t>((b >> i) & 1u);
  }
  const auto values = evaluate_logic(adder.netlist, inputs);
  return pack_word(values, adder.sum);
}

using ArchWidth = std::tuple<AdderArch, int>;

class ExactAdderTest : public ::testing::TestWithParam<ArchWidth> {};

TEST_P(ExactAdderTest, MatchesExhaustiveOrRandomAddition) {
  const auto [arch, width] = GetParam();
  const AdderNetlist adder = build_adder(arch, width);
  EXPECT_EQ(adder.width, width);
  ASSERT_EQ(adder.sum.size(), static_cast<std::size_t>(width) + 1);

  if (width <= 6) {
    const std::uint64_t n = 1ULL << width;
    for (std::uint64_t a = 0; a < n; ++a)
      for (std::uint64_t b = 0; b < n; ++b)
        ASSERT_EQ(functional_add(adder, a, b), a + b)
            << adder_arch_name(arch) << width << ": " << a << "+" << b;
  } else {
    Rng rng(2024 + static_cast<std::uint64_t>(width));
    for (int k = 0; k < 3000; ++k) {
      const std::uint64_t a = rng.bits(width);
      const std::uint64_t b = rng.bits(width);
      ASSERT_EQ(functional_add(adder, a, b), a + b)
          << adder_arch_name(arch) << width << ": " << a << "+" << b;
    }
    // Directed corners: all-ones, alternating, single carry chains.
    const std::uint64_t m = mask_n(width);
    for (const auto& [a, b] :
         {std::pair<std::uint64_t, std::uint64_t>{m, m},
          {m, 1},
          {0x5555555555555555ULL & m, 0xAAAAAAAAAAAAAAAAULL & m},
          {m - 1, 1},
          {1ULL << (width - 1), 1ULL << (width - 1)}}) {
      ASSERT_EQ(functional_add(adder, a, b), a + b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, ExactAdderTest,
    ::testing::Values(
        ArchWidth{AdderArch::kRipple, 2}, ArchWidth{AdderArch::kRipple, 4},
        ArchWidth{AdderArch::kRipple, 5}, ArchWidth{AdderArch::kRipple, 8},
        ArchWidth{AdderArch::kRipple, 13}, ArchWidth{AdderArch::kRipple, 16},
        ArchWidth{AdderArch::kRipple, 32},
        ArchWidth{AdderArch::kBrentKung, 2},
        ArchWidth{AdderArch::kBrentKung, 4},
        ArchWidth{AdderArch::kBrentKung, 8},
        ArchWidth{AdderArch::kBrentKung, 16},
        ArchWidth{AdderArch::kBrentKung, 32},
        ArchWidth{AdderArch::kKoggeStone, 2},
        ArchWidth{AdderArch::kKoggeStone, 4},
        ArchWidth{AdderArch::kKoggeStone, 7},
        ArchWidth{AdderArch::kKoggeStone, 8},
        ArchWidth{AdderArch::kKoggeStone, 11},
        ArchWidth{AdderArch::kKoggeStone, 16},
        ArchWidth{AdderArch::kSklansky, 4},
        ArchWidth{AdderArch::kSklansky, 8},
        ArchWidth{AdderArch::kSklansky, 16},
        ArchWidth{AdderArch::kCarrySkip, 4},
        ArchWidth{AdderArch::kCarrySkip, 8},
        ArchWidth{AdderArch::kCarrySkip, 11},
        ArchWidth{AdderArch::kCarrySkip, 16},
        ArchWidth{AdderArch::kHanCarlson, 2},
        ArchWidth{AdderArch::kHanCarlson, 4},
        ArchWidth{AdderArch::kHanCarlson, 8},
        ArchWidth{AdderArch::kHanCarlson, 16},
        ArchWidth{AdderArch::kHanCarlson, 32},
        ArchWidth{AdderArch::kCarrySelect, 4},
        ArchWidth{AdderArch::kCarrySelect, 8},
        ArchWidth{AdderArch::kCarrySelect, 10},
        ArchWidth{AdderArch::kCarrySelect, 16}),
    [](const ::testing::TestParamInfo<ArchWidth>& info) {
      return adder_arch_name(std::get<0>(info.param)) +
             std::to_string(std::get<1>(info.param));
    });

TEST(AdderBuilders, RcaWithCarryIn) {
  const AdderNetlist adder = build_rca(8, /*with_cin=*/true);
  ASSERT_NE(adder.cin, invalid_net);
  std::vector<std::uint8_t> inputs(adder.netlist.primary_inputs().size(), 0);
  Rng rng(5);
  for (int k = 0; k < 500; ++k) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    const bool cin = rng.flip(0.5);
    for (int i = 0; i < 8; ++i) {
      inputs[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((a >> i) & 1u);
      inputs[static_cast<std::size_t>(8 + i)] =
          static_cast<std::uint8_t>((b >> i) & 1u);
    }
    inputs[16] = cin ? 1 : 0;
    const auto values = evaluate_logic(adder.netlist, inputs);
    ASSERT_EQ(pack_word(values, adder.sum), a + b + (cin ? 1u : 0u));
  }
}

TEST(AdderBuilders, PowerOfTwoRequiredWhereDocumented) {
  EXPECT_THROW(build_brent_kung(12), ContractViolation);
  EXPECT_THROW(build_sklansky(6), ContractViolation);
  EXPECT_THROW(build_han_carlson(10), ContractViolation);
  EXPECT_NO_THROW(build_kogge_stone(12));
  EXPECT_NO_THROW(build_carry_skip(10));
}

TEST(AdderStructure, HanCarlsonSparserThanKoggeStone) {
  // Han-Carlson trades one extra level for roughly half the prefix
  // cells of Kogge-Stone.
  const AdderNetlist hc = build_han_carlson(16);
  const AdderNetlist ks = build_kogge_stone(16);
  EXPECT_LT(hc.netlist.num_gates(), ks.netlist.num_gates());
}

TEST(AdderBuilders, WidthBoundsEnforced) {
  EXPECT_THROW(build_rca(1), ContractViolation);
  EXPECT_THROW(build_rca(64), ContractViolation);
  EXPECT_THROW(build_adder(AdderArch::kLowerOr, 8), ContractViolation);
}

TEST(AdderStructure, BrentKungLargerButShallowerThanRca) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  const AdderNetlist rca = build_rca(16);
  const AdderNetlist bka = build_brent_kung(16);
  // Parallel prefix trades area for logic depth (paper Table II).
  EXPECT_GT(bka.netlist.cell_area_um2(lib), rca.netlist.cell_area_um2(lib));
  EXPECT_GT(bka.netlist.num_gates(), rca.netlist.num_gates());
}

TEST(AdderStructure, KoggeStoneAtLeastAsLargeAsBrentKung) {
  const AdderNetlist ks = build_kogge_stone(16);
  const AdderNetlist bk = build_brent_kung(16);
  EXPECT_GE(ks.netlist.num_gates(), bk.netlist.num_gates());
}

TEST(AdderStructure, ArchNamesDistinct) {
  EXPECT_EQ(adder_arch_name(AdderArch::kRipple), "RCA");
  EXPECT_EQ(adder_arch_name(AdderArch::kBrentKung), "BKA");
  EXPECT_NE(adder_arch_name(AdderArch::kKoggeStone),
            adder_arch_name(AdderArch::kSklansky));
}

}  // namespace
}  // namespace vosim
