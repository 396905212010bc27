// Functional verification of the array multiplier.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/netlist/eval.hpp"
#include "src/netlist/multiplier.hpp"
#include "src/sta/sta.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

std::uint64_t functional_mul(const MultiplierNetlist& mul, std::uint64_t a,
                             std::uint64_t b) {
  std::vector<std::uint8_t> inputs(mul.netlist.primary_inputs().size(), 0);
  for (int i = 0; i < mul.width; ++i) {
    inputs[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((a >> i) & 1u);
    inputs[static_cast<std::size_t>(mul.width + i)] =
        static_cast<std::uint8_t>((b >> i) & 1u);
  }
  const auto values = evaluate_logic(mul.netlist, inputs);
  return pack_word(values, mul.prod);
}

using MulParam = std::tuple<int, bool>;  // width, wallace?
class MultiplierTest : public ::testing::TestWithParam<MulParam> {};

TEST_P(MultiplierTest, MatchesMultiplication) {
  const auto [width, wallace] = GetParam();
  const MultiplierNetlist mul = wallace ? build_wallace_multiplier(width)
                                        : build_array_multiplier(width);
  ASSERT_EQ(mul.prod.size(), static_cast<std::size_t>(2 * width));

  if (width <= 5) {
    const std::uint64_t n = 1ULL << width;
    for (std::uint64_t a = 0; a < n; ++a)
      for (std::uint64_t b = 0; b < n; ++b)
        ASSERT_EQ(functional_mul(mul, a, b), a * b)
            << width << "-bit " << a << "*" << b;
  } else {
    Rng rng(404 + static_cast<std::uint64_t>(width));
    for (int t = 0; t < 2000; ++t) {
      const std::uint64_t a = rng.bits(width);
      const std::uint64_t b = rng.bits(width);
      ASSERT_EQ(functional_mul(mul, a, b), a * b)
          << width << "-bit " << a << "*" << b;
    }
    const std::uint64_t m = mask_n(width);
    ASSERT_EQ(functional_mul(mul, m, m), m * m);
    ASSERT_EQ(functional_mul(mul, m, 0), 0u);
    ASSERT_EQ(functional_mul(mul, m, 1), m);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, MultiplierTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6, 8, 12, 16),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<MulParam>& info) {
      return std::string(std::get<1>(info.param) ? "wallace" : "array") +
             std::to_string(std::get<0>(info.param));
    });

TEST(WallaceMultiplier, ShallowerThanArray) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  const MultiplierNetlist arr = build_array_multiplier(8);
  const MultiplierNetlist wal = build_wallace_multiplier(8);
  const double cp_arr =
      analyze_timing(arr.netlist, lib, {1, 1.0, 0.0}).critical_path_ps;
  const double cp_wal =
      analyze_timing(wal.netlist, lib, {1, 1.0, 0.0}).critical_path_ps;
  EXPECT_LT(cp_wal, cp_arr);
}

TEST(MultiplierBuilder, WidthBounds) {
  EXPECT_THROW(build_array_multiplier(1), ContractViolation);
  EXPECT_THROW(build_array_multiplier(17), ContractViolation);
}

TEST(MultiplierBuilder, GateCountScalesQuadratically) {
  const auto m4 = build_array_multiplier(4);
  const auto m8 = build_array_multiplier(8);
  // Partial products alone are width^2 AND gates.
  EXPECT_GE(m8.netlist.num_gates(), 3.0 * m4.netlist.num_gates());
}

}  // namespace
}  // namespace vosim
