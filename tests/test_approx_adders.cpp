// Functional semantics of the static approximate adder baselines, and
// the key equivalence between the speculative-window hardware adder and
// the model's windowed addition.
#include <gtest/gtest.h>

#include <tuple>

#include "src/model/windowed_add.hpp"
#include "src/netlist/approx_adders.hpp"
#include "src/netlist/eval.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

std::uint64_t functional_add(const AdderNetlist& adder, std::uint64_t a,
                             std::uint64_t b) {
  std::vector<std::uint8_t> inputs(adder.netlist.primary_inputs().size(), 0);
  for (int i = 0; i < adder.width; ++i) {
    inputs[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((a >> i) & 1u);
    inputs[static_cast<std::size_t>(adder.width + i)] =
        static_cast<std::uint8_t>((b >> i) & 1u);
  }
  const auto values = evaluate_logic(adder.netlist, inputs);
  return pack_word(values, adder.sum);
}

/// Bit-level reference for the lower-part OR adder.
std::uint64_t loa_reference(std::uint64_t a, std::uint64_t b, int /*n*/,
                            int k) {
  const std::uint64_t low = (a | b) & mask_n(k);
  const std::uint64_t carry = bit_of(a, k - 1) & bit_of(b, k - 1);
  const std::uint64_t hi =
      (a >> k) + (b >> k) + static_cast<std::uint64_t>(carry);
  return low | (hi << k);
}

TEST(LowerOrAdder, MatchesReferenceExhaustively) {
  for (int k : {1, 2, 4, 7}) {
    const AdderNetlist loa = build_lower_or(8, k);
    for (std::uint64_t a = 0; a < 256; a += 3)
      for (std::uint64_t b = 0; b < 256; b += 5)
        ASSERT_EQ(functional_add(loa, a, b), loa_reference(a, b, 8, k))
            << "k=" << k << " a=" << a << " b=" << b;
  }
}

TEST(LowerOrAdder, ExactWhenNoLowCarryNeeded) {
  const AdderNetlist loa = build_lower_or(8, 4);
  // Disjoint low bits (a&b low == 0 and no propagate chain into bit 4):
  // a=0b0001'0101, b=0b0010'1010 -> low OR is the exact low sum.
  const std::uint64_t a = 0b00010101;
  const std::uint64_t b = 0b00101010;
  EXPECT_EQ(functional_add(loa, a, b), a + b);
}

TEST(TruncatedAdder, LowBitsZeroUpperExact) {
  for (int k : {1, 3, 4}) {
    const AdderNetlist tr = build_truncated(8, k);
    Rng rng(77);
    for (int t = 0; t < 400; ++t) {
      const std::uint64_t a = rng.bits(8);
      const std::uint64_t b = rng.bits(8);
      const std::uint64_t got = functional_add(tr, a, b);
      EXPECT_EQ(got & mask_n(k), 0u);
      EXPECT_EQ(got >> k, (a >> k) + (b >> k));
    }
  }
}

TEST(CarryCutAdder, ExactWhenCarryDoesNotCross) {
  const AdderNetlist cut = build_carry_cut(8, 4);
  // No carry out of the low half: low sums < 16.
  EXPECT_EQ(functional_add(cut, 0x23, 0x14) & mask_n(9),
            static_cast<std::uint64_t>(0x23 + 0x14));
}

TEST(CarryCutAdder, DropsCrossingCarry) {
  const AdderNetlist cut = build_carry_cut(8, 4);
  // 0x0F + 0x01 generates a carry crossing bit 4, which is dropped.
  EXPECT_EQ(functional_add(cut, 0x0F, 0x01) & mask_n(9), 0u);
}

TEST(CarryCutAdder, ReferenceSemantics) {
  const int n = 8;
  const int k = 4;
  const AdderNetlist cut = build_carry_cut(n, k);
  Rng rng(31);
  for (int t = 0; t < 500; ++t) {
    const std::uint64_t a = rng.bits(n);
    const std::uint64_t b = rng.bits(n);
    const std::uint64_t low = ((a & mask_n(k)) + (b & mask_n(k))) & mask_n(k);
    const std::uint64_t hi = (a >> k) + (b >> k);
    ASSERT_EQ(functional_add(cut, a, b) & mask_n(n + 1), low | (hi << k));
  }
}

// -- speculative window adder == model windowed_add ----------------------

using WidthWindow = std::tuple<int, int>;
class SpecWindowTest : public ::testing::TestWithParam<WidthWindow> {};

TEST_P(SpecWindowTest, HardwareMatchesModelWindowedAdd) {
  const auto [width, window] = GetParam();
  const AdderNetlist spec = build_speculative_window(width, window);
  if (width <= 6) {
    const std::uint64_t n = 1ULL << width;
    for (std::uint64_t a = 0; a < n; ++a)
      for (std::uint64_t b = 0; b < n; ++b)
        ASSERT_EQ(functional_add(spec, a, b),
                  windowed_add(a, b, width, window))
            << "w=" << width << " C=" << window << " " << a << "+" << b;
  } else {
    Rng rng(99);
    for (int t = 0; t < 2000; ++t) {
      const std::uint64_t a = rng.bits(width);
      const std::uint64_t b = rng.bits(width);
      ASSERT_EQ(functional_add(spec, a, b),
                windowed_add(a, b, width, window))
          << "w=" << width << " C=" << window << " " << a << "+" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndWindows, SpecWindowTest,
    ::testing::Values(WidthWindow{4, 1}, WidthWindow{4, 2}, WidthWindow{4, 4},
                      WidthWindow{6, 1}, WidthWindow{6, 3}, WidthWindow{6, 6},
                      WidthWindow{8, 1}, WidthWindow{8, 2}, WidthWindow{8, 4},
                      WidthWindow{8, 8}, WidthWindow{16, 4},
                      WidthWindow{16, 8}, WidthWindow{16, 16}),
    [](const ::testing::TestParamInfo<WidthWindow>& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "C" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SpecWindowAdder, FullWindowIsExact) {
  const AdderNetlist spec = build_speculative_window(8, 8);
  Rng rng(123);
  for (int t = 0; t < 1000; ++t) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    ASSERT_EQ(functional_add(spec, a, b), a + b);
  }
}

TEST(ApproxBuilders, ParameterValidation) {
  EXPECT_THROW(build_lower_or(8, 0), ContractViolation);
  EXPECT_THROW(build_lower_or(8, 8), ContractViolation);
  EXPECT_THROW(build_truncated(8, 9), ContractViolation);
  EXPECT_THROW(build_carry_cut(8, 0), ContractViolation);
  EXPECT_THROW(build_speculative_window(8, 0), ContractViolation);
  EXPECT_THROW(build_speculative_window(8, 9), ContractViolation);
}

TEST(ApproxBuilders, ArchTagsSet) {
  EXPECT_EQ(build_lower_or(8, 4).arch, AdderArch::kLowerOr);
  EXPECT_EQ(build_truncated(8, 4).arch, AdderArch::kTruncated);
  EXPECT_EQ(build_carry_cut(8, 4).arch, AdderArch::kCarryCut);
  EXPECT_EQ(build_speculative_window(8, 4).arch,
            AdderArch::kSpeculativeWindow);
}

}  // namespace
}  // namespace vosim
