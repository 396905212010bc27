// Adder-tree generator tests: functional reduction, VOS behaviour and
// the error concentration in the final stage.
#include <gtest/gtest.h>

#include <numeric>
#include <span>

#include "src/netlist/adder_tree.hpp"
#include "src/netlist/dut.hpp"
#include "src/netlist/eval.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/sta.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

std::uint64_t functional_sum(const AdderTreeNetlist& tree,
                             const std::vector<std::uint64_t>& xs) {
  std::vector<std::uint8_t> inputs(tree.netlist.primary_inputs().size(), 0);
  std::size_t slot = 0;
  for (const std::uint64_t x : xs)
    for (int i = 0; i < tree.leaf_width; ++i)
      inputs[slot++] = static_cast<std::uint8_t>((x >> i) & 1u);
  const auto values = evaluate_logic(tree.netlist, inputs);
  return pack_word(values, tree.sum);
}

class AdderTreeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AdderTreeTest, SumsOperandsExactly) {
  const auto [leaves, width] = GetParam();
  const AdderTreeNetlist tree = build_adder_tree(leaves, width);
  EXPECT_EQ(tree.leaves.size(), static_cast<std::size_t>(leaves));
  EXPECT_EQ(tree.sum.size(),
            static_cast<std::size_t>(width) +
                static_cast<std::size_t>(std::bit_width(
                    static_cast<unsigned>(leaves - 1))));
  Rng rng(100 + static_cast<std::uint64_t>(leaves * width));
  for (int t = 0; t < 400; ++t) {
    std::vector<std::uint64_t> xs;
    std::uint64_t expect = 0;
    for (int l = 0; l < leaves; ++l) {
      xs.push_back(rng.bits(width));
      expect += xs.back();
    }
    ASSERT_EQ(functional_sum(tree, xs), expect);
  }
  // All-max corner.
  std::vector<std::uint64_t> maxed(static_cast<std::size_t>(leaves),
                                   mask_n(width));
  ASSERT_EQ(functional_sum(tree, maxed),
            static_cast<std::uint64_t>(leaves) * mask_n(width));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AdderTreeTest,
    ::testing::Values(std::tuple{2, 8}, std::tuple{4, 8}, std::tuple{8, 8},
                      std::tuple{16, 4}, std::tuple{4, 12},
                      std::tuple{32, 6}),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "L" + std::to_string(std::get<0>(info.param)) + "w" +
             std::to_string(std::get<1>(info.param));
    });

TEST(AdderTree, Validation) {
  EXPECT_THROW(build_adder_tree(3, 8), ContractViolation);
  EXPECT_THROW(build_adder_tree(0, 8), ContractViolation);
  EXPECT_THROW(build_adder_tree(4, 1), ContractViolation);
}

TEST(AdderTree, VosErrorsConcentrateInUpperBits) {
  // Under mild VOS the final (widest) stage fails first: upper result
  // bits err while the low bits stay clean.
  const DutNetlist tree = to_dut(build_adder_tree(8, 8));
  const double cp_ns =
      analyze_timing(tree.netlist, lib(), {1, 1.0, 0.0}).critical_path_ps *
      1e-3;
  VosDutSim sim(tree, lib(), {0.85 * cp_ns, 1.0, 0.0});
  Rng rng(7);
  const int out_bits = tree.output_width();
  std::vector<int> bit_err(static_cast<std::size_t>(out_bits), 0);
  int err_ops = 0;
  for (int t = 0; t < 2500; ++t) {
    std::vector<std::uint64_t> xs;
    std::uint64_t expect = 0;
    for (int l = 0; l < 8; ++l) {
      xs.push_back(rng.bits(8));
      expect += xs.back();
    }
    const std::uint64_t diff =
        sim.apply(std::span<const std::uint64_t>(xs)).sampled ^ expect;
    if (diff != 0) ++err_ops;
    for (int i = 0; i < out_bits; ++i)
      if (bit_of(diff, i) != 0) ++bit_err[static_cast<std::size_t>(i)];
  }
  ASSERT_GT(err_ops, 20);  // the operating point does stress the tree
  int low = 0;
  int high = 0;
  for (int i = 0; i < 4; ++i) low += bit_err[static_cast<std::size_t>(i)];
  for (int i = out_bits - 4; i < out_bits; ++i)
    high += bit_err[static_cast<std::size_t>(i)];
  EXPECT_GT(high, 3 * std::max(low, 1));
}

TEST(AdderTree, DepthGrowsLogarithmically) {
  const double cp2 = analyze_timing(build_adder_tree(2, 8).netlist, lib(),
                                    {1, 1.0, 0.0})
                         .critical_path_ps;
  const double cp8 = analyze_timing(build_adder_tree(8, 8).netlist, lib(),
                                    {1, 1.0, 0.0})
                         .critical_path_ps;
  const double cp16 = analyze_timing(build_adder_tree(16, 8).netlist,
                                     lib(), {1, 1.0, 0.0})
                          .critical_path_ps;
  // Depth adds roughly one ripple stage per level, far from linear in
  // the number of leaves.
  EXPECT_LT(cp16, cp2 * 4.0);
  EXPECT_GT(cp16, cp8);
}

}  // namespace
}  // namespace vosim
