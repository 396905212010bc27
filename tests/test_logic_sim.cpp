// Zero-delay logic evaluation tests, parameterized over every cell kind.
#include <gtest/gtest.h>

#include "src/netlist/eval.hpp"
#include "src/tech/cell.hpp"
#include "src/util/contracts.hpp"

namespace vosim {
namespace {

class CellEvalTest : public ::testing::TestWithParam<CellKind> {};

TEST_P(CellEvalTest, SingleGateMatchesTruthTable) {
  const CellKind kind = GetParam();
  const int n_in = cell_num_inputs(kind);

  Netlist nl("one_gate");
  std::vector<NetId> ins;
  for (int i = 0; i < n_in; ++i)
    ins.push_back(nl.add_input("i" + std::to_string(i)));
  NetId out = invalid_net;
  switch (n_in) {
    case 0: out = nl.add_gate(kind, {}); break;
    case 1: out = nl.add_gate(kind, {ins[0]}); break;
    case 2: out = nl.add_gate(kind, {ins[0], ins[1]}); break;
    default: out = nl.add_gate(kind, {ins[0], ins[1], ins[2]}); break;
  }
  nl.mark_output(out);
  nl.finalize();

  const unsigned combos = 1u << n_in;
  for (unsigned idx = 0; idx < combos; ++idx) {
    std::vector<std::uint8_t> inputs(static_cast<std::size_t>(n_in), 0);
    for (int i = 0; i < n_in; ++i)
      inputs[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((idx >> i) & 1u);
    const auto values = evaluate_logic(nl, inputs);
    EXPECT_EQ(values[out], (cell_truth(kind) >> idx) & 1u)
        << cell_kind_name(kind) << " minterm " << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CellEvalTest,
    ::testing::Values(CellKind::kInv, CellKind::kBuf, CellKind::kNand2,
                      CellKind::kNor2, CellKind::kAnd2, CellKind::kOr2,
                      CellKind::kXor2, CellKind::kXnor2, CellKind::kAoi21,
                      CellKind::kOai21, CellKind::kAo21, CellKind::kMaj3,
                      CellKind::kTieLo, CellKind::kTieHi),
    [](const ::testing::TestParamInfo<CellKind>& info) {
      std::string n = cell_kind_name(info.param);
      return n.substr(0, n.find('_'));
    });

TEST(EvaluateLogic, InputArityChecked) {
  Netlist nl("x");
  const NetId a = nl.add_input("a");
  nl.mark_output(nl.add_gate(CellKind::kInv, {a}));
  nl.finalize();
  const std::vector<std::uint8_t> wrong(2, 0);
  EXPECT_THROW(evaluate_logic(nl, wrong), ContractViolation);
}

TEST(EvaluateLogic, MultiLevelNetwork) {
  // f = (a NAND b) XOR (a OR c)
  Netlist nl("f");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId nand_ab = nl.add_gate(CellKind::kNand2, {a, b});
  const NetId or_ac = nl.add_gate(CellKind::kOr2, {a, c});
  const NetId f = nl.add_gate(CellKind::kXor2, {nand_ab, or_ac});
  nl.mark_output(f);
  nl.finalize();
  for (unsigned idx = 0; idx < 8; ++idx) {
    const bool va = idx & 1, vb = (idx >> 1) & 1, vc = (idx >> 2) & 1;
    const bool expect = (!(va && vb)) != (va || vc);
    const std::vector<std::uint8_t> in{static_cast<std::uint8_t>(va),
                                       static_cast<std::uint8_t>(vb),
                                       static_cast<std::uint8_t>(vc)};
    EXPECT_EQ(evaluate_logic(nl, in)[f], expect ? 1 : 0) << idx;
  }
}

TEST(PackWord, PacksSelectedNets) {
  std::vector<std::uint8_t> values{1, 0, 1, 1};
  const std::vector<NetId> nets{3, 2, 0};
  // bit0 = net3 (1), bit1 = net2 (1), bit2 = net0 (1) => 0b111.
  EXPECT_EQ(pack_word(values, nets), 0b111u);
}

TEST(PackWord, ExplicitExample) {
  std::vector<std::uint8_t> values{0, 1, 0, 1};
  const std::vector<NetId> nets{1, 2, 3};
  // bit0 = net1 (1), bit1 = net2 (0), bit2 = net3 (1) => 0b101.
  EXPECT_EQ(pack_word(values, nets), 0b101u);
}

}  // namespace
}  // namespace vosim
