// DutNetlist abstraction tests: conversions, pin-map scatter/gather
// round trips, bus-width contracts, netlist composition (append_copy /
// MAC trees), and the circuit registry.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/characterize/characterizer.hpp"
#include "src/characterize/metrics.hpp"
#include "src/netlist/adder_tree.hpp"
#include "src/netlist/adders.hpp"
#include "src/netlist/dut.hpp"
#include "src/netlist/eval.hpp"
#include "src/netlist/multiplier.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/sta.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

/// Functional output of a DUT for given operands, via the zero-delay
/// golden evaluator and the same pin map the simulators use (a
/// one-operation lane scatter).
std::uint64_t golden_eval(const DutNetlist& dut, const DutPinMap& pins,
                          std::span<const std::uint64_t> ops) {
  std::vector<lanes::Word> words(dut.netlist.primary_inputs().size());
  pins.scatter_lanes(ops, 1, words);
  std::vector<std::uint8_t> in;
  lanes::unpack_lane(words, 0, in);
  return pack_word(evaluate_logic(dut.netlist, in), dut.outputs);
}

TEST(DutNetlist, AdderConversionMetadata) {
  const DutNetlist dut = to_dut(build_brent_kung(8));
  EXPECT_EQ(dut.kind, "bka8");
  EXPECT_EQ(dut.display_name, "8-bit BKA");
  EXPECT_EQ(dut.num_operands(), 2u);
  EXPECT_EQ(dut.operand_width(0), 8);
  EXPECT_EQ(dut.output_width(), 9);
  EXPECT_EQ(dut.inputs[0].name, "a");
  EXPECT_EQ(dut.inputs[1].name, "b");
  const auto widths = dut.operand_widths();
  ASSERT_EQ(widths.size(), 2u);
  EXPECT_EQ(widths[0], 8);
}

TEST(DutNetlist, MultiplierConversionMetadata) {
  const DutNetlist arr = to_dut(build_array_multiplier(6));
  EXPECT_EQ(arr.kind, "mul6-array");
  EXPECT_EQ(arr.output_width(), 12);
  const DutNetlist wal = to_dut(build_wallace_multiplier(6));
  EXPECT_EQ(wal.kind, "mul6-wallace");
  EXPECT_EQ(wal.display_name, "6x6 wallace multiplier");
}

TEST(DutNetlist, TreeConversionOneBusPerLeaf) {
  const DutNetlist tree = to_dut(build_adder_tree(4, 6));
  EXPECT_EQ(tree.kind, "tree4x6");
  EXPECT_EQ(tree.num_operands(), 4u);
  EXPECT_EQ(tree.output_width(), 6 + 2);
}

TEST(DutPinMap, ScatterGatherRoundTripAdder) {
  const DutNetlist dut = to_dut(build_rca(8));
  const DutPinMap pins(dut);
  Rng rng(11);
  for (int t = 0; t < 500; ++t) {
    const std::uint64_t ops[2] = {rng.bits(8), rng.bits(8)};
    EXPECT_EQ(golden_eval(dut, pins, ops), ops[0] + ops[1]);
  }
}

TEST(DutPinMap, ScatterGatherRoundTripMultiplier) {
  for (const DutNetlist& dut : {to_dut(build_array_multiplier(8)),
                                to_dut(build_wallace_multiplier(8))}) {
    const DutPinMap pins(dut);
    Rng rng(12);
    for (int t = 0; t < 500; ++t) {
      const std::uint64_t ops[2] = {rng.bits(8), rng.bits(8)};
      EXPECT_EQ(golden_eval(dut, pins, ops), ops[0] * ops[1]) << dut.kind;
    }
  }
}

TEST(DutPinMap, GatherInvertsScatterOnPermutedBuses) {
  // The lane scatter into PI words and the gather from a synthetic PO
  // word must invert each other even when the bus order permutes the
  // PI order. The words start as garbage: the scatter overwrites them.
  const MultiplierNetlist mul = build_array_multiplier(4);
  // Present the buses swapped: operand 0 is b, operand 1 is a.
  const DutNetlist dut = make_dut(mul.netlist, {mul.b, mul.a}, mul.prod);
  const DutPinMap pins(dut);
  const std::uint64_t ops[2] = {0x5, 0xA};
  std::vector<lanes::Word> words(dut.netlist.primary_inputs().size(),
                                 ~lanes::Word{0});
  pins.scatter_lanes(ops, 1, words);
  for (const lanes::Word w : words) EXPECT_EQ(w & ~lanes::Word{1}, 0u);
  std::vector<std::uint8_t> in;
  lanes::unpack_lane(words, 0, in);
  const auto pis = dut.netlist.primary_inputs();
  for (int i = 0; i < 4; ++i) {
    // b carries 0x5, a carries 0xA.
    const auto slot_b = static_cast<std::size_t>(
        std::find(pis.begin(), pis.end(), mul.b[static_cast<std::size_t>(i)]) -
        pis.begin());
    const auto slot_a = static_cast<std::size_t>(
        std::find(pis.begin(), pis.end(), mul.a[static_cast<std::size_t>(i)]) -
        pis.begin());
    EXPECT_EQ(in[slot_b], (0x5 >> i) & 1);
    EXPECT_EQ(in[slot_a], (0xA >> i) & 1);
  }
  // Gather: bit i of the output word is PO position of outputs[i].
  const auto values = evaluate_logic(dut.netlist, in);
  EXPECT_EQ(pack_word(values, dut.outputs),
            static_cast<std::uint64_t>(0x5 * 0xA));
}

TEST(DutPinMap, RejectsOverwideInputBus) {
  Netlist nl("wide_in");
  std::vector<NetId> bus;
  for (int i = 0; i < 64; ++i)  // one past max_word_bits
    bus.push_back(nl.add_input("i" + std::to_string(i)));
  const NetId out = nl.add_gate(CellKind::kAnd2, {bus[0], bus[1]});
  nl.mark_output(out);
  nl.finalize();
  const DutNetlist dut = make_dut(nl, {bus}, {out}, "wide");
  try {
    const DutPinMap pins(dut);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("64 bits"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("max_word_bits"),
              std::string::npos);
  }
}

TEST(DutPinMap, RejectsOverwideOutputBus) {
  // 65 marked outputs overflows the packed uint64_t word — the error
  // must be loud, not a silent truncation.
  Netlist nl("wide_out");
  const NetId a = nl.add_input("a");
  std::vector<NetId> outs;
  for (int i = 0; i < 65; ++i) {
    outs.push_back(nl.add_gate(CellKind::kBuf, {a}));
    nl.mark_output(outs.back());
  }
  nl.finalize();
  const DutNetlist dut = make_dut(nl, {{a}}, outs, "wide_out");
  EXPECT_THROW(DutPinMap{dut}, ContractViolation);
}

TEST(DutPinMap, RejectsOperandOverflowAtFill) {
  // The lane scatter checks every operand of every lane against its
  // bus width, as the per-operation fill did.
  const DutNetlist dut = to_dut(build_rca(4));
  const DutPinMap pins(dut);
  std::vector<lanes::Word> words(dut.netlist.primary_inputs().size());
  const std::uint64_t ops[2] = {0x10, 0};  // 5 bits into a 4-bit bus
  EXPECT_THROW(pins.scatter_lanes(ops, 1, words), ContractViolation);
  std::vector<std::uint64_t> batch(2 * 64, 0x3);
  batch[2 * 37 + 1] = 0x1F;  // lane 37's second operand overflows
  EXPECT_THROW(pins.scatter_lanes(batch, 64, words), ContractViolation);
  batch[2 * 37 + 1] = 0xF;
  EXPECT_NO_THROW(pins.scatter_lanes(batch, 64, words));
}

TEST(DutPinMap, LaneScatterMatchesPerBitLoop) {
  // 1..64 operations of a three-bus tree with a permuted pin order:
  // lane k of PI word slot(b, i) is bit i of operation k's operand b,
  // and every PI outside the buses stays zero.
  const AdderTreeNetlist tree = build_adder_tree(4, 5);
  const DutNetlist dut =
      make_dut(tree.netlist, {tree.leaves[2], tree.leaves[0], tree.leaves[3]},
               tree.sum);  // leaves[1] is left uncovered
  const DutPinMap pins(dut);
  const std::size_t npis = dut.netlist.primary_inputs().size();
  Rng rng(17);
  for (const std::size_t count : {1u, 2u, 31u, 63u, 64u}) {
    std::vector<std::uint64_t> ops(3 * count);
    for (std::uint64_t& o : ops) o = rng.bits(5);
    std::vector<lanes::Word> words(npis, ~lanes::Word{0});
    pins.scatter_lanes(ops, count, words);
    std::vector<lanes::Word> want(npis, 0);
    for (std::size_t k = 0; k < count; ++k)
      for (std::size_t b = 0; b < 3; ++b)
        for (int i = 0; i < 5; ++i)
          if ((ops[k * 3 + b] >> i) & 1u)
            lanes::set_lane(want[pins.input_slots(b)[i]], k);
    EXPECT_EQ(words, want) << count << " operations";
  }
}

TEST(AppendCopy, ReplicatesFunctionWithSubstitutedInputs) {
  const MultiplierNetlist mul = build_array_multiplier(4);
  Netlist nl("wrap");
  std::vector<NetId> a;
  std::vector<NetId> b;
  for (int i = 0; i < 4; ++i) a.push_back(nl.add_input("x" + std::to_string(i)));
  for (int i = 0; i < 4; ++i) b.push_back(nl.add_input("y" + std::to_string(i)));
  const auto pis = mul.netlist.primary_inputs();
  std::vector<NetId> subs(pis.size(), invalid_net);
  for (int i = 0; i < 4; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    subs[static_cast<std::size_t>(
        std::find(pis.begin(), pis.end(), mul.a[ui]) - pis.begin())] = a[ui];
    subs[static_cast<std::size_t>(
        std::find(pis.begin(), pis.end(), mul.b[ui]) - pis.begin())] = b[ui];
  }
  const auto map = append_copy(nl, mul.netlist, subs, "m0_");
  std::vector<NetId> prod;
  for (const NetId p : mul.prod) {
    prod.push_back(map[p]);
    nl.mark_output(map[p]);
  }
  nl.finalize();
  EXPECT_EQ(nl.num_gates(), mul.netlist.num_gates());

  const DutNetlist dut = make_dut(nl, {a, b}, prod, "wrapped-mul");
  const DutPinMap pins(dut);
  Rng rng(13);
  for (int t = 0; t < 300; ++t) {
    const std::uint64_t ops[2] = {rng.bits(4), rng.bits(4)};
    EXPECT_EQ(golden_eval(dut, pins, ops), ops[0] * ops[1]);
  }
}

TEST(MacDut, SettledFunctionIsSumOfProducts) {
  const DutNetlist mac = build_mac_dut(4, 4);
  EXPECT_EQ(mac.kind, "mac4x4");
  EXPECT_EQ(mac.num_operands(), 8u);
  EXPECT_EQ(mac.output_width(), 2 * 4 + 2);
  const DutPinMap pins(mac);
  Rng rng(14);
  for (int t = 0; t < 300; ++t) {
    std::uint64_t ops[8];
    std::uint64_t expect = 0;
    for (int k = 0; k < 4; ++k) {
      ops[2 * k] = rng.bits(4);
      ops[2 * k + 1] = rng.bits(4);
      expect += ops[2 * k] * ops[2 * k + 1];
    }
    EXPECT_EQ(golden_eval(mac, pins, ops), expect);
  }
}

TEST(CircuitRegistry, ParsesKnownSpecs) {
  EXPECT_EQ(build_circuit("rca8").kind, "rca8");
  EXPECT_EQ(build_circuit("bka16").kind, "bka16");
  EXPECT_EQ(build_circuit("mul8-array").kind, "mul8-array");
  EXPECT_EQ(build_circuit("mul4-wallace").kind, "mul4-wallace");
  EXPECT_EQ(build_circuit("tree4x8").kind, "tree4x8");
  EXPECT_EQ(build_circuit("mac4x8").kind, "mac4x8");
  EXPECT_EQ(build_circuit("loa8-4").kind, "loa8");
  EXPECT_EQ(build_circuit("trunc8").kind, "trunc8");  // k defaults w/2
  EXPECT_EQ(build_circuit("specw8-3").kind, "specw8");
}

TEST(CircuitRegistry, ExactAdderKindsReadBack) {
  // One table serves spec -> arch, arch -> kind and kind -> arch: every
  // exact adder's kind reads back as its arch and width, and builds
  // the same adder again.
  for (const AdderArch arch :
       {AdderArch::kRipple, AdderArch::kBrentKung, AdderArch::kKoggeStone,
        AdderArch::kSklansky, AdderArch::kCarrySelect,
        AdderArch::kCarrySkip, AdderArch::kHanCarlson}) {
    const DutNetlist dut = to_dut(build_adder(arch, 8));
    const auto adder = exact_adder_of(dut.kind);
    ASSERT_TRUE(adder.has_value()) << dut.kind;
    EXPECT_EQ(adder->first, arch) << dut.kind;
    EXPECT_EQ(adder->second, 8) << dut.kind;
    EXPECT_EQ(build_circuit(dut.kind).display_name, dut.display_name);
  }
  for (const char* other : {"loa8", "specw8", "mul8-array", "tree8x8",
                            "mac4x8", "seq(rca8)", "rca", "dut", ""})
    EXPECT_FALSE(exact_adder_of(other).has_value()) << other;
}

TEST(CircuitRegistry, RejectsMalformedSpecs) {
  for (const char* bad : {"", "rca", "rca8x", "mul8", "mul8-booth",
                          "tree8", "mac4", "frobnicate9", "8rca"}) {
    EXPECT_THROW(build_circuit(bad), std::invalid_argument) << bad;
  }
  // The error message teaches the grammar.
  try {
    build_circuit("nope");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("mul<w>-wallace"),
              std::string::npos);
  }
}

TEST(Metrics, MredTracksRelativeError) {
  ErrorAccumulator acc(8);
  acc.add(100, 90);  // |e|/ref = 0.1
  acc.add(50, 50);   // 0
  acc.add(0, 1);     // zero-reference convention: |e|/1 = 1
  EXPECT_NEAR(acc.mred(), (0.1 + 0.0 + 1.0) / 3.0, 1e-12);
  ErrorAccumulator other(8);
  other.add(10, 15);  // 0.5
  acc.merge(other);
  EXPECT_NEAR(acc.mred(), (0.1 + 0.0 + 1.0 + 0.5) / 4.0, 1e-12);
}

}  // namespace
}  // namespace vosim
