// Generic word-operator simulation on multiplier DUTs (the paper's
// "different arithmetic configurations" extension): exactness at
// relaxed clocks, mid-product failures under VOS, forward body bias,
// operand and bus validation, and activity-dependent energy.
#include <gtest/gtest.h>

#include "src/netlist/dut.hpp"
#include "src/netlist/multiplier.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/sta.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

double mul8_cp_ns() {
  static const double cp =
      analyze_timing(build_array_multiplier(8).netlist, lib(),
                     {1, 1.0, 0.0})
          .critical_path_ps *
      1e-3;
  return cp;
}

TEST(WordSim, MultiplierExactAtRelaxedClock) {
  const DutNetlist mul = to_dut(build_array_multiplier(8));
  VosDutSim sim(mul, lib(), {mul8_cp_ns() * 2.0, 1.0, 0.0});
  EXPECT_EQ(sim.num_operands(), 2u);
  EXPECT_EQ(sim.operand_width(0), 8);
  EXPECT_EQ(sim.output_width(), 16);
  EXPECT_EQ(mul.kind, "mul8-array");
  Rng rng(1);
  for (int t = 0; t < 800; ++t) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    const VosOpResult r = sim.apply(a, b);
    ASSERT_EQ(r.sampled, a * b);
    ASSERT_EQ(r.settled, a * b);
  }
}

TEST(WordSim, MultiplierBreaksUnderVos) {
  const DutNetlist mul = to_dut(build_array_multiplier(8));
  VosDutSim sim(mul, lib(), {mul8_cp_ns(), 0.6, 0.0});
  Rng rng(2);
  int errors = 0;
  for (int t = 0; t < 800; ++t) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    const VosOpResult r = sim.apply(a, b);
    ASSERT_EQ(r.settled, a * b);  // functionally still a multiplier
    if (r.sampled != a * b) ++errors;
  }
  EXPECT_GT(errors, 50);
}

TEST(WordSim, MultiplierMidProductBitsFailMost) {
  // The array multiplier's longest paths end in the middle product
  // columns — the same "middle bits dominate" signature as Fig. 5.
  const DutNetlist mul = to_dut(build_array_multiplier(8));
  VosDutSim sim(mul, lib(), {mul8_cp_ns() * 0.75, 1.0, 0.0});
  Rng rng(3);
  std::vector<int> bit_err(16, 0);
  for (int t = 0; t < 3000; ++t) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    const std::uint64_t diff = sim.apply(a, b).sampled ^ (a * b);
    for (int i = 0; i < 16; ++i)
      if (bit_of(diff, i) != 0) ++bit_err[static_cast<std::size_t>(i)];
  }
  int mid = 0;
  int low = 0;
  for (int i = 6; i <= 12; ++i) mid += bit_err[static_cast<std::size_t>(i)];
  for (int i = 0; i <= 3; ++i) low += bit_err[static_cast<std::size_t>(i)];
  EXPECT_GT(mid, 5 * std::max(low, 1));
}

TEST(WordSim, FbbRescuesMultiplierToo) {
  const DutNetlist mul = to_dut(build_array_multiplier(8));
  auto errors_at = [&](double vdd, double vbb) {
    VosDutSim sim(mul, lib(), {mul8_cp_ns() * 1.55, vdd, vbb});
    Rng rng(4);
    int errors = 0;
    for (int t = 0; t < 500; ++t) {
      const std::uint64_t a = rng.bits(8);
      const std::uint64_t b = rng.bits(8);
      if (sim.apply(a, b).sampled != a * b) ++errors;
    }
    return errors;
  };
  EXPECT_GT(errors_at(0.6, 0.0), 0);
  EXPECT_EQ(errors_at(0.6, 2.0), 0);
}

TEST(WordSim, OperandValidation) {
  const DutNetlist mul = to_dut(build_array_multiplier(4));
  VosDutSim sim(mul, lib(), {10.0, 1.0, 0.0});
  EXPECT_THROW(sim.apply(0x10, 0), ContractViolation);  // 5 bits into 4
  const std::uint64_t one_op[1] = {0};
  EXPECT_THROW(sim.apply({one_op, 1}), ContractViolation);  // missing op
}

TEST(WordSim, BusNetsMustBePrimaryInputs) {
  const MultiplierNetlist mul = build_array_multiplier(4);
  std::vector<NetId> bogus{mul.prod[0]};  // an output net, not a PI
  const DutNetlist dut =
      make_dut(mul.netlist, {mul.a, bogus}, mul.prod);
  EXPECT_THROW(DutPinMap{dut}, ContractViolation);
}

TEST(WordSim, EnergyScalesWithActivity) {
  const DutNetlist mul = to_dut(build_array_multiplier(8));
  VosDutSim sim(mul, lib(), {mul8_cp_ns() * 2.0, 1.0, 0.0});
  sim.reset(0, 0);
  // Re-applying identical operands costs only leakage.
  const VosOpResult idle = sim.apply(0, 0);
  EXPECT_DOUBLE_EQ(idle.energy_fj, sim.leakage_energy_fj());
  const VosOpResult busy = sim.apply(0xFF, 0xFF);
  EXPECT_GT(busy.energy_fj, 10.0 * idle.energy_fj);
}

}  // namespace
}  // namespace vosim
