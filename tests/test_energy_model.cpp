// Algorithm-level energy model tests.
#include <gtest/gtest.h>

#include "src/model/energy_model.hpp"
#include "src/netlist/dut.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/tech/library.hpp"
#include "src/util/contracts.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

struct Setup {
  AdderNetlist adder = build_rca(8);
  double cp_ns = 0.0;
};

const Setup& setup() {
  static const Setup s = [] {
    Setup x;
    x.cp_ns = synthesize_report(x.adder.netlist, lib()).critical_path_ns;
    return x;
  }();
  return s;
}

TEST(EnergyModel, FitsNominalOperationWell) {
  const OperatingTriad triad{setup().cp_ns, 1.0, 0.0};
  EnergyTrainerConfig cfg;
  cfg.num_patterns = 4000;
  const VosEnergyModel model =
      train_energy_model(setup().adder, lib(), triad, cfg);
  const EnergyFit fit =
      evaluate_energy_model(model, setup().adder, lib(), 4000);
  // Per-op variance is partly glitch-driven, which operand features
  // cannot see; ~45% explained variance is the honest ceiling of the
  // linear model, and the mean absolute error stays bounded.
  EXPECT_GT(fit.r_squared, 0.40);
  EXPECT_LT(fit.mean_abs_error_fj, 0.35 * fit.mean_energy_fj);
}

TEST(EnergyModel, AggregateEnergyTracksSimulator) {
  // Applications sum energies over many operations; the unbiased fit
  // must land close in aggregate even where per-op R^2 is modest.
  const OperatingTriad triad{setup().cp_ns, 1.0, 0.0};
  EnergyTrainerConfig cfg;
  cfg.num_patterns = 4000;
  const VosEnergyModel model =
      train_energy_model(setup().adder, lib(), triad, cfg);

  const DutNetlist dut = to_dut(build_rca(8));
  VosDutSim sim(dut, lib(), triad);
  PatternStream patterns(8, 9999);
  OperandPair prev = patterns.next();
  sim.reset(prev.a, prev.b);
  double simulated = 0.0;
  double predicted = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const OperandPair cur = patterns.next();
    simulated += sim.apply(cur.a, cur.b).energy_fj;
    predicted += model.predict_fj(prev.a, prev.b, cur.a, cur.b);
    prev = cur;
  }
  EXPECT_NEAR(predicted / simulated, 1.0, 0.10);
}

TEST(EnergyModel, SwitchingCoefficientPositive) {
  const OperatingTriad triad{setup().cp_ns, 1.0, 0.0};
  EnergyTrainerConfig cfg;
  cfg.num_patterns = 3000;
  const VosEnergyModel model =
      train_energy_model(setup().adder, lib(), triad, cfg);
  // More toggled input bits must cost more energy.
  EXPECT_GT(model.coefficients()[1], 0.0);
  EXPECT_GT(model.predict_fj(0, 0, 0xFF, 0xFF),
            model.predict_fj(0, 0, 0x01, 0x00));
}

TEST(EnergyModel, IdleOperationCostsLittle) {
  const OperatingTriad triad{setup().cp_ns, 1.0, 0.0};
  EnergyTrainerConfig cfg;
  cfg.num_patterns = 3000;
  const VosEnergyModel model =
      train_energy_model(setup().adder, lib(), triad, cfg);
  // Re-issuing identical operands toggles nothing.
  const double idle = model.predict_fj(0x35, 0x0A, 0x35, 0x0A);
  const double busy = model.predict_fj(0x00, 0x00, 0xFF, 0x01);
  EXPECT_LT(idle, 0.35 * busy);
  EXPECT_GE(idle, 0.0);
}

TEST(EnergyModel, TracksVoltageScaling) {
  EnergyTrainerConfig cfg;
  cfg.num_patterns = 3000;
  const VosEnergyModel nominal = train_energy_model(
      setup().adder, lib(), {setup().cp_ns, 1.0, 0.0}, cfg);
  const VosEnergyModel scaled = train_energy_model(
      setup().adder, lib(), {setup().cp_ns, 0.6, 2.0}, cfg);
  // Mean predicted energy drops roughly quadratically with Vdd.
  const double e_nom = nominal.predict_fj(0, 0, 0xAB, 0x55);
  const double e_low = scaled.predict_fj(0, 0, 0xAB, 0x55);
  EXPECT_LT(e_low, 0.55 * e_nom);
  EXPECT_GT(e_low, 0.1 * e_nom);
}

TEST(EnergyModel, UsefulUnderDeepVosToo) {
  const OperatingTriad triad{setup().cp_ns, 0.6, 0.0};  // erroneous point
  EnergyTrainerConfig cfg;
  cfg.num_patterns = 4000;
  const VosEnergyModel model =
      train_energy_model(setup().adder, lib(), triad, cfg);
  const EnergyFit fit =
      evaluate_energy_model(model, setup().adder, lib(), 4000);
  EXPECT_GT(fit.r_squared, 0.5);
}

TEST(EnergyModel, Validation) {
  EXPECT_THROW(VosEnergyModel(0, {1, 1, 0}, {}, 1.0),
               ContractViolation);
  EXPECT_THROW(VosEnergyModel(8, {1, 1, 0}, {}, 0.0),
               ContractViolation);
  EnergyTrainerConfig bad;
  bad.num_patterns = 4;
  EXPECT_THROW(
      train_energy_model(setup().adder, lib(), {1.0, 1.0, 0.0}, bad),
      ContractViolation);
}

}  // namespace
}  // namespace vosim
