// Unit tests for src/tech: transistor model physics, cells, library and
// gate-level timing/energy evaluation.
#include <gtest/gtest.h>

#include <vector>

#include "src/tech/cell.hpp"
#include "src/tech/gate_timing.hpp"
#include "src/tech/library.hpp"
#include "src/tech/operating_point.hpp"
#include "src/tech/transistor_model.hpp"
#include "src/util/contracts.hpp"

namespace vosim {
namespace {

const TransistorModel& model() {
  static const TransistorModel m{};
  return m;
}

// ------------------------------------------------------------ triad labels
TEST(OperatingTriadTest, LabelMatchesPaperStyle) {
  EXPECT_EQ(triad_label({0.28, 0.5, 2.0}), "0.28,0.5,±2");
  EXPECT_EQ(triad_label({0.5, 1.0, 0.0}), "0.5,1.0,0");
  EXPECT_EQ(triad_label({0.13, 0.4, -2.0}), "0.13,0.4,-2");
}

// -------------------------------------------------------- transistor model
TEST(TransistorModelTest, NominalScaleIsUnity) {
  EXPECT_NEAR(model().delay_scale(1.0, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(model().leakage_scale(1.0, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(model().drive(1.0, 0.0), 1.0, 1e-12);
}

TEST(TransistorModelTest, DelayGrowsMonotonicallyAsVddDrops) {
  double prev = 0.0;
  for (double vdd = 1.0; vdd >= 0.4; vdd -= 0.05) {
    const double s = model().delay_scale(vdd, 0.0);
    EXPECT_GT(s, prev) << "at " << vdd;
    prev = s;
  }
}

TEST(TransistorModelTest, NearThresholdBlowup) {
  // Deep VOS must slow the circuit by an order of magnitude or more
  // (the paper's 0.4 V points sit far right of the BER cliff).
  EXPECT_GT(model().delay_scale(0.4, 0.0), 10.0);
  EXPECT_LT(model().delay_scale(0.9, 0.0), 1.5);
}

TEST(TransistorModelTest, ForwardBodyBiasSpeedsUp) {
  for (double vdd : {1.0, 0.8, 0.6, 0.5, 0.4}) {
    EXPECT_LT(model().delay_scale(vdd, 2.0), model().delay_scale(vdd, 0.0))
        << "FBB must reduce delay at " << vdd;
  }
}

TEST(TransistorModelTest, ReverseBodyBiasSlowsDown) {
  EXPECT_GT(model().delay_scale(1.0, -2.0), 1.0);
}

TEST(TransistorModelTest, PaperHeadlineOrdering) {
  // 0.5 V + 2 V FBB must be fast enough to fit within the ~1.55x signoff
  // margin while 0.8 V unbiased must not (Fig. 5 / Fig. 8a structure).
  const double margin = 1.55;
  EXPECT_LT(model().delay_scale(0.5, 2.0), margin);
  EXPECT_GT(model().delay_scale(0.8, 0.0), margin);
  EXPECT_LT(model().delay_scale(0.9, 0.0), margin);
}

TEST(TransistorModelTest, VtShiftLinearInBias) {
  const TransistorParams p;
  EXPECT_NEAR(model().vt_eff(0.0), p.vt0_v, 1e-12);
  EXPECT_NEAR(model().vt_eff(2.0), p.vt0_v - 2.0 * p.body_coeff_v_per_v,
              1e-12);
  EXPECT_NEAR(model().vt_eff(-2.0), p.vt0_v + 2.0 * p.body_coeff_v_per_v,
              1e-12);
  // Bias clamps at the supported range.
  EXPECT_NEAR(model().vt_eff(5.0), model().vt_eff(2.0), 1e-12);
}

TEST(TransistorModelTest, LeakageRisesWithForwardBias) {
  const double base = model().leakage_scale(1.0, 0.0);
  const double fbb = model().leakage_scale(1.0, 2.0);
  EXPECT_GT(fbb, 5.0 * base);   // exponential increase
  EXPECT_LT(fbb, 200.0 * base); // but bounded to stay a modest E/op share
  EXPECT_LT(model().leakage_scale(1.0, -2.0), base);  // RBB saves leakage
}

TEST(TransistorModelTest, LeakageDropsWithVdd) {
  EXPECT_LT(model().leakage_scale(0.5, 0.0), model().leakage_scale(1.0, 0.0));
}

TEST(TransistorModelTest, RejectsDeepSubthresholdSupply) {
  EXPECT_THROW(model().delay_scale(0.1, 0.0), ContractViolation);
}

TEST(TransistorModelTest, SmoothAroundThreshold) {
  // The EKV interpolation must not kink at Vdd == Vt.
  const double vt = model().vt_eff(0.0);
  const double eps = 1e-4;
  const double lo = model().delay_scale(vt - eps, 0.0);
  const double hi = model().delay_scale(vt + eps, 0.0);
  EXPECT_NEAR(lo / hi, 1.0, 0.01);
}

TEST(TransistorModelTest, InvalidParamsRejected) {
  TransistorParams p;
  p.alpha = 3.0;
  EXPECT_THROW(TransistorModel{p}, ContractViolation);
  TransistorParams q;
  q.nominal_vdd_v = 0.3;  // below Vt0
  EXPECT_THROW(TransistorModel{q}, ContractViolation);
}

// -------------------------------------------------------------------- cells
TEST(CellTest, TruthTablesMatchSemantics) {
  auto t = [](CellKind k, unsigned idx) {
    return ((cell_truth(k) >> idx) & 1u) != 0;
  };
  // INV / BUF
  EXPECT_TRUE(t(CellKind::kInv, 0));
  EXPECT_FALSE(t(CellKind::kInv, 1));
  // NAND2 vs AND2 complement
  for (unsigned i = 0; i < 4; ++i)
    EXPECT_NE(t(CellKind::kNand2, i), t(CellKind::kAnd2, i));
  // XOR2
  EXPECT_FALSE(t(CellKind::kXor2, 0b00));
  EXPECT_TRUE(t(CellKind::kXor2, 0b01));
  EXPECT_TRUE(t(CellKind::kXor2, 0b10));
  EXPECT_FALSE(t(CellKind::kXor2, 0b11));
  // MAJ3 over all 8 minterms
  for (unsigned i = 0; i < 8; ++i) {
    const int ones = (i & 1) + ((i >> 1) & 1) + ((i >> 2) & 1);
    EXPECT_EQ(t(CellKind::kMaj3, i), ones >= 2) << i;
  }
  // AO21(a,b,c) = (a&b)|c with pins packed a=bit0,b=bit1,c=bit2
  for (unsigned i = 0; i < 8; ++i) {
    const bool a = i & 1, b = (i >> 1) & 1, c = (i >> 2) & 1;
    EXPECT_EQ(t(CellKind::kAo21, i), (a && b) || c) << i;
    EXPECT_EQ(t(CellKind::kAoi21, i), !((a && b) || c)) << i;
    EXPECT_EQ(t(CellKind::kOai21, i), !((a || b) && c)) << i;
  }
}

TEST(CellTest, NamesAreUnique) {
  std::vector<std::string> names;
  for (int k = 0; k < cell_kind_count; ++k)
    names.push_back(cell_kind_name(static_cast<CellKind>(k)));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

// ------------------------------------------------------------------ library
TEST(LibraryTest, AllKindsPresentAndSane) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  for (int k = 0; k < cell_kind_count; ++k) {
    const auto kind = static_cast<CellKind>(k);
    const Cell& c = lib.cell(kind);
    EXPECT_EQ(c.kind, kind);
    EXPECT_EQ(c.num_inputs, cell_num_inputs(kind));
    EXPECT_EQ(c.truth, cell_truth(kind));
    EXPECT_GT(c.area_um2, 0.0);
    if (c.num_inputs > 0) {
      EXPECT_GT(c.input_cap_ff, 0.0);
      EXPECT_GT(c.intrinsic_delay_ps, 0.0);
      EXPECT_GT(c.drive_ps_per_ff, 0.0);
    }
    EXPECT_GT(c.leakage_nw, 0.0);
  }
  EXPECT_GT(lib.wire_cap_ff(), 0.0);
  EXPECT_GT(lib.dff_area_um2(), 0.0);
  EXPECT_GT(lib.dff_d_cap_ff(), 0.0);
}

TEST(LibraryTest, XorSlowerThanNand) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  EXPECT_GT(lib.cell(CellKind::kXor2).intrinsic_delay_ps,
            lib.cell(CellKind::kNand2).intrinsic_delay_ps);
}

// -------------------------------------------------------------- gate timing
TEST(GateTiming, DelayLinearInLoad) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  const Cell& inv = lib.cell(CellKind::kInv);
  const OperatingTriad op{1.0, 1.0, 0.0};
  const double d0 = gate_delay_ps(inv, 0.0, lib.transistor_model(), op);
  const double d2 = gate_delay_ps(inv, 2.0, lib.transistor_model(), op);
  EXPECT_DOUBLE_EQ(d0, inv.intrinsic_delay_ps);
  EXPECT_DOUBLE_EQ(d2 - d0, 2.0 * inv.drive_ps_per_ff);
}

TEST(GateTiming, DelayScalesWithVoltage) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  const Cell& inv = lib.cell(CellKind::kInv);
  const double d_nom = gate_delay_ps(inv, 1.0, lib.transistor_model(),
                                     {1.0, 1.0, 0.0});
  const double d_low = gate_delay_ps(inv, 1.0, lib.transistor_model(),
                                     {1.0, 0.6, 0.0});
  EXPECT_NEAR(d_low / d_nom,
              lib.transistor_model().delay_scale(0.6, 0.0), 1e-9);
}

TEST(GateTiming, ToggleEnergyQuadraticInVdd) {
  EXPECT_DOUBLE_EQ(toggle_energy_fj(2.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(toggle_energy_fj(2.0, 0.5), 0.25);
  EXPECT_THROW(toggle_energy_fj(-1.0, 1.0), ContractViolation);
}

}  // namespace
}  // namespace vosim
