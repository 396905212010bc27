// Static timing analysis and synthesis-report tests, including a
// hand-computed inverter-chain check against library data.
#include <gtest/gtest.h>

#include "src/netlist/adders.hpp"
#include "src/sta/sta.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/tech/gate_timing.hpp"
#include "src/tech/library.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

TEST(Sta, HandComputedInverterChain) {
  Netlist nl("chain3");
  NetId n = nl.add_input("in");
  const NetId n1 = nl.add_gate(CellKind::kInv, {n});
  const NetId n2 = nl.add_gate(CellKind::kInv, {n1});
  const NetId n3 = nl.add_gate(CellKind::kInv, {n2});
  nl.mark_output(n3);
  nl.finalize();

  const Cell& inv = lib().cell(CellKind::kInv);
  const double mid_load = inv.input_cap_ff + lib().wire_cap_ff();
  const double end_load = lib().wire_cap_ff() + lib().dff_d_cap_ff();
  const double expected =
      2.0 * (inv.intrinsic_delay_ps + inv.drive_ps_per_ff * mid_load) +
      (inv.intrinsic_delay_ps + inv.drive_ps_per_ff * end_load);

  const TimingAnalysis ta = analyze_timing(nl, lib(), {1.0, 1.0, 0.0});
  EXPECT_NEAR(ta.critical_path_ps, expected, 1e-9);
  ASSERT_EQ(ta.critical_nets.size(), 4u);  // in, n1, n2, n3
  EXPECT_EQ(ta.critical_nets.front(), nl.primary_inputs()[0]);
  EXPECT_EQ(ta.critical_nets.back(), n3);
}

TEST(Sta, ArrivalsScaleWithOperatingPoint) {
  const AdderNetlist rca = build_rca(8);
  const TimingAnalysis nom = analyze_timing(rca.netlist, lib(), {1, 1.0, 0.0});
  const TimingAnalysis low = analyze_timing(rca.netlist, lib(), {1, 0.6, 0.0});
  const double scale = lib().transistor_model().delay_scale(0.6, 0.0);
  EXPECT_NEAR(low.critical_path_ps, nom.critical_path_ps * scale, 1e-6);
  for (std::size_t i = 0; i < nom.output_arrival_ps.size(); ++i)
    EXPECT_NEAR(low.output_arrival_ps[i], nom.output_arrival_ps[i] * scale,
                1e-6);
}

TEST(Sta, RcaSumArrivalsMonotoneInBitPosition) {
  const AdderNetlist rca = build_rca(16);
  const TimingAnalysis ta = analyze_timing(rca.netlist, lib(), {1, 1.0, 0.0});
  // Sum bit arrivals grow along the ripple chain (bit 0 is fastest).
  // The last output is the carry-out, which skips the final sum XOR and
  // lands earlier than the top sum bit, so it is excluded.
  const auto& arr = ta.output_arrival_ps;
  ASSERT_EQ(arr.size(), 17u);
  for (std::size_t i = 2; i + 2 < arr.size(); ++i)
    EXPECT_GE(arr[i + 1], arr[i]) << "bit " << i;
  EXPECT_LT(arr[0], arr[8]);
}

TEST(Sta, BrentKungShallowerThanRca) {
  const AdderNetlist rca = build_rca(16);
  const AdderNetlist bka = build_brent_kung(16);
  const double rca_cp =
      analyze_timing(rca.netlist, lib(), {1, 1.0, 0.0}).critical_path_ps;
  const double bka_cp =
      analyze_timing(bka.netlist, lib(), {1, 1.0, 0.0}).critical_path_ps;
  EXPECT_LT(bka_cp, rca_cp);
  // Paper Table II ratio is ~0.47; allow a generous band.
  EXPECT_GT(bka_cp / rca_cp, 0.25);
  EXPECT_LT(bka_cp / rca_cp, 0.8);
}

TEST(Sta, CriticalPathIsConnected) {
  const AdderNetlist rca = build_rca(8);
  const TimingAnalysis ta = analyze_timing(rca.netlist, lib(), {1, 1.0, 0.0});
  // Consecutive critical nets must be gate input/output pairs.
  for (std::size_t i = 0; i + 1 < ta.critical_nets.size(); ++i) {
    const GateId g = rca.netlist.driver(ta.critical_nets[i + 1]);
    ASSERT_NE(g, invalid_gate);
    bool feeds = false;
    for (std::uint8_t k = 0; k < rca.netlist.gate(g).num_inputs; ++k)
      feeds |= rca.netlist.gate(g).in[k] == ta.critical_nets[i];
    EXPECT_TRUE(feeds) << "segment " << i;
  }
}

TEST(SynthesisReportTest, FieldsConsistent) {
  const AdderNetlist rca = build_rca(8);
  const SynthesisReport r = synthesize_report(rca.netlist, lib());
  EXPECT_EQ(r.design, "rca8");
  EXPECT_EQ(r.num_flops, 16 + 9);
  EXPECT_NEAR(r.area_um2, r.comb_area_um2 + r.reg_area_um2, 1e-9);
  EXPECT_NEAR(r.total_power_uw, r.dynamic_power_uw + r.leakage_power_uw,
              1e-9);
  EXPECT_NEAR(r.critical_path_ns / r.tt_critical_path_ns, 1.55, 1e-9);
  EXPECT_GT(r.dynamic_power_uw, r.leakage_power_uw);  // adders at 1 V
}

TEST(SynthesisReportTest, PaperTableTwoOrdering) {
  // Area: BKA > RCA at both widths; delay: BKA < RCA (paper Table II).
  const SynthesisReport rca8 = synthesize_report(build_rca(8).netlist, lib());
  const SynthesisReport bka8 =
      synthesize_report(build_brent_kung(8).netlist, lib());
  const SynthesisReport rca16 =
      synthesize_report(build_rca(16).netlist, lib());
  const SynthesisReport bka16 =
      synthesize_report(build_brent_kung(16).netlist, lib());
  EXPECT_GT(bka8.area_um2, rca8.area_um2);
  EXPECT_GT(bka16.area_um2, rca16.area_um2);
  EXPECT_LT(bka8.critical_path_ns, rca8.critical_path_ns);
  EXPECT_LT(bka16.critical_path_ns, rca16.critical_path_ns);
  EXPECT_GT(rca16.area_um2, rca8.area_um2);
  EXPECT_GT(bka8.total_power_uw, rca8.total_power_uw);
}

}  // namespace
}  // namespace vosim
