// Fig. 5 reproduction: distribution of BER across the output bit
// positions of the 8-bit RCA under voltage over-scaling (Vdd 0.8, 0.7,
// 0.6, 0.5 V at the synthesis clock period, no body-bias).
//
// Paper shape: at 0.8 V the MSBs start to fail; at 0.7-0.6 V the middle
// bits dominate; at 0.5 V all middle bits reach >= 50% BER; bit 0 never
// fails (single-XOR path).
//
// Machine-readable lines, gated in tools/run_benches.sh:
//   FIG5_PROV_DEV_PP         max per-bit deviation of the attributed
//                            BER from the output-diff BER (<= 0.5 pp)
//   PROVENANCE_OVERHEAD_PCT  the observers-off event-engine sweep timed
//                            against itself (<= 2%)
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench/bench_common.hpp"
#include "src/netlist/dut.hpp"
#include "src/characterize/report.hpp"
#include "src/util/table.hpp"

int main() {
  using namespace vosim;
  using namespace vosim::bench;
  print_header(
      "Fig. 5 — BER vs output bit position, 8-bit RCA under VOS",
      "paper Fig. 5");

  const CellLibrary& lib = make_fdsoi28_lvt();
  const DutNetlist rca = to_dut(build_rca(8));
  const double cp = synthesize_report(rca.netlist, lib).critical_path_ns;
  std::cout << "Tclk = synthesis critical path = " << format_double(cp, 3)
            << " ns, no body-bias\n";

  std::vector<OperatingTriad> triads;
  for (const double vdd : {0.8, 0.7, 0.6, 0.5})
    triads.push_back({cp, vdd, 0.0});
  const auto results = characterize_dut(rca, lib, triads, bench_config());

  std::vector<std::string> header{"Vdd [V]"};
  for (int i = 0; i <= 8; ++i)
    header.push_back("bit" + std::to_string(i) + " [%]");
  header.push_back("overall BER [%]");
  TextTable t(header);
  for (const TriadResult& r : results) {
    std::vector<std::string> row{format_double(r.triad.vdd_v, 1)};
    for (const double b : r.bitwise_ber)
      row.push_back(format_double(b * 100.0, 1));
    row.push_back(format_double(r.ber * 100.0, 2));
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  write_csv(t, "fig5_ber_bitpos.csv");

  // Provenance cross-check: rerun the same sweep with ErrorProvenance
  // observers attached and derive the per-bit BER from culprit
  // attribution instead of output diffing. The PO net sits in its own
  // fan-in cone, so attribution must reproduce the table above —
  // FIG5_PROV_DEV_PP is the max per-bit deviation in percentage
  // points.
  CharacterizeConfig prov_cfg = bench_config();
  prov_cfg.provenance = true;
  const auto prov = characterize_dut(rca, lib, triads, prov_cfg);
  double dev_pp = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& attributed = prov[i].provenance.bitwise_ber;
    for (std::size_t bit = 0; bit < results[i].bitwise_ber.size(); ++bit) {
      const double a = bit < attributed.size() ? attributed[bit] : 0.0;
      dev_pp = std::max(
          dev_pp, std::abs(a - results[i].bitwise_ber[bit]) * 100.0);
    }
  }
  std::cout << "\nprovenance attribution: "
            << prov.back().provenance.attributed_bits
            << " erroneous bits attributed at Vdd 0.5V, top culprits "
            << prov.back().provenance.top_culprits_string(3) << "\n";
  std::cout << "FIG5_PROV_DEV_PP " << format_double(dev_pp, 3) << "\n";

  // The observers-off sweep on one thread, the event engine's
  // per-transition dispatch sites included.
  CharacterizeConfig off_cfg = bench_config();
  off_cfg.threads = 1;
  print_provenance_overhead(
      [&] { characterize_dut(rca, lib, triads, off_cfg); });

  std::cout << "\npaper shape check: 0.8V -> MSB onset; 0.7/0.6V -> middle"
               " bits grow; 0.5V -> middle bits ~50%; bit0 = 0 always.\n"
            << "CSV: fig5_ber_bitpos.csv\n";
  return 0;
}
