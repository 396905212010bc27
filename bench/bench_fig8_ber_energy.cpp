// Fig. 8 reproduction: Bit-Error-Rate and Energy/Operation across the
// 43 operating triads for the 8/16-bit RCA and BKA (sub-figures a-d).
// Triads are printed in the paper's x-axis order (BER ascending, ties
// by energy), with energy efficiency vs the relaxed nominal baseline.
//
// The sweep runs on both SimEngine backends: the event-driven engine
// produces the reported tables; the bit-parallel levelized engine runs
// the identical grid afterwards, and the bench prints machine-readable
// LEVELIZED_SPEEDUP (timed by bench_common's time_ratio) and
// LEVELIZED_BER_DEV_PP lines that tools/run_benches.sh gates on
// (speedup floor 5×, BER deviation ≤ 2 percentage points on the
// 8-bit RCA).
#include <cmath>
#include <iostream>

#include "bench/bench_common.hpp"
#include "src/characterize/report.hpp"

int main() {
  using namespace vosim;
  using namespace vosim::bench;
  print_header("Fig. 8 — BER vs Energy/Operation across 43 triads",
               "paper Fig. 8a-d");

  const CellLibrary& lib = make_fdsoi28_lvt();
  const std::vector<Benchmark> benchmarks = paper_benchmarks();
  const CharacterizeConfig event_cfg = bench_config();
  CharacterizeConfig lev_cfg = bench_config();
  lev_cfg.engine = EngineKind::kLevelized;
  const char* subfig = "abcd";
  int idx = 0;
  double rca8_ber_dev_pp = 0.0;
  for (const Benchmark& b : benchmarks) {
    const auto results = characterize_dut(b.dut, lib, b.triads, event_cfg);
    const auto lev_results =
        characterize_dut(b.dut, lib, b.triads, lev_cfg);
    double dev = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i)
      dev = std::max(dev,
                     std::abs(results[i].ber - lev_results[i].ber));
    if (b.arch == AdderArch::kRipple && b.width == 8)
      rca8_ber_dev_pp = dev * 100.0;
    const double baseline = results[0].energy_per_op_fj;
    const auto sorted = sort_for_fig8(results);

    std::cout << "\n--- Fig. 8" << subfig[idx] << ": " << b.name
              << " (baseline " << format_double(baseline, 2)
              << " fJ/op at " << triad_label(results[0].triad) << ") ---\n";
    const TextTable t = fig8_table(sorted, baseline);
    t.print(std::cout);
    const std::string csv =
        std::string("fig8") + subfig[idx] + "_" +
        (b.width == 8 ? "8" : "16") + adder_arch_name(b.arch) + ".csv";
    write_csv(t, csv);
    std::cout << "CSV: " << csv << "\n";

    // Headline claims of Section V for quick eyeballing.
    int zero_ber = 0;
    for (const auto& r : results)
      if (r.ber == 0.0) ++zero_ber;
    std::cout << "triads at 0% BER: " << zero_ber
              << "  (paper: 16/14/15/18 for 8RCA/8BKA/16RCA/16BKA)\n";
    std::cout << "levelized engine max |BER - event BER|: "
              << format_double(dev * 100.0, 2) << " pp\n";
    ++idx;
  }

  // Machine-readable engine comparison for tools/run_benches.sh.
  const auto sweep_all = [&](const CharacterizeConfig& cfg) {
    return [&, cfg] {
      for (const Benchmark& b : benchmarks)
        characterize_dut(b.dut, lib, b.triads, cfg);
    };
  };
  std::cout << "\n--- engine comparison (all four sweeps, equal patterns)"
               " ---\n";
  print_engine_speedup("LEVELIZED_SPEEDUP", sweep_all(event_cfg),
                       sweep_all(lev_cfg));
  std::cout << "LEVELIZED_BER_DEV_PP " << format_double(rca8_ber_dev_pp, 3)
            << "\n";
  return 0;
}
