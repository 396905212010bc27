#include "src/characterize/variability.hpp"

#include "src/sim/vos_dut.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/parallel.hpp"
#include "src/util/stats.hpp"

namespace vosim {

DieSpread spread_of(std::vector<double> samples) {
  DieSpread s;
  RunningStats rs;
  for (const double v : samples) rs.add(v);
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = rs.min();
  s.max = rs.max();
  const auto qs = quantiles(std::move(samples), {0.25, 0.50, 0.75});
  s.q25 = qs[0];
  s.median = qs[1];
  s.q75 = qs[2];
  return s;
}

std::vector<VariabilityResult> variability_study(
    const DutNetlist& dut, const CellLibrary& lib,
    const std::vector<OperatingTriad>& triads,
    const VariabilityConfig& config) {
  VOSIM_EXPECTS(!triads.empty());
  VOSIM_EXPECTS(config.num_dies >= 1);
  VOSIM_EXPECTS(config.num_patterns > 0);

  std::vector<VariabilityResult> out(triads.size());
  // Flatten (triad, die) into one parallel index space.
  const std::size_t dies = static_cast<std::size_t>(config.num_dies);
  std::vector<double> ber(triads.size() * dies, 0.0);
  std::vector<double> energy(triads.size() * dies, 0.0);
  const std::size_t nops = dut.num_operands();
  constexpr std::uint64_t kDieSeedBase = 1000;  // die i uses base + i

  parallel_for(
      triads.size() * dies,
      [&](std::size_t job) {
        const std::size_t t = job / dies;
        const std::size_t die = job % dies;
        TimingSimConfig sim_cfg;
        sim_cfg.variation_sigma = config.variation_sigma;
        sim_cfg.variation_seed = kDieSeedBase + die;
        sim_cfg.engine = config.engine;
        VosDutSim sim(dut, lib, triads[t], sim_cfg);

        DutPatternStream patterns(dut.operand_widths(), config.pattern_seed);
        ErrorAccumulator acc(sim.output_width());
        double e = 0.0;
        std::vector<std::uint64_t> ops(nops, 0);
        patterns.next(ops);
        sim.reset(ops);
        for (std::size_t i = 0; i < config.num_patterns; ++i) {
          patterns.next(ops);
          const VosOpResult r = sim.apply(ops);
          acc.add(r.settled, r.sampled);
          e += r.energy_fj;
        }
        ber[job] = acc.ber();
        energy[job] = e / static_cast<double>(config.num_patterns);
      },
      config.jobs);

  for (std::size_t t = 0; t < triads.size(); ++t) {
    VariabilityResult& r = out[t];
    r.triad = triads[t];
    r.dies = config.num_dies;
    std::vector<double> die_ber(ber.begin() + static_cast<long>(t * dies),
                                ber.begin() +
                                    static_cast<long>((t + 1) * dies));
    std::vector<double> die_e(
        energy.begin() + static_cast<long>(t * dies),
        energy.begin() + static_cast<long>((t + 1) * dies));
    int clean = 0;
    for (const double b : die_ber)
      if (b == 0.0) ++clean;
    r.error_free_die_fraction =
        static_cast<double>(clean) / static_cast<double>(config.num_dies);
    r.ber = spread_of(std::move(die_ber));
    r.energy_fj = spread_of(std::move(die_e));
  }
  return out;
}

}  // namespace vosim
