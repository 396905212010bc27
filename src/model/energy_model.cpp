#include "src/model/energy_model.hpp"

#include <cmath>

#include "src/model/carry_chain.hpp"
#include "src/netlist/dut.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/tech/gate_timing.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

namespace {

constexpr int nf = energy_feature_count;

/// Feature vector: {1, toggled input bits, bounded chain length, toggled
/// sum bits, propagate count} — everything an algorithm-level caller can
/// compute from the operands alone.
std::array<double, nf> features(int width, std::uint64_t prev_a,
                                std::uint64_t prev_b, std::uint64_t a,
                                std::uint64_t b, double tclk_margin_chain) {
  const int toggles = hamming_distance(prev_a, a, width) +
                      hamming_distance(prev_b, b, width);
  // The chain that actually switches is bounded by what fits in the
  // clock period; the margin estimate keeps the feature linear.
  const double chain =
      std::min<double>(theoretical_max_carry_chain(a, b, width),
                       tclk_margin_chain);
  const int sum_toggles =
      hamming_distance(prev_a + prev_b, a + b, width + 1);
  const int propagate = popcount_u64((a ^ b) & mask_n(width));
  const int generate = popcount_u64(a & b & mask_n(width));
  return {1.0, static_cast<double>(toggles), chain,
          static_cast<double>(sum_toggles),
          static_cast<double>(propagate),
          static_cast<double>(generate)};
}

/// Solves the nf x nf normal equations (X^T X) c = X^T y with
/// Gauss-Jordan elimination and partial pivoting.
std::array<double, nf> solve_normal(std::array<std::array<double, nf>, nf> m,
                                    std::array<double, nf> v) {
  for (int col = 0; col < nf; ++col) {
    int pivot = col;
    for (int r = col + 1; r < nf; ++r)
      if (std::abs(m[static_cast<std::size_t>(r)]
                    [static_cast<std::size_t>(col)]) >
          std::abs(m[static_cast<std::size_t>(pivot)]
                    [static_cast<std::size_t>(col)]))
        pivot = r;
    std::swap(m[static_cast<std::size_t>(col)],
              m[static_cast<std::size_t>(pivot)]);
    std::swap(v[static_cast<std::size_t>(col)],
              v[static_cast<std::size_t>(pivot)]);
    const double diag =
        m[static_cast<std::size_t>(col)][static_cast<std::size_t>(col)];
    VOSIM_ENSURES(std::abs(diag) > 1e-12);
    for (int r = 0; r < nf; ++r) {
      if (r == col) continue;
      const double f = m[static_cast<std::size_t>(r)]
                        [static_cast<std::size_t>(col)] /
                       diag;
      for (int c2 = 0; c2 < nf; ++c2)
        m[static_cast<std::size_t>(r)][static_cast<std::size_t>(c2)] -=
            f * m[static_cast<std::size_t>(col)]
                 [static_cast<std::size_t>(c2)];
      v[static_cast<std::size_t>(r)] -= f * v[static_cast<std::size_t>(col)];
    }
  }
  std::array<double, nf> out{};
  for (int i = 0; i < nf; ++i)
    out[static_cast<std::size_t>(i)] =
        v[static_cast<std::size_t>(i)] /
        m[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
  return out;
}

/// Chain lengths beyond the clock budget never complete; estimate the
/// budget in "chain links" from the triad (used as a feature clamp).
double chain_budget(const AdderNetlist& adder, const CellLibrary& lib,
                    const OperatingTriad& triad) {
  // Rough per-link delay: a MAJ3 stage at this operating point.
  const double link_ps =
      gate_delay_ps(lib.cell(CellKind::kMaj3), 3.0, lib.transistor_model(),
                    triad);
  const double budget = (triad.tclk_ns * 1e3) / link_ps;
  return std::min<double>(budget, adder.width);
}

}  // namespace

VosEnergyModel::VosEnergyModel(
    int width, OperatingTriad triad,
    std::array<double, energy_feature_count> coefficients,
    double chain_clamp)
    : width_(width),
      triad_(triad),
      coef_(coefficients),
      chain_clamp_(chain_clamp) {
  VOSIM_EXPECTS(width >= 1 && width <= max_word_bits);
  VOSIM_EXPECTS(chain_clamp > 0.0);
}

double VosEnergyModel::predict_fj(std::uint64_t prev_a, std::uint64_t prev_b,
                                  std::uint64_t a, std::uint64_t b) const {
  const auto f = features(width_, prev_a, prev_b, a, b, chain_clamp_);
  double e = 0.0;
  for (int i = 0; i < energy_feature_count; ++i)
    e += coef_[static_cast<std::size_t>(i)] * f[static_cast<std::size_t>(i)];
  return std::max(e, 0.0);
}

VosEnergyModel train_energy_model(const AdderNetlist& adder,
                                  const CellLibrary& lib,
                                  const OperatingTriad& triad,
                                  const EnergyTrainerConfig& config) {
  VOSIM_EXPECTS(config.num_patterns >= 16);
  const DutNetlist dut = to_dut(adder);
  VosDutSim sim(dut, lib, triad);
  PatternStream patterns(adder.width, config.pattern_seed);
  const double clamp = chain_budget(adder, lib, triad);

  std::array<std::array<double, nf>, nf> xtx{};
  std::array<double, nf> xty{};
  OperandPair prev = patterns.next();
  sim.reset(prev.a, prev.b);
  for (std::size_t i = 0; i < config.num_patterns; ++i) {
    const OperandPair cur = patterns.next();
    const double y = sim.apply(cur.a, cur.b).energy_fj;
    const auto f =
        features(adder.width, prev.a, prev.b, cur.a, cur.b, clamp);
    for (int r = 0; r < nf; ++r) {
      for (int c = 0; c < nf; ++c)
        xtx[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] +=
            f[static_cast<std::size_t>(r)] * f[static_cast<std::size_t>(c)];
      xty[static_cast<std::size_t>(r)] +=
          f[static_cast<std::size_t>(r)] * y;
    }
    prev = cur;
  }
  return VosEnergyModel(adder.width, triad, solve_normal(xtx, xty), clamp);
}

EnergyFit evaluate_energy_model(const VosEnergyModel& model,
                                const AdderNetlist& adder,
                                const CellLibrary& lib,
                                std::size_t num_patterns,
                                std::uint64_t pattern_seed) {
  const DutNetlist dut = to_dut(adder);
  VosDutSim sim(dut, lib, model.triad());
  PatternStream patterns(adder.width, pattern_seed);
  OperandPair prev = patterns.next();
  sim.reset(prev.a, prev.b);

  double sum_y = 0.0;
  double sum_sq_err = 0.0;
  double sum_abs_err = 0.0;
  std::vector<double> ys;
  ys.reserve(num_patterns);
  for (std::size_t i = 0; i < num_patterns; ++i) {
    const OperandPair cur = patterns.next();
    const double y = sim.apply(cur.a, cur.b).energy_fj;
    const double yhat = model.predict_fj(prev.a, prev.b, cur.a, cur.b);
    sum_y += y;
    sum_sq_err += (y - yhat) * (y - yhat);
    sum_abs_err += std::abs(y - yhat);
    ys.push_back(y);
    prev = cur;
  }
  const double mean = sum_y / static_cast<double>(num_patterns);
  double ss_tot = 0.0;
  for (const double y : ys) ss_tot += (y - mean) * (y - mean);

  EnergyFit fit;
  fit.mean_energy_fj = mean;
  fit.mean_abs_error_fj = sum_abs_err / static_cast<double>(num_patterns);
  fit.r_squared = ss_tot > 0.0 ? 1.0 - sum_sq_err / ss_tot : 1.0;
  return fit;
}

}  // namespace vosim
