// Algorithm-level energy model — the energy companion to the paper's
// statistical error model: once an application is mapped onto the
// approximate operator model, it still needs the energy side of the
// trade-off without running the timing simulator. Per-operation energy
// is regressed on cheap input features (operand switching activity and
// the completed carry-chain length) against the event-driven simulator.
#ifndef VOSIM_MODEL_ENERGY_MODEL_HPP
#define VOSIM_MODEL_ENERGY_MODEL_HPP

#include <array>
#include <cstdint>

#include "src/characterize/patterns.hpp"
#include "src/netlist/adders.hpp"
#include "src/tech/operating_point.hpp"

namespace vosim {

/// Number of regression features (incl. the intercept): {1, toggled
/// input bits, bounded carry-chain length, toggled sum bits, propagate
/// count, generate count}. All are computable at algorithm level without
/// simulation.
inline constexpr int energy_feature_count = 6;

/// Linear per-op energy estimator over cheap input features, fitted per
/// operating triad.
class VosEnergyModel {
 public:
  VosEnergyModel(int width, OperatingTriad triad,
                 std::array<double, energy_feature_count> coefficients,
                 double chain_clamp);

  /// Predicted energy (fJ) of computing a+b right after prev_a+prev_b.
  double predict_fj(std::uint64_t prev_a, std::uint64_t prev_b,
                    std::uint64_t a, std::uint64_t b) const;

  int width() const noexcept { return width_; }
  const OperatingTriad& triad() const noexcept { return triad_; }
  const std::array<double, energy_feature_count>& coefficients()
      const noexcept {
    return coef_;
  }
  /// Carry chains longer than this never complete inside the clock
  /// window; the feature is clamped here (fit and predict agree).
  double chain_clamp() const noexcept { return chain_clamp_; }

 private:
  int width_;
  OperatingTriad triad_;
  std::array<double, energy_feature_count> coef_;
  double chain_clamp_;
};

/// Fit quality of an energy model on held-out patterns.
struct EnergyFit {
  double r_squared = 0.0;
  double mean_abs_error_fj = 0.0;
  double mean_energy_fj = 0.0;
};

/// Training knobs.
struct EnergyTrainerConfig {
  std::size_t num_patterns = 8000;
  std::uint64_t pattern_seed = 42;
};

/// Least-squares fit against the event-driven timing simulator on the
/// nominal die (no variation) at one triad.
VosEnergyModel train_energy_model(const AdderNetlist& adder,
                                  const CellLibrary& lib,
                                  const OperatingTriad& triad,
                                  const EnergyTrainerConfig& config = {});

/// Evaluates a model against the simulator on a held-out stream.
EnergyFit evaluate_energy_model(const VosEnergyModel& model,
                                const AdderNetlist& adder,
                                const CellLibrary& lib,
                                std::size_t num_patterns = 8000,
                                std::uint64_t pattern_seed = 1729);

}  // namespace vosim

#endif  // VOSIM_MODEL_ENERGY_MODEL_HPP
