// The statistical VOS operator model (paper Fig. 6 right-hand side):
// a drop-in functional stand-in for the hardware adder at a given triad,
// usable at algorithm level without any timing simulation.
#ifndef VOSIM_MODEL_VOS_MODEL_HPP
#define VOSIM_MODEL_VOS_MODEL_HPP

#include <cstdint>
#include <iosfwd>

#include "src/model/distance.hpp"
#include "src/model/prob_table.hpp"
#include "src/model/trainer.hpp"
#include "src/netlist/adders.hpp"
#include "src/tech/operating_point.hpp"

namespace vosim {

/// Statistical approximate adder for one operating triad.
///
/// add(): extract Cth_max of the operands, sample the achieved chain
/// Cmax from the trained table, and return the window-limited sum
/// (the three inference steps of Section IV).
class VosAdderModel {
 public:
  VosAdderModel(int width, OperatingTriad triad, DistanceMetric metric,
                CarryChainProbTable table);

  std::uint64_t add(std::uint64_t a, std::uint64_t b, Rng& rng) const;

  int width() const noexcept { return width_; }
  const OperatingTriad& triad() const noexcept { return triad_; }
  DistanceMetric metric() const noexcept { return metric_; }
  const CarryChainProbTable& table() const noexcept { return table_; }

  void save(std::ostream& os) const;
  static VosAdderModel load(std::istream& is);

 private:
  int width_;
  OperatingTriad triad_;
  DistanceMetric metric_;
  CarryChainProbTable table_;
};

/// Trains a model against a hardware oracle at one triad.
VosAdderModel train_vos_model(int width, const OperatingTriad& triad,
                              const BatchAdderFn& oracle,
                              const TrainerConfig& config = {});

}  // namespace vosim

#endif  // VOSIM_MODEL_VOS_MODEL_HPP
