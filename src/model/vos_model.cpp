#include "src/model/vos_model.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "src/model/carry_chain.hpp"
#include "src/model/windowed_add.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

VosAdderModel::VosAdderModel(int width, OperatingTriad triad,
                             DistanceMetric metric, CarryChainProbTable table)
    : width_(width), triad_(triad), metric_(metric), table_(std::move(table)) {
  VOSIM_EXPECTS(table_.width() == width_);
}

std::uint64_t VosAdderModel::add(std::uint64_t a, std::uint64_t b,
                                 Rng& rng) const {
  const int cth = theoretical_max_carry_chain(a, b, width_);
  const int cmax = table_.sample(cth, rng);
  return windowed_add(a, b, width_, cmax);
}

void VosAdderModel::save(std::ostream& os) const {
  // max_digits10 so the triad doubles round-trip bit-exactly: a loaded
  // model compares equal to the triad it was trained at.
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "vos_adder_model v1 " << width_ << " " << triad_.tclk_ns << " "
     << triad_.vdd_v << " " << triad_.vbb_v << " "
     << static_cast<int>(metric_) << "\n";
  os.precision(old_precision);
  table_.save(os);
}

VosAdderModel VosAdderModel::load(std::istream& is) {
  std::string magic;
  std::string version;
  int width = 0;
  OperatingTriad triad;
  int metric = 0;
  is >> magic >> version >> width >> triad.tclk_ns >> triad.vdd_v >>
      triad.vbb_v >> metric;
  if (!is || magic != "vos_adder_model" || version != "v1")
    throw std::runtime_error("bad VOS model header");
  CarryChainProbTable table = CarryChainProbTable::load(is);
  return VosAdderModel(width, triad, static_cast<DistanceMetric>(metric),
                       std::move(table));
}

VosAdderModel train_vos_model(int width, const OperatingTriad& triad,
                              const BatchAdderFn& oracle,
                              const TrainerConfig& config) {
  return VosAdderModel(width, triad, config.metric,
                       train_carry_table(width, oracle, config));
}

}  // namespace vosim
