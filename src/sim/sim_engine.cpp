#include "src/sim/sim_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/obs/probe.hpp"
#include "src/sim/event_sim.hpp"
#include "src/sim/levelized_sim.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

std::string engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kEvent: return "event";
    case EngineKind::kLevelized: return "levelized";
  }
  return "unknown";
}

EngineKind parse_engine_kind(const std::string& name) {
  if (name == "event") return EngineKind::kEvent;
  if (name == "levelized") return EngineKind::kLevelized;
  throw std::invalid_argument("unknown engine: " + name +
                              " (expected event|levelized)");
}

void SimEngine::attach_observer(SimObserver* obs) {
  VOSIM_EXPECTS(obs != nullptr);
  if (std::find(observers_.begin(), observers_.end(), obs) ==
      observers_.end())
    observers_.push_back(obs);
}

std::unique_ptr<SimEngine> make_engine(const Netlist& netlist,
                                       const CellLibrary& lib,
                                       const OperatingTriad& op,
                                       const TimingSimConfig& config) {
  switch (config.engine) {
    case EngineKind::kEvent:
      return std::make_unique<TimingSimulator>(netlist, lib, op, config);
    case EngineKind::kLevelized:
      return std::make_unique<LevelizedSimulator>(netlist, lib, op, config);
  }
  throw std::invalid_argument("unknown EngineKind");
}

}  // namespace vosim
