#include "src/runtime/closed_loop.hpp"

#include <algorithm>

#include "src/util/contracts.hpp"

namespace vosim {

namespace {

/// Step down (cheaper) only when the measured rate is below
/// margin × kStepDownFraction — hysteresis against flapping.
constexpr double kStepDownFraction = 0.5;
/// Re-probe backoff: after retreating from a rung that violated the
/// floor, that rung is barred for this many decision windows, and the
/// bar doubles on every failed re-probe (capped at ×64).
constexpr std::size_t kReprobeBackoffWindows = 4;

}  // namespace

ClosedLoopController::ClosedLoopController(std::size_t num_rungs,
                                           const ClosedLoopConfig& config)
    : num_rungs_(num_rungs), config_(config), barred_rung_(num_rungs) {
  VOSIM_EXPECTS(num_rungs >= 1);
  VOSIM_EXPECTS(config.op_error_margin >= 0.0);
  VOSIM_EXPECTS(config.window_cycles >= 1);
}

SpeculationAction ClosedLoopController::observe(double worst_stage_rate,
                                                bool window_full) {
  ++dwell_;
  if (dwell_ < config_.min_dwell_cycles || !window_full)
    return SpeculationAction::kHold;

  // A measured violation backs off immediately toward the safe end and
  // bars the failing rung (exponential re-probe backoff): without the
  // bar, the controller would re-enter the bad rung after every dwell
  // and its steady-state error rate would exceed the promised floor.
  if (worst_stage_rate > config_.op_error_margin && rung_ > 0) {
    if (rung_ == barred_rung_) {
      barred_penalty_ = std::min<std::size_t>(barred_penalty_ * 2, 64);
    } else {
      barred_rung_ = rung_;
      barred_penalty_ = 1;
    }
    barred_cooldown_ = kReprobeBackoffWindows * barred_penalty_;
    --rung_;
    ++switches_;
    dwell_ = 0;
    return SpeculationAction::kStepUp;
  }
  // Surviving a full decision window on the barred rung clears the bar.
  if (rung_ == barred_rung_) {
    barred_rung_ = num_rungs_;
    barred_penalty_ = 1;
  }
  if (worst_stage_rate < config_.op_error_margin * kStepDownFraction &&
      rung_ + 1 < num_rungs_) {
    if (rung_ + 1 == barred_rung_ && barred_cooldown_ > 0) {
      --barred_cooldown_;  // suppressed probe
      dwell_ = 0;          // wait a fresh window before reconsidering
      return SpeculationAction::kHold;
    }
    ++rung_;
    ++switches_;
    dwell_ = 0;
    return SpeculationAction::kStepDown;
  }
  return SpeculationAction::kHold;
}

std::size_t ClosedLoopController::cycles_until_decision(
    std::size_t window_fill, std::size_t window_capacity) const {
  // observe() returns kHold before reading the rate whenever
  // dwell_ + i < min_dwell_cycles or the window is not yet full; one
  // observation lands per cycle, so the first call that may decide is
  // the max of the two deficits (and never before the very next call).
  const std::size_t need_dwell = config_.min_dwell_cycles > dwell_
                                     ? config_.min_dwell_cycles - dwell_
                                     : 0;
  const std::size_t need_fill =
      window_capacity > window_fill ? window_capacity - window_fill : 0;
  return std::max<std::size_t>({need_dwell, need_fill, 1});
}

ClosedLoopSeqUnit::ClosedLoopSeqUnit(const SeqDut& seq,
                                     const CellLibrary& lib,
                                     std::vector<TriadRung> ladder,
                                     const ClosedLoopConfig& config,
                                     const TimingSimConfig& sim_config)
    : seq_(seq),
      lib_(lib),
      ladder_(std::move(ladder)),
      config_(config),
      sim_config_(sim_config),
      controller_(ladder_.size(), config) {
  VOSIM_EXPECTS(!ladder_.empty());
  sims_.resize(ladder_.size());
}

SeqSim& ClosedLoopSeqUnit::sim_for_rung(std::size_t rung) {
  auto& slot = sims_.at(rung);
  if (!slot)
    slot = std::make_unique<SeqSim>(seq_, lib_, ladder_[rung].triad,
                                    sim_config_, config_.window_cycles);
  return *slot;
}

ClosedLoopCycleResult ClosedLoopSeqUnit::step_cycle(
    std::span<const std::uint64_t> operands) {
  ClosedLoopCycleResult r;
  run_batch(operands, 1, {&r, 1});
  return r;
}

void ClosedLoopSeqUnit::run_batch(std::span<const std::uint64_t> operands,
                                  std::size_t count,
                                  std::span<ClosedLoopCycleResult> results) {
  const std::size_t nops = seq_.num_operands();
  VOSIM_EXPECTS(operands.size() == count * nops);
  VOSIM_EXPECTS(results.size() >= count);
  std::size_t done = 0;
  while (done < count) {
    const std::size_t rung = controller_.rung();
    SeqSim& sim = sim_for_rung(rung);
    const DoubleSamplingMonitor& mon = sim.stage_monitor(0);
    const std::size_t n =
        std::min(count - done, controller_.cycles_until_decision(
                                   mon.window_fill(), mon.window_capacity()));
    batch_cycles_.resize(n);
    sim.step_cycle_batch(operands.subspan(done * nops, n * nops), n,
                         batch_cycles_);
    for (std::size_t i = 0; i < n; ++i) {
      ClosedLoopCycleResult& r = results[done + i];
      r.cycle = batch_cycles_[i];
      r.rung = rung;
      r.action = SpeculationAction::kHold;
      energy_total_fj_ += r.cycle.energy_fj;
      ++cycles_;
    }
    // The first n-1 observations are guaranteed early holds; fold them
    // into the dwell counter and run the real decision on the last one.
    controller_.advance_dwell(n - 1);
    ClosedLoopCycleResult& last = results[done + n - 1];
    last.action = controller_.observe(sim.worst_stage_op_error_rate(),
                                      sim.stage_monitor(0).window_full());
    if (last.action != SpeculationAction::kHold) {
      // The DVS transition flushes the new rung's pipeline: refill from
      // a clean state, and measure the new rung with fresh windows.
      sim_for_rung(controller_.rung()).reset();
    }
    done += n;
  }
}

ClosedLoopCycleResult ClosedLoopSeqUnit::step_cycle(std::uint64_t a,
                                                    std::uint64_t b) {
  const std::uint64_t ops[2] = {a, b};
  return step_cycle(std::span<const std::uint64_t>(ops, 2));
}

double ClosedLoopSeqUnit::mean_energy_fj() const noexcept {
  return cycles_ == 0 ? 0.0
                      : energy_total_fj_ / static_cast<double>(cycles_);
}

}  // namespace vosim
