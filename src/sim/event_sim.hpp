// Event-driven gate-level timing simulation with inertial delays.
//
// This is the reproduction's stand-in for the paper's transistor-level
// Eldo SPICE runs (Fig. 4): it propagates input transitions through the
// netlist with voltage/body-bias dependent gate delays and samples the
// outputs at the clock period. A bit whose final transition has not
// arrived by Tclk latches a stale or glitch value — exactly the timing
// errors voltage over-scaling provokes.
//
// TimingSimulator is the accuracy-reference backend of the SimEngine
// interface (src/sim/sim_engine.hpp); the bit-parallel levelized backend
// (src/sim/levelized_sim.hpp) trades its glitch/inertial fidelity for an
// order-of-magnitude faster sweep.
#ifndef VOSIM_SIM_EVENT_SIM_HPP
#define VOSIM_SIM_EVENT_SIM_HPP

#include <cstdint>
#include <limits>
#include <queue>
#include <span>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/sim/sim_engine.hpp"
#include "src/tech/operating_point.hpp"

namespace vosim {

/// Event-driven simulator bound to one netlist, library and triad.
///
/// Its own interface is one operation per call on one byte per primary
/// input: settle() to establish the initial state, then step() per
/// operation or step_cycle() per clock cycle. State persists between
/// steps like a real datapath between clock edges (DESIGN.md §6.5).
/// The SimEngine lane-word entry points unpack lane k and call these,
/// so the per-op methods are the reference every batch loops over.
class TimingSimulator final : public SimEngine {
 public:
  TimingSimulator(const Netlist& netlist, const CellLibrary& lib,
                  const OperatingTriad& op, const TimingSimConfig& config = {});

  /// Applies input values and lets the circuit settle completely
  /// (no sampling, no energy accounting).
  void settle(std::span<const std::uint8_t> inputs);

  /// Applies a new input vector at t = 0, propagates events, samples at
  /// Tclk and runs to quiescence. Returns packed outputs and energy.
  StepResult step(std::span<const std::uint8_t> inputs);

  /// Clocked step: processes only events inside [0, Tclk). Events still
  /// pending at the edge stay queued (rebased to the next cycle's time
  /// axis) and land in later cycles with their remaining delay — the
  /// still-in-flight transitions of a real pipeline stage.
  /// settled_outputs is the zero-delay functional result; the event
  /// state is not settled. See SimEngine::step_cycle_batch.
  StepResult step_cycle(std::span<const std::uint8_t> inputs);

  // -- SimEngine ---------------------------------------------------------
  EngineKind kind() const noexcept override { return EngineKind::kEvent; }
  const Netlist& netlist() const noexcept override { return netlist_; }
  const OperatingTriad& triad() const noexcept override { return op_; }

  /// settle() on lane 0.
  void reset(std::span<const lanes::Word> pi_words) override;
  /// One step() per lane, in lane order.
  void step_batch(std::span<const lanes::Word> pi_words, std::size_t count,
                  std::span<StepResult> results) override;
  /// One step_cycle() per lane, in lane order.
  void step_cycle_batch(std::span<const lanes::Word> pi_words,
                        std::size_t count,
                        std::span<StepResult> results) override;

  /// Per-operation leakage energy at this triad (fJ): leakage power
  /// integrated over one clock period.
  double leakage_energy_fj_per_op() const noexcept override {
    return leakage_energy_fj_;
  }

  /// Values sampled at the last step's clock edge, one per net.
  std::span<const std::uint8_t> sampled_values() const noexcept override {
    return sampled_values_;
  }

  /// Fully settled values after the last settle/step, one per net.
  std::span<const std::uint8_t> settled_values() const noexcept override {
    return values_;
  }

  // -- event-engine specifics --------------------------------------------
  /// Current value of a net (after the last settle/step).
  bool value(NetId net) const { return values_.at(net) != 0; }

  /// Assigned delay of a gate (after variation), ps.
  double gate_delay(GateId gid) const { return gate_delay_ps_.at(gid); }

  // Transition traces: attach a TraceRecorder (src/obs/probe.hpp) —
  // the engine emits every committed transition through
  // SimObserver::on_transition and the step baseline through
  // on_step_begin.

 private:
  struct Event {
    double time_ps;
    GateId gate;
    std::uint64_t serial;  // cancellation token
    std::uint8_t value;
    friend bool operator>(const Event& x, const Event& y) {
      return x.time_ps > y.time_ps;
    }
  };

  void enqueue_fanout(NetId net, double now_ps);
  void commit(NetId net, std::uint8_t value, double time_ps);
  /// Resets per-step state and commits the t = 0 input transitions.
  void launch_inputs(std::span<const std::uint8_t> inputs);
  /// Processes queued events with time < until_ps (default: drain).
  void run_events(double until_ps =
                      std::numeric_limits<double>::infinity());

  const Netlist& netlist_;
  OperatingTriad op_;
  double tclk_ps_ = 0.0;
  double leakage_energy_fj_ = 0.0;

  std::vector<double> gate_delay_ps_;   // per gate, incl. variation
  std::vector<double> net_energy_fj_;   // per net, energy of one toggle
  std::vector<std::uint8_t> values_;    // current value per net
  std::vector<std::uint8_t> sampled_values_;
  std::vector<std::uint64_t> gate_serial_;    // latest scheduled serial
  std::vector<std::uint8_t> gate_target_;     // value it is heading to
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::uint64_t next_serial_ = 1;

  // Per-step scratch state.
  bool sample_taken_ = false;
  StepResult current_{};
  std::vector<std::uint8_t> lane_inputs_;  // one lane, one byte per PI
};

}  // namespace vosim

#endif  // VOSIM_SIM_EVENT_SIM_HPP
