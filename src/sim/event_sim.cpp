#include "src/sim/event_sim.hpp"

#include <algorithm>
#include <cmath>

#include "src/netlist/eval.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/probe.hpp"
#include "src/tech/gate_timing.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {

namespace {
constexpr std::uint64_t no_pending = 0;  // gate_serial_ sentinel
}  // namespace

TimingSimulator::TimingSimulator(const Netlist& netlist,
                                 const CellLibrary& lib,
                                 const OperatingTriad& op,
                                 const TimingSimConfig& config)
    : netlist_(netlist), op_(op) {
  VOSIM_EXPECTS(netlist.finalized());
  VOSIM_EXPECTS(op.tclk_ns > 0.0);
  VOSIM_EXPECTS(config.variation_sigma >= 0.0);
  VOSIM_EXPECTS(config.delay_scale > 0.0);
  VOSIM_EXPECTS(config.leakage_scale > 0.0);
  tclk_ps_ = op.tclk_ns * 1e3;

  const std::vector<double> loads = netlist.compute_net_loads(lib);
  const TransistorModel& tm = lib.transistor_model();

  gate_delay_ps_.resize(netlist.num_gates());
  Rng vrng(config.variation_seed);
  for (GateId gid = 0; gid < netlist.num_gates(); ++gid) {
    const Gate& g = netlist.gate(gid);
    double d = gate_delay_ps(lib.cell(g.kind), loads[g.out], tm, op_) *
               config.delay_scale;
    if (config.variation_sigma > 0.0) {
      // One log-normal sample per gate: a fixed "die", reused for every
      // operation and (by construction order) every triad.
      d *= std::exp(config.variation_sigma * vrng.gaussian());
    }
    gate_delay_ps_[gid] = d;
  }

  net_energy_fj_.resize(netlist.num_nets());
  for (NetId n = 0; n < netlist.num_nets(); ++n)
    net_energy_fj_[n] = toggle_energy_fj(loads[n], op_.vdd_v);

  double leak_nw = netlist.cell_leakage_nw(lib);
  leak_nw *= tm.leakage_scale(op_.vdd_v, op_.vbb_v);
  leak_nw *= config.leakage_scale;
  leakage_energy_fj_ = leak_nw * 1e-3 * tclk_ps_ * 1e-3;  // nW·ps → fJ

  values_.assign(netlist.num_nets(), 0);
  sampled_values_.assign(netlist.num_nets(), 0);
  gate_serial_.assign(netlist.num_gates(), no_pending);
  gate_target_.assign(netlist.num_gates(), 0);

  // Establish a consistent all-zero-input state.
  std::vector<std::uint8_t> zeros(netlist.primary_inputs().size(), 0);
  settle(zeros);
}

void TimingSimulator::settle(std::span<const std::uint8_t> inputs) {
  values_ = evaluate_logic(netlist_, inputs);
  sampled_values_ = values_;
  while (!queue_.empty()) queue_.pop();
  std::fill(gate_serial_.begin(), gate_serial_.end(), no_pending);
  for (GateId gid = 0; gid < netlist_.num_gates(); ++gid)
    gate_target_[gid] = values_[netlist_.gate(gid).out];
}

void TimingSimulator::reset(std::span<const lanes::Word> pi_words) {
  lanes::unpack_lane(pi_words, 0, lane_inputs_);
  settle(lane_inputs_);
}

void TimingSimulator::step_batch(std::span<const lanes::Word> pi_words,
                                 std::size_t count,
                                 std::span<StepResult> results) {
  VOSIM_EXPECTS(count <= lanes::kWordLanes);
  VOSIM_EXPECTS(results.size() >= count);
  for (std::size_t k = 0; k < count; ++k) {
    lanes::unpack_lane(pi_words, k, lane_inputs_);
    results[k] = step(lane_inputs_);
  }
}

void TimingSimulator::step_cycle_batch(std::span<const lanes::Word> pi_words,
                                       std::size_t count,
                                       std::span<StepResult> results) {
  VOSIM_EXPECTS(count <= lanes::kWordLanes);
  VOSIM_EXPECTS(results.size() >= count);
  for (std::size_t k = 0; k < count; ++k) {
    lanes::unpack_lane(pi_words, k, lane_inputs_);
    results[k] = step_cycle(lane_inputs_);
  }
}

void TimingSimulator::commit(NetId net, std::uint8_t value, double time_ps) {
  values_[net] = value;
  ++current_.toggles_total;
  current_.total_energy_fj += net_energy_fj_[net];
  if (time_ps < tclk_ps_) {
    ++current_.toggles_in_window;
    current_.window_energy_fj += net_energy_fj_[net];
  }
  current_.settle_time_ps = std::max(current_.settle_time_ps, time_ps);
  if (!observers_.empty())
    for (SimObserver* o : observers_)
      o->on_transition(*this, TraceEvent{time_ps, net, value});
}

void TimingSimulator::enqueue_fanout(NetId net, double now_ps) {
  for (const GateId gid : netlist_.fanout(net)) {
    const Gate& g = netlist_.gate(gid);
    unsigned idx = 0;
    for (std::uint8_t i = 0; i < g.num_inputs; ++i)
      idx |= static_cast<unsigned>(values_[g.in[i]] & 1u) << i;
    const auto newval =
        static_cast<std::uint8_t>((cell_truth(g.kind) >> idx) & 1u);

    const bool pending = gate_serial_[gid] != no_pending;
    const std::uint8_t target = pending ? gate_target_[gid] : values_[g.out];
    if (newval == target) continue;  // stable or already heading there

    if (pending && newval == values_[g.out]) {
      // Inertial cancellation: the input pulse is shorter than the gate
      // delay, so the scheduled output transition is swallowed.
      gate_serial_[gid] = no_pending;
      gate_target_[gid] = values_[g.out];
      continue;
    }
    const std::uint64_t serial = next_serial_++;
    gate_serial_[gid] = serial;
    gate_target_[gid] = newval;
    queue_.push(Event{now_ps + gate_delay_ps_[gid], gid, serial, newval});
  }
}

void TimingSimulator::run_events(double until_ps) {
  while (!queue_.empty() && queue_.top().time_ps < until_ps) {
    const Event e = queue_.top();
    queue_.pop();
    if (e.serial != gate_serial_[e.gate]) continue;  // superseded
    gate_serial_[e.gate] = no_pending;
    if (!sample_taken_ && e.time_ps >= tclk_ps_) {
      sampled_values_ = values_;  // register capture at the clock edge
      sample_taken_ = true;
    }
    const NetId out = netlist_.gate(e.gate).out;
    VOSIM_ENSURES(e.value != values_[out]);
    commit(out, e.value, e.time_ps);
    enqueue_fanout(out, e.time_ps);
  }
}

void TimingSimulator::launch_inputs(std::span<const std::uint8_t> inputs) {
  const auto pis = netlist_.primary_inputs();
  VOSIM_EXPECTS(inputs.size() == pis.size());
  current_ = StepResult{};
  sample_taken_ = false;
  if (!observers_.empty())
    for (SimObserver* o : observers_) o->on_step_begin(*this, values_);
  // Launch edge: primary inputs switch at t = 0.
  for (std::size_t i = 0; i < pis.size(); ++i) {
    const auto v = static_cast<std::uint8_t>(inputs[i] ? 1 : 0);
    if (values_[pis[i]] != v) commit(pis[i], v, 0.0);
  }
  for (std::size_t i = 0; i < pis.size(); ++i) enqueue_fanout(pis[i], 0.0);
}

StepResult TimingSimulator::step(std::span<const std::uint8_t> inputs) {
  static obs::Counter& step_counter =
      obs::metrics().counter("sim.event.steps");
  step_counter.add();
  launch_inputs(inputs);
  run_events();
  if (!sample_taken_) {
    sampled_values_ = values_;  // settled before the capture edge
    sample_taken_ = true;
  }

  current_.sampled_outputs =
      pack_word(sampled_values_, netlist_.primary_outputs());
  current_.settled_outputs = pack_word(values_, netlist_.primary_outputs());
  if (!observers_.empty())
    for (SimObserver* o : observers_)
      o->on_step_end(*this, sampled_values_, values_, current_);
  return current_;
}

StepResult TimingSimulator::step_cycle(std::span<const std::uint8_t> inputs) {
  static obs::Counter& cycle_counter =
      obs::metrics().counter("sim.event.steps");
  cycle_counter.add();
  launch_inputs(inputs);

  // Process events strictly before the capture edge; later events stay
  // in flight. The commit() window test (time < Tclk) holds for every
  // event processed here, so the whole cycle's switching is charged to
  // this cycle's window energy — including arrivals launched in earlier
  // cycles. (run_events' capture branch never fires under this bound.)
  run_events(tclk_ps_);

  // Register capture at the edge: whatever the nets hold right now.
  sampled_values_ = values_;
  sample_taken_ = true;
  current_.sampled_outputs =
      pack_word(sampled_values_, netlist_.primary_outputs());
  // Razor shadow reference: the zero-delay functional result for these
  // inputs (computed on the side; the event state stays mid-flight).
  const std::vector<std::uint8_t> functional =
      evaluate_logic(netlist_, inputs);
  current_.settled_outputs =
      pack_word(functional, netlist_.primary_outputs());
  current_.total_energy_fj = current_.window_energy_fj;
  current_.toggles_total = current_.toggles_in_window;

  // Rebase the surviving in-flight events onto the next cycle's time
  // axis (their times are >= Tclk, so they stay non-negative).
  if (!queue_.empty()) {
    std::vector<Event> carried;
    carried.reserve(queue_.size());
    while (!queue_.empty()) {
      Event e = queue_.top();
      queue_.pop();
      e.time_ps -= tclk_ps_;
      carried.push_back(e);
    }
    for (const Event& e : carried) queue_.push(e);
  }
  if (!observers_.empty())
    for (SimObserver* o : observers_)
      o->on_step_end(*this, sampled_values_, functional, current_);
  return current_;
}

}  // namespace vosim
