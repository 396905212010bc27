// SimEngine: the common interface of the gate-level VOS simulators.
//
// The characterization flow (Fig. 4) runs ~20k patterns per operating
// triad over a large Tclk/Vdd/Vbb grid; every consumer — characterizer,
// apps, runtime controllers, benches — talks to the simulator through
// this interface so the backend can be chosen per sweep:
//
//   kEvent      event-driven simulation with inertial delays — the
//               accuracy reference (src/sim/event_sim.hpp).
//   kLevelized  bit-parallel levelized simulation — one topological
//               pass evaluates 64 packed patterns (one per bit of a
//               uint64_t lane word), with per-lane transition times
//               bounded by the STA arrival model
//               (src/sim/levelized_sim.hpp). An order of magnitude
//               faster on full-grid sweeps.
//
// DESIGN.md §7 documents the levelized error model and when the two
// backends diverge (glitches, inertial pulse filtering).
#ifndef VOSIM_SIM_SIM_ENGINE_HPP
#define VOSIM_SIM_SIM_ENGINE_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/tech/operating_point.hpp"
#include "src/util/lanes.hpp"

namespace vosim {

class SimObserver;  // src/obs/probe.hpp

/// Available simulation backends.
enum class EngineKind : std::uint8_t {
  kEvent,      ///< event queue + inertial delays (accuracy reference)
  kLevelized,  ///< bit-parallel levelized arrival-time model (fast)
};

/// Display/CLI name: "event" or "levelized".
std::string engine_kind_name(EngineKind kind);

/// Parses "event" / "levelized"; throws std::invalid_argument otherwise.
EngineKind parse_engine_kind(const std::string& name);

/// Simulator knobs, shared by both backends.
struct TimingSimConfig {
  /// Per-gate log-normal delay variation sigma (0 = deterministic).
  /// Models within-die process variation; one sample is drawn per gate
  /// at construction ("one die") and reused across operations. Both
  /// backends draw the identical sample sequence, so a given
  /// (sigma, seed) names the same die under either engine.
  double variation_sigma = 0.0;
  /// Seed for the per-gate variation sample.
  std::uint64_t variation_seed = 1;
  /// Die-wide gate-delay multiplier (die-to-die process corner): every
  /// gate's delay is scaled by this on top of the triad's voltage scale
  /// and the per-gate variation sample. 1.0 = the nominal die. The
  /// fleet subsystem (src/fleet) draws one value per chip instance so a
  /// slow die is slow under every triad and both engines.
  double delay_scale = 1.0;
  /// Die-wide leakage multiplier (die-to-die corner), applied on top of
  /// the triad's voltage-dependent leakage scale. 1.0 = nominal die.
  double leakage_scale = 1.0;
  /// Backend built by make_engine() and the engine-generic wrappers
  /// (VosDutSim, SeqSim, characterize_dut, ClosedLoopSeqUnit).
  EngineKind engine = EngineKind::kEvent;
};

/// One committed transition (for waveform dumps: TraceRecorder in
/// src/obs/probe.hpp, SeqVcdRecorder in src/seq/seq_vcd.hpp).
struct TraceEvent {
  double time_ps = 0.0;
  NetId net = invalid_net;
  std::uint8_t value = 0;
};

/// Result of simulating one clocked operation (two-vector transition).
struct StepResult {
  /// Values sampled at t = Tclk (what the capture registers see).
  std::uint64_t sampled_outputs = 0;  // packed in primary-output order
  /// Fully settled values (t → ∞), i.e. the functionally correct result.
  std::uint64_t settled_outputs = 0;
  /// Time of the last committed transition (ps).
  double settle_time_ps = 0.0;
  /// Dynamic energy of transitions inside the clock window [0, Tclk) —
  /// in a pipeline, switching after the clock edge belongs to the next
  /// operation, and deep VOS truncates carry activity (DESIGN.md §6.3).
  double window_energy_fj = 0.0;
  /// Dynamic energy of *all* transitions until quiescence (what a
  /// non-pipelined accounting would charge; see the energy-window
  /// ablation bench).
  double total_energy_fj = 0.0;
  /// Transition counts (inside the window / total until settled).
  std::uint32_t toggles_in_window = 0;
  std::uint32_t toggles_total = 0;
};

/// Abstract gate-level simulator bound to one netlist, library and triad.
///
/// Inputs arrive as lane words (src/util/lanes.hpp): one lanes::Word
/// per primary input, in primary-input order, where lane k carries
/// operation k's value of that input. DutPinMap::scatter_lanes builds
/// them from operand words. Each stepping call serves 1..64 lanes.
///
/// Usage: reset() to establish the initial state, then step_batch() to
/// stream operations (state persists between them like a real datapath
/// between clock edges, DESIGN.md §6.5) or step_cycle_batch() to run
/// clock cycles of one pipeline stage.
class SimEngine {
 public:
  virtual ~SimEngine() = default;

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  virtual EngineKind kind() const noexcept = 0;
  virtual const Netlist& netlist() const noexcept = 0;
  virtual const OperatingTriad& triad() const noexcept = 0;

  /// Applies lane 0 of the input words and lets the circuit settle
  /// completely (no sampling, no energy accounting).
  virtual void reset(std::span<const lanes::Word> pi_words) = 0;

  /// Streams `count` operations (1..64): operation k applies lane k of
  /// every input word at t = 0, propagates, samples at Tclk and
  /// settles; its packed outputs and energy land in results[k].
  /// Operation k starts from the state operation k-1 settled to (lane
  /// 0 from the previous call's last operation or the reset).
  virtual void step_batch(std::span<const lanes::Word> pi_words,
                          std::size_t count,
                          std::span<StepResult> results) = 0;

  /// Streams `count` consecutive clock cycles (1..64) of one clocked
  /// stream: cycle k applies lane k of every input word. Each cycle
  /// propagates only until the capture edge at Tclk, and the at-edge
  /// net values — including nets whose final transition has not
  /// arrived — become the launch state of the next cycle, so timing
  /// errors latch and propagate across cycles instead of being
  /// settled away.
  ///
  ///   - sampled_outputs: values at the Tclk edge (what the capture
  ///     registers latch).
  ///   - settled_outputs: the functional (zero-delay) result for these
  ///     inputs — the Razor shadow-register reference.
  ///   - window_energy_fj / toggles_in_window: every commit inside this
  ///     cycle, which on the event backend includes transitions launched
  ///     in earlier cycles that land in this one (still-in-flight events
  ///     carry across the edge with their remaining delay). The
  ///     levelized backend truncates in-flight transitions at the edge
  ///     instead; the next cycle relaunches from the truncated state.
  ///   - total_energy_fj == window_energy_fj here (nothing is simulated
  ///     past the edge).
  ///
  /// Do not interleave step_batch() and step_cycle_batch() on one
  /// engine without a reset() in between: step_batch() assumes a
  /// quiescent circuit.
  virtual void step_cycle_batch(std::span<const lanes::Word> pi_words,
                                std::size_t count,
                                std::span<StepResult> results) = 0;

  /// Rebinds the capture threshold (ps) without rebuilding the engine:
  /// the die (delay assignment, variation draw, energies) is untouched,
  /// only the clock-edge comparison and its derived quantities (leakage
  /// per period, cycle-safety) move. The levelized backend supports
  /// this — it is how the characterizer's normalized grid sweep walks
  /// a whole Tclk ladder on one die — and returns true; backends that
  /// bake the period into their structure return false and are left
  /// unchanged. Call reset() afterwards before reading state.
  virtual bool retarget_tclk_ps(double) { return false; }

  /// True when static timing proves every operation error-free: the
  /// die's latest primary-output arrival (STA over this engine's gate
  /// delays, variation included) lands strictly before the clock edge.
  /// Every commit lands by its net's STA arrival, so every operation,
  /// streamed or clocked, then samples its settled outputs (DESIGN.md
  /// §9). The levelized backend computes the bound at construction;
  /// the event backend does not and returns false.
  virtual bool sta_error_free() const noexcept { return false; }

  /// Checkpoints of a clocked stream. Between step_cycle_batch() calls
  /// the levelized backend carries one value per net, the at-edge
  /// sample of the last cycle. save_carried_state packs it one bit per
  /// net (net n at lane n % 64 of word n / 64) into `bits`, which holds
  /// lanes::words_for(netlist().num_nets()) words;
  /// restore_carried_state loads such a pack, after which the stream
  /// continues exactly as it did from the saved point. Both return
  /// true there. Backends that carry more than net values (the event
  /// engine's in-flight transitions) return false and touch nothing.
  virtual bool save_carried_state(std::span<lanes::Word>) const {
    return false;
  }
  virtual bool restore_carried_state(std::span<const lanes::Word>) {
    return false;
  }

  /// Per-operation leakage energy at this triad (fJ): leakage power
  /// integrated over one clock period.
  virtual double leakage_energy_fj_per_op() const noexcept = 0;

  /// Values sampled at the last operation's clock edge, one per net.
  virtual std::span<const std::uint8_t> sampled_values() const noexcept = 0;

  /// Fully settled values after the last reset or operation (one per
  /// net).
  virtual std::span<const std::uint8_t> settled_values() const noexcept = 0;

  /// Registers an observer for simulation callbacks (src/obs/probe.hpp;
  /// DESIGN.md §13). Observers are borrowed, never owned — they must
  /// outlive the engine or be detached first — and are invoked
  /// synchronously on the simulating thread in attach order. Default
  /// off: with no observers attached every hot-path dispatch site pays
  /// exactly one !observers_.empty() branch. Attaching twice is a
  /// no-op. Note: the levelized multi-threshold sweep
  /// (step_batch_sweep) does not dispatch — observer consumers must
  /// route through step_batch/step_cycle_batch.
  void attach_observer(SimObserver* obs);
  /// Unregisters a previously attached observer (no-op when absent).
  void detach_observer(SimObserver* obs);

 protected:
  SimEngine() = default;

  std::vector<SimObserver*> observers_;
};

/// Builds the backend selected by `config.engine`.
std::unique_ptr<SimEngine> make_engine(const Netlist& netlist,
                                       const CellLibrary& lib,
                                       const OperatingTriad& op,
                                       const TimingSimConfig& config = {});

}  // namespace vosim

#endif  // VOSIM_SIM_SIM_ENGINE_HPP
