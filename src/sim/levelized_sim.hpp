// Bit-parallel levelized timing simulation: the fast SimEngine backend.
//
// The netlist is levelized once (the topological order computed by
// Netlist::finalize) and every pass evaluates up to 64 patterns at a
// time, one pattern per bit of a packed lanes::Word per net. Timing
// errors are modeled without an event queue: each gate runs a per-lane
// miniature event simulation over its own input transitions
// (data-dependent times bounded by the STA arrival model,
// src/sta/sta.hpp) and forwards at most a first flip plus one return
// pulse downstream. A lane whose transitions all exceed Tclk latches
// its stale lane value (the previous pattern's settled value),
// reproducing the paper's VOS timing-error semantics.
//
// Divergences from the event-driven reference (DESIGN.md §7): a net
// forwards at most one flip plus two pulses per operation (longer
// chatter merges its tail bounces into the second pulse), so deeply
// over-scaled reconvergent structures can still drift by fractions of
// a BER percentage point against the event engine.
#ifndef VOSIM_SIM_LEVELIZED_SIM_HPP
#define VOSIM_SIM_LEVELIZED_SIM_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/sim/sim_engine.hpp"
#include "src/sim/threshold_buckets.hpp"
#include "src/tech/operating_point.hpp"
#include "src/util/lanes.hpp"

namespace vosim {

/// Levelized bit-parallel simulator bound to one netlist, library and
/// triad. Same streaming-state semantics as TimingSimulator: lane k's
/// stale value is lane k-1's settled value (lane 0 continues from the
/// state left by the previous reset/step_batch). In cycle-batch mode
/// (step_cycle_batch) lane k is instead clock cycle k and launches from
/// lane k-1's *sampled* (at-edge truncated) value — DESIGN.md §10.
/// The caller's input lane words load straight into the primary
/// inputs' packed state; a one-operation call is a one-lane pass.
class LevelizedSimulator final : public SimEngine {
 public:
  using Word = lanes::Word;

  /// Patterns (or, in cycle-batch mode, cycles) evaluated per packed
  /// pass — one per bit of a lane word.
  static constexpr std::size_t kLanes = lanes::kWordLanes;

  LevelizedSimulator(const Netlist& netlist, const CellLibrary& lib,
                     const OperatingTriad& op,
                     const TimingSimConfig& config = {});

  // -- SimEngine ---------------------------------------------------------
  EngineKind kind() const noexcept override { return EngineKind::kLevelized; }
  const Netlist& netlist() const noexcept override { return netlist_; }
  const OperatingTriad& triad() const noexcept override { return op_; }

  void reset(std::span<const lanes::Word> pi_words) override;

  void step_batch(std::span<const lanes::Word> pi_words, std::size_t count,
                  std::span<StepResult> results) override;

  /// Native clocked batch: one packed pass runs `count` consecutive
  /// cycles. Its carried state is the *sampled* (at-edge) value of
  /// every net instead of the settled one — lane k of every net
  /// launches from lane k-1's sampled (truncated) value. Unlike the
  /// event backend, transitions past the edge are dropped rather than
  /// kept in flight (the levelized model has no cross-pass event
  /// queue); the next cycle's trajectory runs from the truncated values
  /// toward the new settled function with fresh arrival times.
  /// Bit-exact however the stream is split into calls (outputs,
  /// per-cycle energy, commit order). DESIGN.md §10 quantifies the
  /// divergence from the event engine. See SimEngine::step_cycle_batch.
  void step_cycle_batch(std::span<const lanes::Word> pi_words,
                        std::size_t count,
                        std::span<StepResult> results) override;

  /// One timing pass, many capture thresholds: simulates the batch with
  /// this simulator's delays and evaluates every pattern against each
  /// clock threshold (ps, ascending), filling
  /// results[i * thresholds.size() + j] exactly as if step_batch had
  /// run with Tclk = thresholds[j]. Because supply and body bias scale
  /// every gate delay by one common factor (gate_delay_ps = nominal ×
  /// delay_scale(Vdd, Vbb)) and the inertial pulse-survival rule is
  /// scale-invariant, a whole Tclk/Vdd/Vbb characterization grid
  /// reduces to one normalized timing pass per die: triad (T, V, B)
  /// is threshold T·1e3·delay_scale(ref)/delay_scale(V, B) with window
  /// energies scaled by (V/V_ref)² — see characterize_dut.
  /// Leakage is NOT included in the energies (it is per-triad).
  /// After this call sampled_values() reflects no single threshold.
  void step_batch_sweep(std::span<const lanes::Word> pi_words,
                        std::size_t count,
                        std::span<const double> thresholds_ps,
                        std::span<StepResult> results);

  /// Moves the capture threshold on the same die: rescales leakage to
  /// the new period and recomputes cycle-safety against the cached STA
  /// arrivals — exactly the values a fresh construction at the new
  /// period would produce. O(gates), no RNG redraw.
  bool retarget_tclk_ps(double tclk_ps) override;

  /// critical_path_ps() < Tclk: every net feeding an output is then
  /// cycle-safe too, since arrivals only grow along a path.
  bool sta_error_free() const noexcept override {
    return critical_path_ps_ < tclk_ps_;
  }

  /// The carried state of a clocked stream is the per-net sampled
  /// value (state_ == sampled_state_ after every cycle pass); a restore
  /// sets both. The per-pass scratch is rewritten before it is read,
  /// so nothing else carries from one pass to the next.
  bool save_carried_state(std::span<lanes::Word> bits) const override;
  bool restore_carried_state(std::span<const lanes::Word> bits) override;

  double leakage_energy_fj_per_op() const noexcept override {
    return leakage_energy_fj_;
  }
  std::span<const std::uint8_t> sampled_values() const noexcept override {
    return sampled_state_;
  }
  std::span<const std::uint8_t> settled_values() const noexcept override {
    return state_;
  }

  // -- levelized-engine specifics ----------------------------------------
  /// STA worst-case arrival of a net at this triad, with this die's
  /// per-gate variation applied (ps).
  double arrival_ps(NetId net) const { return arrival_ps_.at(net); }
  /// Latest primary-output arrival (ps).
  double critical_path_ps() const noexcept { return critical_path_ps_; }
  /// Assigned delay of a gate (after variation), ps.
  double gate_delay(GateId gid) const { return gate_delay_ps_.at(gid); }

 private:
  /// Loads the caller's input lane words into the primary inputs'
  /// settled words; `count` must be 1..kLanes.
  void load_inputs(std::span<const lanes::Word> pi_words, std::size_t count);

  /// Evaluates one packed pass over `lanes` lanes already loaded into
  /// the primary-input lane words; `acct` records every net commit
  /// (transition) and decides window membership for sampling. With
  /// kCycleMode the lanes are consecutive clock cycles: each net's lane
  /// k launches from its own lane k-1 sampled value and active lanes
  /// resolve in ascending order (DESIGN.md §10); otherwise the lanes
  /// are independent streamed patterns. The pass's work counts go to
  /// the metrics registry (DESIGN.md §12).
  template <bool kCycleMode, class Acct>
  void run_lanes_impl(std::size_t lanes, Acct& acct);

  /// Single-threshold pass at this simulator's Tclk, filling `results`.
  /// `cycle_mode` selects the cross-cycle lane semantics and carries
  /// the sampled (at-edge) values instead of the settled ones into the
  /// next pass (step_cycle semantics).
  void run_lanes(std::size_t lanes, std::span<StepResult> results,
                 bool cycle_mode = false);

  /// Multi-threshold pass; results is lanes × thresholds pattern-major.
  void run_lanes_sweep(std::size_t lanes,
                       std::span<const double> thresholds_ps,
                       std::span<StepResult> results);

  /// Carries the last lane's settled (and sampled) values into state_;
  /// with `truncate` the sampled values become state_ (cycle mode).
  void carry_state(std::size_t lanes, bool truncate = false);

  /// Observer fan-out after a single-threshold pass: per-lane
  /// on_step_end (per-net values transposed out of the lane words) and
  /// one on_lane_word. Called only when observers are attached
  /// — run_lanes pays a single branch otherwise. The sweep path
  /// (run_lanes_sweep) never dispatches (see SimEngine::attach_observer).
  void dispatch_observers(std::size_t lanes,
                          std::span<const StepResult> results);

  const Netlist& netlist_;
  OperatingTriad op_;
  double tclk_ps_ = 0.0;
  double leakage_energy_fj_ = 0.0;
  double leak_nw_scaled_ = 0.0;  ///< leakage power at this V/B (nW)
  double critical_path_ps_ = 0.0;

  std::vector<double> gate_delay_ps_;  // per gate, incl. variation
  std::vector<double> net_energy_fj_;  // per net, energy of one toggle
  std::vector<double> arrival_ps_;     // per net, STA bound
  // Per gate: every commit this gate can produce lands strictly inside
  // the capture window (STA arrival < Tclk). In cycle mode its sampled
  // word then always equals its settled word and the cross-cycle
  // recurrence degenerates to the streaming one — the gate dispatches
  // with the packed streaming masks instead of the serial lane scan.
  std::vector<std::uint8_t> cycle_safe_;

  // Streaming state carried between operations (one value per net).
  std::vector<std::uint8_t> state_;          // settled after last op
  std::vector<std::uint8_t> sampled_state_;  // sampled at last op's edge

  // Per-pass scratch, indexed by net (lane words) / net*kLanes (times).
  std::vector<Word> settled_w_;
  std::vector<Word> stale_w_;
  std::vector<Word> sampled_w_;
  // Transition time per net per lane. Deliberately *uninitialized*
  // (make_unique_for_overwrite): every read is guarded by a
  // current-pass mask bit (in_changed / pulsing) whose lane was written
  // earlier in the same pass, and skipping the multi-hundred-KB zero
  // fill keeps construction cheap enough to rebuild per triad.
  std::unique_ptr<double[]> time_ps_;
  // Glitch pulses: lanes flagged in pulsing_w_ carry a surviving pulse
  // spanning [pulse_start, pulse_end) — on an unchanged net the value
  // inside the pulse is the complement of the settled value; on a
  // changed (bouncing) net the pulse is the return trip back to the
  // stale value after the first flip at time_ps_. A second pulse
  // (pulsing2_w_) captures four-commit chatter exactly; longer chatter
  // merges its tail into the second pulse. Pulses are propagated
  // downstream and sampled when the capture edge falls inside them.
  std::vector<Word> pulsing_w_;
  std::unique_ptr<double[]> pulse_start_ps_;  // uninitialized, see above
  std::unique_ptr<double[]> pulse_end_ps_;
  std::vector<Word> pulsing2_w_;
  std::unique_ptr<double[]> pulse2_start_ps_;
  std::unique_ptr<double[]> pulse2_end_ps_;

  // Per-lane single-threshold accumulators (SoA; folded into the
  // per-lane StepResults by run_lanes). Totals are only tracked in
  // streaming mode — cycle mode defines totals == window.
  std::vector<double> acc_win_e_;
  std::vector<double> acc_tot_e_;
  std::vector<double> acc_settle_;
  std::vector<std::uint32_t> acc_win_t_;
  std::vector<std::uint32_t> acc_tot_t_;

  // Observer-dispatch scratch (only touched with observers attached):
  // per-net transposed values for one lane.
  std::vector<std::uint8_t> obs_sampled_;
  std::vector<std::uint8_t> obs_settled_;

  // Per-lane packed primary outputs of the last pass (lanes::gather).
  std::uint64_t po_sampled_[kLanes] = {};
  std::uint64_t po_settled_[kLanes] = {};

  // Sweep support: primary-output index per net (-1 if not a PO), the
  // bucket table of the last threshold set (rebuilt only when the set
  // changes) and per-batch threshold-bucket scratch (sized on first
  // sweep call).
  std::vector<std::int32_t> po_index_;
  ThresholdBuckets sweep_buckets_;
  std::vector<double> sweep_ediff_;        // (nthr+1) × kLanes
  std::vector<std::uint32_t> sweep_tdiff_;  // (nthr+1) × kLanes
  std::vector<Word> sweep_sdiff_;           // nPO × (nthr+1)
  std::vector<std::size_t> sweep_po_slot_;  // per PO, its sdiff row
  std::vector<double> sweep_tot_e_;         // per lane
  std::vector<std::uint32_t> sweep_tot_t_;  // per lane
  std::vector<double> sweep_settle_;        // per lane
};

}  // namespace vosim

#endif  // VOSIM_SIM_LEVELIZED_SIM_HPP
