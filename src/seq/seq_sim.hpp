// Clocked simulation of a SeqDut: one SimEngine per stage, explicit
// register banks, per-flop setup margin, per-cycle clock/latch energy
// and in-simulator Razor detection.
//
// Every clock cycle:
//   1. Launch edge — the register banks latch simultaneously: the input
//      bank takes the new external operands, bank k takes stage k-1's
//      output as sampled at the previous capture edge (errors included).
//   2. Each stage propagates its newly latched operands for one clock
//      period on its engine's clocked path (step_cycle_batch), so
//      transitions that miss the capture edge latch wrong values and
//      carry into later cycles.
//   3. Capture edge — each stage is sampled at Tclk − t_setup (per-flop
//      setup check); the shadow sample is the stage's functional settled
//      value, and every (main, shadow) pair feeds that stage's
//      DoubleSamplingMonitor — Razor flags from simulator truth, not
//      synthetic injection (paper [17], Kaul et al.).
//
// Per-cycle energy = Σ stage window dynamic energy + Σ stage leakage +
// register clock/latch energy (num_flops × dff_clock_energy × Vdd²).
#ifndef VOSIM_SEQ_SEQ_SIM_HPP
#define VOSIM_SEQ_SEQ_SIM_HPP

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "src/seq/error_monitor.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/sim/sim_engine.hpp"

namespace vosim {

/// Outcome of one pipeline clock cycle.
struct SeqCycleResult {
  /// Output-register value latched at this cycle's capture edge.
  std::uint64_t captured = 0;
  /// Golden (zero-delay) pipeline output aligned with `captured` —
  /// the result the operands applied latency_cycles()-1 calls ago
  /// should have produced. Only meaningful once `output_valid`.
  std::uint64_t expected = 0;
  /// False during pipeline fill (the first latency_cycles()-1 cycles).
  bool output_valid = false;
  /// Window dynamic + leakage + register clock/latch energy (fJ).
  double energy_fj = 0.0;
  /// Worst stage settle estimate this cycle (ps).
  double max_settle_ps = 0.0;
  /// Bit k set: stage k's Razor shadow disagreed with its main sample
  /// this cycle (a local timing error, not an inherited one).
  std::uint32_t razor_flags = 0;
};

/// A clocked stream recorded at one capture threshold by
/// SeqSim::record_cycle_batch, for replays at smaller thresholds on the
/// same die (SeqSim::replay_cycle_batch). Lane word w is cycles
/// [64w, 64w + 64) of the stream (the last word may be shorter).
class SeqRecording {
 public:
  /// The capture threshold the stream was recorded at (ps).
  double capture_ps() const noexcept { return capture_ps_; }
  /// Every cycle's result, exactly as step_cycle_batch produced it.
  std::span<const SeqCycleResult> results() const noexcept {
    return results_;
  }

 private:
  friend class SeqSim;
  double capture_ps_ = 0.0;
  std::vector<SeqCycleResult> results_;
  std::vector<double> stage_window_fj_;  ///< cycle c, stage k at c·stages+k
  /// Per lane word: the latest commit of any stage inside it (ps), and
  /// whether every stage entered it settled (each net at the settled
  /// function of the stage's carried inputs).
  std::vector<double> latest_commit_ps_;
  std::vector<std::uint8_t> entered_settled_;
  /// Per lane word, the state it leaves: every stage's carried net
  /// values (SimEngine::save_carried_state, stages back to back), the
  /// bank words and the golden queue (latency − 1 slots).
  std::vector<lanes::Word> nets_;
  std::vector<std::uint64_t> banks_;
  std::vector<std::uint64_t> golden_;
};

/// Streams clocked operations through a pipelined DUT at one operating
/// triad. All register banks start at the all-zero settled state.
class SeqSim {
 public:
  /// The SeqDut must outlive the simulator. `config.engine` selects the
  /// backend for every stage. `monitor_window` sizes each stage's Razor
  /// monitor window.
  SeqSim(const SeqDut& seq, const CellLibrary& lib,
         const OperatingTriad& op, const TimingSimConfig& config = {},
         std::size_t monitor_window = 256);

  /// Re-settles every stage and bank to the all-zero state; clears the
  /// golden queue and replay (monitors keep lifetime counts, windows
  /// are reset).
  void reset();

  /// One clock cycle: a one-cycle step_cycle_batch(). operands.size()
  /// must equal num_operands() and operand k must fit operand_width(k)
  /// bits.
  SeqCycleResult step_cycle(std::span<const std::uint64_t> operands);
  /// Two-operand convenience.
  SeqCycleResult step_cycle(std::uint64_t a, std::uint64_t b);

  /// Clocked stepping, the simulator's one path: cycle c's operands
  /// occupy operands[c*num_operands(), (c+1)*num_operands()) and its
  /// outcome lands in results[c]. Any split of a stream into calls
  /// gives identical captured/expected words, per-cycle energy (same
  /// floating-point accumulation order) and Razor monitor statistics.
  /// The stream runs in chunks of one lane word (64 cycles): each stage
  /// engine runs one step_cycle_batch per chunk (one levelized pass;
  /// the register banks between stages become lane words shifted by
  /// one cycle) and the golden pipeline is evaluated lane-parallel. A
  /// replayed stream (replay_cycle_batch) does not continue here:
  /// reset() first.
  void step_cycle_batch(std::span<const std::uint64_t> operands,
                        std::size_t count,
                        std::span<SeqCycleResult> results);

  /// step_cycle_batch() over a whole stream from reset, recording what
  /// replay_cycle_batch() reads: every result, each stage's window
  /// energy per cycle, each lane word's latest commit and whether every
  /// stage entered it settled, and a bit-packed checkpoint of the state
  /// each lane word leaves. Levelized stages only.
  SeqRecording record_cycle_batch(std::span<const std::uint64_t> operands,
                                  std::size_t count);

  /// Runs the next cycles of the stream `rec` recorded — the same
  /// operands, on the same die (SeqDut, library, config, Vdd and Vbb)
  /// — at this simulator's capture threshold, which must not exceed
  /// rec.capture_ps(). Results, monitor statistics and cycles() are
  /// bit-identical to step_cycle_batch() at this threshold. A replay
  /// starts at reset() and advances in whole lane words: `count` ends
  /// on a word boundary or at the stream's end. A lane word is copied
  /// from the recording, with every cycle's energy recomposed from the
  /// recorded stage window energies and this threshold's leakage, when
  ///   - every commit the recording made inside it lands before this
  ///     threshold,
  ///   - the recording entered it with every stage settled, and
  ///   - the replay's state entering it equals the recording's.
  /// Then both runs make the same commits at the same times, all inside
  /// the window (DESIGN.md §10). Any other word is simulated, from the
  /// recording's checkpoint when the words before it were copied, and
  /// the state it leaves is compared with the recording's. Each copied
  /// cycle adds to the `sim.seq.reused_cycles` counter.
  void replay_cycle_batch(const SeqRecording& rec,
                          std::span<const std::uint64_t> operands,
                          std::size_t count,
                          std::span<SeqCycleResult> results);

  const SeqDut& seq() const noexcept { return seq_; }
  std::size_t num_stages() const noexcept { return engines_.size(); }
  std::size_t num_operands() const noexcept { return seq_.num_operands(); }
  int output_width() const noexcept { return seq_.output_width(); }
  std::size_t latency_cycles() const noexcept {
    return seq_.latency_cycles();
  }
  const OperatingTriad& triad() const noexcept { return op_; }
  EngineKind engine_kind() const noexcept { return engines_[0]->kind(); }
  /// True when every stage engine is STA error-free at the capture
  /// period (SimEngine::sta_error_free): each stage then captures its
  /// settled outputs every cycle, so `captured` always equals
  /// `expected` once the pipeline is full.
  bool sta_error_free() const noexcept {
    return std::all_of(engines_.begin(), engines_.end(),
                       [](const auto& e) { return e->sta_error_free(); });
  }
  std::uint64_t cycles() const noexcept { return cycles_; }

  /// Stage k's engine — for attaching per-stage SimObservers (an
  /// ErrorProvenance per stage in provenance sweeps). Observers see
  /// every cycle through the engine's own dispatch sites, stage by
  /// stage within each lane-word chunk.
  SimEngine& stage_engine(std::size_t k) { return *engines_.at(k); }
  const SimEngine& stage_engine(std::size_t k) const {
    return *engines_.at(k);
  }

  /// Register clock/latch energy charged every cycle (fJ).
  double clock_energy_fj_per_cycle() const noexcept {
    return clock_energy_fj_;
  }
  /// Σ stage leakage per cycle (fJ), integrated over the full Tclk —
  /// the stage engines run on the capture period (Tclk − setup), so
  /// their per-op leakage is rescaled by Tclk / (Tclk − setup).
  double leakage_energy_fj_per_cycle() const noexcept;
  /// The period the stage engines actually propagate and rebase on:
  /// Tclk − t_setup (ps). Launch and capture edges coincide there —
  /// the setup window is borrowed from the next cycle's propagation,
  /// a deliberate simplification (DESIGN.md §10).
  double capture_period_ps() const noexcept { return capture_tclk_ps_; }

  /// Moves every stage engine's capture threshold to `capture_ps` on
  /// the same die (SimEngine::retarget_tclk_ps) and refreshes the
  /// hoisted per-stage leakage. Returns false — and changes nothing —
  /// unless every stage runs the levelized backend. This is the
  /// characterizer's normalized-grid tool: Vdd/Vbb move as one common
  /// delay-scale factor, so a whole triad ladder replays on one
  /// normalized pipeline by sliding the threshold (energies rescaled
  /// by the caller); triad() keeps reporting the constructed triad.
  /// Call reset() before the next stream.
  bool retarget_capture_ps(double capture_ps);

  /// Stage k's Razor monitor (shadow-vs-main statistics from the
  /// simulator, the closed-loop controller's sensor).
  const DoubleSamplingMonitor& stage_monitor(std::size_t k) const {
    return monitors_.at(k);
  }
  /// Highest windowed flagged-op rate across stages — the signal the
  /// closed-loop controller regulates.
  double worst_stage_op_error_rate() const;

 private:
  /// The step_cycle_batch body, shared with record and replay.
  void run_cycles(std::span<const std::uint64_t> operands,
                  std::size_t count, std::span<SeqCycleResult> results);

  /// Appends the current state to rec's checkpoints; returns whether
  /// every stage's carried state is settled.
  bool save_checkpoint(SeqRecording& rec);
  /// Loads the checkpoint that lane word `w` of rec left behind.
  void restore_checkpoint(const SeqRecording& rec, std::size_t w);
  /// True when the current state equals that checkpoint.
  bool matches_checkpoint(const SeqRecording& rec, std::size_t w);
  /// True when stage k's carried net values (one bit per net) are the
  /// settled function of its carried input values.
  bool stage_settled(std::size_t k, std::span<const lanes::Word> bits);

  /// Lane-parallel golden: out[c] = the pipeline's settled function of
  /// cycle c's operands for up to lanes::kWordLanes cycles, one packed
  /// evaluate_logic pass per stage.
  void golden_output_batch(std::span<const std::uint64_t> operands,
                           std::size_t count, std::uint64_t* out);

  const SeqDut& seq_;
  OperatingTriad op_;
  double capture_tclk_ps_ = 0.0;
  double leakage_scale_ = 1.0;  ///< Tclk / (Tclk − setup)
  double clock_energy_fj_ = 0.0;
  std::vector<DutPinMap> pins_;
  /// Stage k's PI slot for every bit of its packed register-bank word
  /// (operand buses concatenated in split_bank_word order), so bank
  /// words scatter straight into PI lane words (k >= 1; stage 0 is fed
  /// from the external operand words through its pin map).
  std::vector<std::vector<std::size_t>> bank_slot_;
  /// Net feeding output-bus bit i of stage k (primary-output order
  /// resolved through the pin map), for lane-word golden gathers.
  std::vector<std::vector<NetId>> stage_po_net_;
  /// Per-stage leakage × Tclk/(Tclk−setup), precomputed once.
  std::vector<double> stage_leak_fj_;
  std::vector<std::unique_ptr<SimEngine>> engines_;
  std::vector<std::uint64_t> stage_sampled_;  ///< last capture, per stage
  std::vector<DoubleSamplingMonitor> monitors_;
  std::deque<std::uint64_t> golden_;  ///< expected outputs in flight
  std::uint64_t cycles_ = 0;
  // step_cycle_batch scratch (avoids per-chunk allocation).
  std::vector<lanes::Word> pi_words_;          ///< one stage's PI words
  std::vector<StepResult> batch_results_;      ///< stages × chunk
  /// stages × (chunk + 1): entry 0 of row k is stage k's capture
  /// carried in from the previous chunk, entry c + 1 its capture in
  /// cycle c — so entries 0..chunk-1 are stage k+1's bank words.
  std::vector<std::uint64_t> batch_sampled_w_;
  std::vector<std::uint64_t> batch_shadow_w_;   ///< stages × chunk
  std::vector<std::uint64_t> batch_golden_;     ///< per-cycle golden
  std::vector<std::uint64_t> golden_values_;    ///< per-net lane words
  /// Stage k's carried net values start at word state_offset_[k] of a
  /// checkpoint; state_offset_.back() words per checkpoint.
  std::vector<std::size_t> state_offset_;
  std::vector<lanes::Word> state_bits_;  ///< one checkpoint, scratch
  /// Replay cursor: the recording being replayed, whether the stream's
  /// state at cycles_ equals the recording's, and whether the engines,
  /// banks and golden queue lag it because the last words were copied.
  const SeqRecording* replay_ = nullptr;
  bool replay_synced_ = false;
  bool replay_lagging_ = false;
};

}  // namespace vosim

#endif  // VOSIM_SEQ_SEQ_SIM_HPP
