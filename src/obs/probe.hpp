// Simulation introspection: the SimObserver callback interface both
// SimEngine backends dispatch into, plus the bundled observers —
// TraceRecorder (one step's transitions and baseline, written as a VCD
// waveform) and ErrorProvenance (per-net culprit attribution of
// erroneous output bits, per-bit-position BER from attribution, and
// slack-consumption statistics). DESIGN.md §13.
//
// Observers are borrowed raw pointers attached with
// SimEngine::attach_observer(); with none attached the engines pay
// exactly one !observers_.empty() branch per hot-path site. Callback
// coverage differs by backend:
//
//   event      on_step_begin, on_transition (every committed net
//              transition), on_step_end.
//   levelized  on_step_end once per evaluated lane (per-net values
//              transposed out of the lane words) and on_lane_word once
//              per packed pass. No per-transition callbacks — the
//              levelized model has no global event wheel — and the
//              multi-threshold sweep path (step_batch_sweep) does not
//              dispatch at all (characterize_dut's provenance mode
//              routes around it).
#ifndef VOSIM_OBS_PROBE_HPP
#define VOSIM_OBS_PROBE_HPP

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "src/netlist/dut.hpp"
#include "src/netlist/netlist.hpp"
#include "src/sim/sim_engine.hpp"
#include "src/util/stats.hpp"

namespace vosim {

/// Callback interface for simulation introspection. All callbacks have
/// empty default bodies so observers override only what they consume;
/// they are invoked synchronously on the simulating thread.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// Launch edge of a step/step_cycle: `initial` holds the per-net
  /// values before the new inputs are applied (the trace baseline).
  /// Event engine only.
  virtual void on_step_begin(const SimEngine& engine,
                             std::span<const std::uint8_t> initial) {
    (void)engine;
    (void)initial;
  }

  /// One committed net transition (event engine only), in commit order.
  virtual void on_transition(const SimEngine& engine, const TraceEvent& ev) {
    (void)engine;
    (void)ev;
  }

  /// End of one simulated operation (or one lane of a levelized pass):
  /// per-net values sampled at the capture edge and fully settled, plus
  /// the operation's StepResult. Both engines.
  virtual void on_step_end(const SimEngine& engine,
                           std::span<const std::uint8_t> sampled,
                           std::span<const std::uint8_t> settled,
                           const StepResult& result) {
    (void)engine;
    (void)sampled;
    (void)settled;
    (void)result;
  }

  /// One levelized packed pass of `lanes` lanes (<= 64 patterns or
  /// cycles) finished, after its per-lane on_step_end calls.
  /// Levelized engine only.
  virtual void on_lane_word(const SimEngine& engine, std::size_t lanes) {
    (void)engine;
    (void)lanes;
  }
};

/// Bundled observer: records the last step's committed transitions and
/// the pre-step baseline values, and writes them as a VCD waveform.
/// Event engine only (the levelized backend emits no transitions).
class TraceRecorder final : public SimObserver {
 public:
  void on_step_begin(const SimEngine& engine,
                     std::span<const std::uint8_t> initial) override;
  void on_transition(const SimEngine& engine, const TraceEvent& ev) override;

  /// Transitions of the last observed step, in commit order. The buffer
  /// is cleared at the next step's launch edge.
  std::span<const TraceEvent> trace() const noexcept { return trace_; }

  /// Net values at the start of the last observed step.
  std::span<const std::uint8_t> initial_values() const noexcept {
    return initial_;
  }

  /// Writes the last observed step as a VCD dump: all nets declared,
  /// baseline at #0, every transition at 1 ps resolution, a clk_sample
  /// marker at Tclk. Throws ContractViolation when no step has been
  /// observed yet.
  void write(std::ostream& os) const;

 private:
  const SimEngine* engine_ = nullptr;
  std::vector<TraceEvent> trace_;
  std::vector<std::uint8_t> initial_;
};

/// One culprit net and the number of erroneous output bits attributed
/// to it.
struct CulpritCount {
  NetId net = invalid_net;
  int level = 0;              ///< topological level of the net
  std::uint64_t bits = 0;     ///< erroneous output bits attributed
  std::string name;           ///< netlist net name (optionally staged)
};

/// Aggregated provenance of one characterization stream.
struct ProvenanceSummary {
  std::uint64_t ops = 0;             ///< operations observed
  std::uint64_t erroneous_ops = 0;   ///< ops with >= 1 erroneous bit
  std::uint64_t attributed_bits = 0; ///< erroneous bits attributed (all)
  std::uint64_t lane_words = 0;      ///< levelized passes observed
  /// Per-output-bit error probability derived from attribution — by
  /// construction identical to ErrorAccumulator's output-diff bitwise
  /// BER when the golden reference is the settled value.
  std::vector<double> bitwise_ber;
  /// Culprit histogram, sorted by attributed bits descending.
  std::vector<CulpritCount> culprits;
  /// Slack consumed past the capture edge per erroneous op (ps).
  double slack_p50_ps = 0.0;
  double slack_p95_ps = 0.0;
  double slack_max_ps = 0.0;

  /// "net=count,net=count" line of the top-K culprits (JSONL-safe).
  std::string top_culprits_string(std::size_t k) const;
};

/// Pipeline provenance roll-up from the per-stage observers: culprit
/// histograms aggregate across stages (names carry the "s<k>:" prefix)
/// and keep the top `top_k` by bits, then name; bitwise_ber is the
/// output stage's local per-bit probability, and the slack figures take
/// the worst stage. `ops` comes from the output stage (every stage
/// observes every cycle). `stages` must not be empty.
ProvenanceSummary combine_stage_summaries(
    std::span<const ProvenanceSummary> stages, std::size_t top_k);

/// Bundled observer: attributes every erroneous output bit of every
/// observed operation to its culprit net — the failing net (sampled !=
/// settled at the capture edge) with the lowest topological level
/// inside that output bit's fan-in cone, ties broken towards the lower
/// NetId. The primary-output net itself is part of its own cone and by
/// definition fails whenever its bit is erroneous, so attribution
/// always succeeds and the attributed per-bit error counts equal the
/// output-diff counts bit-exactly (DESIGN.md §13). Works on both
/// engines via on_step_end; single-threaded like the engines it
/// observes.
class ErrorProvenance final : public SimObserver {
 public:
  /// Observes a combinational DUT: output bit i is primary output
  /// pins.output_slots()[i] of `netlist`. Both must outlive the
  /// observer. `stage` labels culprit names ("s<k>:<net>") for
  /// pipelined DUTs; pass -1 for unstaged.
  ErrorProvenance(const Netlist& netlist, const DutPinMap& pins,
                  int stage = -1);
  /// Convenience: builds the pin map from the DUT.
  explicit ErrorProvenance(const DutNetlist& dut);

  void on_step_end(const SimEngine& engine,
                   std::span<const std::uint8_t> sampled,
                   std::span<const std::uint8_t> settled,
                   const StepResult& result) override;
  void on_lane_word(const SimEngine& engine, std::size_t lanes) override;

  /// Snapshot of everything accumulated so far.
  ProvenanceSummary summary() const;

  /// Folds the accumulated counts into the process-wide
  /// MetricsRegistry under `prefix` (counters prefix.ops,
  /// prefix.erroneous_ops, prefix.attributed_bits, prefix.lane_words,
  /// prefix.bit<N>, prefix.culprit.<net> for the top `top_k` culprits)
  /// and the slack distribution into the prefix.slack latency
  /// histogram (ps recorded as ns on the log10 scale).
  void publish(const std::string& prefix, std::size_t top_k) const;

  /// Merges another observer's accumulation (same netlist shape).
  void merge(const ErrorProvenance& other);

 private:
  void init(const Netlist& netlist, std::span<const std::size_t> out_slots,
            int stage);

  const Netlist* netlist_ = nullptr;
  int stage_ = -1;
  std::vector<NetId> out_net_;    ///< PO net per output-bus bit
  std::vector<int> level_;        ///< topological level per net
  /// Per net: output bits whose fan-in cone contains the net.
  std::vector<std::uint64_t> cone_mask_;
  /// Gate-output nets sorted by (level, NetId) — the attribution scan
  /// order (primary inputs never fail: they have no arrival to miss).
  std::vector<NetId> nets_by_level_;
  std::vector<std::uint64_t> culprit_bits_;  ///< per net, attributed bits
  std::vector<std::uint64_t> bit_err_;       ///< per output bit
  std::uint64_t ops_ = 0;
  std::uint64_t erroneous_ops_ = 0;
  std::uint64_t attributed_bits_ = 0;
  std::uint64_t lane_words_ = 0;
  Histogram slack_hist_;  ///< slack consumed per erroneous op (ps)
  double slack_max_ps_ = 0.0;
};

}  // namespace vosim

#endif  // VOSIM_OBS_PROBE_HPP
