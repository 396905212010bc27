// Multi-cycle VCD export of a pipelined run: one scope per stage, the
// register banks as multi-bit words latched at each launch edge, and
// per-cycle timestamps — a pipelined trace that opens cleanly in
// GTKWave. A SeqVcdRecorder attaches one observer per stage to an
// event-engine SeqSim through SeqSim::stage_engine(k), so it records
// every cycle however the stream is split into step_cycle_batch calls.
#ifndef VOSIM_SEQ_SEQ_VCD_HPP
#define VOSIM_SEQ_SEQ_VCD_HPP

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "src/obs/probe.hpp"
#include "src/seq/seq_sim.hpp"

namespace vosim {

/// Records the cycles a SeqSim steps while attached and writes them as
/// one VCD dump. The constructor attaches one observer per stage and
/// the destructor detaches them, so `sim` must outlive the recorder;
/// SeqSim::reset() does not clear what was recorded. Per cycle, each
/// stage observer keeps the stage's committed transitions and its
/// register-bank word, rebuilt from the stage's primary-input values
/// (operand buses concatenated in order); the output register is the
/// last stage's sampled output bus. Event engine only: the levelized
/// backend reports no transitions.
class SeqVcdRecorder {
 public:
  explicit SeqVcdRecorder(SeqSim& sim);
  ~SeqVcdRecorder();

  SeqVcdRecorder(const SeqVcdRecorder&) = delete;
  SeqVcdRecorder& operator=(const SeqVcdRecorder&) = delete;

  /// Cycles recorded so far.
  std::size_t cycles() const noexcept { return stages_.back().bank.size(); }

  /// Writes every recorded cycle, spaced by the simulator's capture
  /// period. Throws ContractViolation when no cycle was recorded.
  void write(std::ostream& os) const;

 private:
  struct Stage final : SimObserver {
    explicit Stage(const DutNetlist& stage) : dut(&stage) {}
    void on_step_begin(const SimEngine& engine,
                       std::span<const std::uint8_t> initial) override;
    void on_transition(const SimEngine& engine,
                       const TraceEvent& ev) override;
    void on_step_end(const SimEngine& engine,
                     std::span<const std::uint8_t> sampled,
                     std::span<const std::uint8_t> settled,
                     const StepResult& result) override;

    const DutNetlist* dut;
    std::vector<std::uint8_t> initial;  ///< net values before cycle 0
    std::vector<std::vector<TraceEvent>> events;  ///< per cycle
    std::vector<std::uint64_t> bank;  ///< latched bank word per cycle
    std::vector<std::uint64_t> out;   ///< sampled output bus per cycle
  };

  SeqSim& sim_;
  /// Sized once in the constructor: the engines hold pointers into it.
  std::vector<Stage> stages_;
};

}  // namespace vosim

#endif  // VOSIM_SEQ_SEQ_VCD_HPP
