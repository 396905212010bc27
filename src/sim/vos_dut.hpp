// High-level word interface over a timing-simulation engine: "a datapath
// operator run at a voltage-over-scaled triad" (paper Fig. 2),
// generalized from adders to any DutNetlist — multipliers, adder trees,
// MAC trees. The backend (event-driven reference or bit-parallel
// levelized) is chosen by TimingSimConfig::engine.
#ifndef VOSIM_SIM_VOS_DUT_HPP
#define VOSIM_SIM_VOS_DUT_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/netlist/dut.hpp"
#include "src/sim/sim_engine.hpp"

namespace vosim {

/// Result of one voltage-over-scaled clocked operation.
struct VosOpResult {
  /// The output-bus value captured at the clock edge — possibly wrong.
  std::uint64_t sampled = 0;
  /// The value the circuit settles to — the functional result of this
  /// netlist (equals the exact arithmetic result only for exact
  /// architectures).
  std::uint64_t settled = 0;
  /// Dynamic + leakage energy of the operation (fJ).
  double energy_fj = 0.0;
  /// Arrival of the last transition (ps).
  double settle_time_ps = 0.0;
};

/// Streams word operations through a DUT netlist at a fixed operating
/// triad. Circuit state persists between apply() calls, like a datapath
/// between pipeline registers; reset() re-settles to known operands.
/// Primary inputs outside the operand buses (e.g. a carry-in) are held
/// at logic zero.
class VosDutSim {
 public:
  /// The DUT must outlive the simulator. `config.engine` selects the
  /// backend (event-driven by default).
  VosDutSim(const DutNetlist& dut, const CellLibrary& lib,
            const OperatingTriad& op, const TimingSimConfig& config = {});

  /// Settles the circuit on the given operands with no timing effects;
  /// the no-argument form settles on all-zero operands.
  void reset(std::span<const std::uint64_t> operands);
  void reset();
  /// Two-operand convenience (adders, multipliers).
  void reset(std::uint64_t a, std::uint64_t b);

  /// Performs one clocked operation: a one-operation apply_batch().
  /// operands.size() must equal num_operands() and operand k must fit
  /// in operand_width(k) bits.
  VosOpResult apply(std::span<const std::uint64_t> operands);
  /// Two-operand convenience.
  VosOpResult apply(std::uint64_t a, std::uint64_t b);

  /// Streams `count` clocked operations, filling results[k]; state
  /// carries from one operation to the next, so any split of a stream
  /// into calls gives the same results. Operation k's operands live in
  /// operands[k*num_operands(), (k+1)*num_operands()). The stream goes
  /// to the engine one 64-lane word at a time; the levelized backend
  /// evaluates each word in one pass, which is where its
  /// order-of-magnitude sweep speedup comes from.
  void apply_batch(std::span<const std::uint64_t> operands,
                   std::size_t count, std::span<VosOpResult> results);

  const DutNetlist& dut() const noexcept { return dut_; }
  const DutPinMap& pins() const noexcept { return pins_; }
  std::size_t num_operands() const noexcept { return pins_.num_operands(); }
  int operand_width(std::size_t i) const { return pins_.operand_width(i); }
  int output_width() const noexcept { return pins_.output_width(); }
  const OperatingTriad& triad() const noexcept { return sim_->triad(); }
  /// Leakage energy charged to every operation at this triad (fJ).
  double leakage_energy_fj() const noexcept {
    return sim_->leakage_energy_fj_per_op();
  }
  /// Backend this simulator runs on.
  EngineKind engine_kind() const noexcept { return sim_->kind(); }
  /// True when STA proves every operation samples its settled outputs
  /// (SimEngine::sta_error_free): `sampled` then always equals
  /// `settled`.
  bool sta_error_free() const noexcept { return sim_->sta_error_free(); }
  /// The underlying engine (e.g. for net-level inspection).
  const SimEngine& engine() const noexcept { return *sim_; }
  /// Mutable access — for attaching SimObservers (src/obs/probe.hpp).
  SimEngine& engine() noexcept { return *sim_; }

 private:
  VosOpResult unpack(const StepResult& st) const;

  const DutNetlist& dut_;
  DutPinMap pins_;
  std::unique_ptr<SimEngine> sim_;
  std::vector<std::uint64_t> op_buf_;    // convenience-overload operands
  std::vector<lanes::Word> pi_words_;    // one lane word per PI
  std::vector<StepResult> step_buf_;     // one lane word of results
};

}  // namespace vosim

#endif  // VOSIM_SIM_VOS_DUT_HPP
