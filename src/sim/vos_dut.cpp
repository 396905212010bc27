#include "src/sim/vos_dut.hpp"

#include <algorithm>

#include "src/util/contracts.hpp"

namespace vosim {

VosDutSim::VosDutSim(const DutNetlist& dut, const CellLibrary& lib,
                     const OperatingTriad& op,
                     const TimingSimConfig& config)
    : dut_(dut),
      pins_(dut),
      sim_(make_engine(dut.netlist, lib, op, config)) {
  op_buf_.assign(pins_.num_operands(), 0);
  pi_words_.assign(dut_.netlist.primary_inputs().size(), 0);
  step_buf_.resize(lanes::kWordLanes);
  reset();
}

VosOpResult VosDutSim::unpack(const StepResult& st) const {
  VosOpResult out;
  out.sampled = pins_.gather_output(st.sampled_outputs);
  out.settled = pins_.gather_output(st.settled_outputs);
  out.energy_fj = st.window_energy_fj + sim_->leakage_energy_fj_per_op();
  out.settle_time_ps = st.settle_time_ps;
  return out;
}

void VosDutSim::reset(std::span<const std::uint64_t> operands) {
  pins_.scatter_lanes(operands, 1, pi_words_);
  sim_->reset(pi_words_);
}

void VosDutSim::reset() {
  std::fill(op_buf_.begin(), op_buf_.end(), 0);
  reset(op_buf_);
}

void VosDutSim::reset(std::uint64_t a, std::uint64_t b) {
  VOSIM_EXPECTS(pins_.num_operands() == 2);
  op_buf_[0] = a;
  op_buf_[1] = b;
  reset(op_buf_);
}

VosOpResult VosDutSim::apply(std::span<const std::uint64_t> operands) {
  VosOpResult r;
  apply_batch(operands, 1, {&r, 1});
  return r;
}

VosOpResult VosDutSim::apply(std::uint64_t a, std::uint64_t b) {
  VOSIM_EXPECTS(pins_.num_operands() == 2);
  op_buf_[0] = a;
  op_buf_[1] = b;
  return apply(op_buf_);
}

void VosDutSim::apply_batch(std::span<const std::uint64_t> operands,
                            std::size_t count,
                            std::span<VosOpResult> results) {
  const std::size_t nops = pins_.num_operands();
  VOSIM_EXPECTS(operands.size() == count * nops);
  VOSIM_EXPECTS(results.size() >= count);
  for (std::size_t done = 0; done < count;) {
    const std::size_t n = std::min(lanes::kWordLanes, count - done);
    pins_.scatter_lanes(operands.subspan(done * nops, n * nops), n,
                        pi_words_);
    sim_->step_batch(pi_words_, n, step_buf_);
    for (std::size_t k = 0; k < n; ++k)
      results[done + k] = unpack(step_buf_[k]);
    done += n;
  }
}

}  // namespace vosim
