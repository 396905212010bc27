#include "src/seq/seq_vcd.hpp"

#include <numeric>
#include <string>

#include "src/sim/vcd.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

SeqVcdRecorder::SeqVcdRecorder(SeqSim& sim) : sim_(sim) {
  VOSIM_EXPECTS(sim.engine_kind() == EngineKind::kEvent);
  const SeqDut& seq = sim.seq();
  stages_.reserve(seq.num_stages());
  for (const DutNetlist& stage : seq.stages) stages_.emplace_back(stage);
  for (std::size_t k = 0; k < stages_.size(); ++k)
    sim.stage_engine(k).attach_observer(&stages_[k]);
}

SeqVcdRecorder::~SeqVcdRecorder() {
  for (std::size_t k = 0; k < stages_.size(); ++k)
    sim_.stage_engine(k).detach_observer(&stages_[k]);
}

void SeqVcdRecorder::Stage::on_step_begin(
    const SimEngine&, std::span<const std::uint8_t> values) {
  if (events.empty()) initial.assign(values.begin(), values.end());
  events.emplace_back();
}

void SeqVcdRecorder::Stage::on_transition(const SimEngine&,
                                          const TraceEvent& ev) {
  events.back().push_back(ev);
}

void SeqVcdRecorder::Stage::on_step_end(const SimEngine&,
                                        std::span<const std::uint8_t> sampled,
                                        std::span<const std::uint8_t>,
                                        const StepResult&) {
  // The primary inputs hold the latched bank from the launch edge on.
  std::uint64_t word = 0;
  int shift = 0;
  for (const DutBus& bus : dut->inputs)
    for (const NetId n : bus.nets)
      word |= static_cast<std::uint64_t>(sampled[n] & 1u) << shift++;
  bank.push_back(word);
  std::uint64_t captured = 0;
  for (std::size_t i = 0; i < dut->outputs.size(); ++i)
    captured |= static_cast<std::uint64_t>(sampled[dut->outputs[i]] & 1u)
                << i;
  out.push_back(captured);
}

void SeqVcdRecorder::write(std::ostream& os) const {
  if (cycles() == 0)
    throw ContractViolation(
        "SeqVcdRecorder::write: no cycles recorded (step the simulator "
        "at least one cycle while the recorder is attached)");

  const SeqDut& seq = sim_.seq();
  // Cycles are spaced by the period the engines actually simulate on
  // (Tclk − setup), so per-cycle event times land inside their cycle.
  VcdWriter writer(sim_.capture_period_ps());
  for (std::size_t k = 0; k < seq.num_stages(); ++k)
    writer.add_scope("stage" + std::to_string(k), seq.stages[k].netlist);
  for (std::size_t k = 0; k < seq.num_stages(); ++k) {
    const std::vector<int> widths = seq.stages[k].operand_widths();
    const int bits = std::accumulate(widths.begin(), widths.end(), 0);
    writer.add_word(k == 0 ? "bank_in" : "bank" + std::to_string(k), bits);
  }
  writer.add_word("out_reg", seq.output_width());

  std::vector<std::vector<std::uint8_t>> initial;
  for (const Stage& s : stages_) initial.push_back(s.initial);
  writer.begin(std::move(initial));
  for (std::size_t c = 0; c < cycles(); ++c) {
    std::vector<std::vector<TraceEvent>> events;
    std::vector<std::uint64_t> words;
    for (const Stage& s : stages_) {
      events.push_back(s.events[c]);
      words.push_back(s.bank[c]);
    }
    words.push_back(stages_.back().out[c]);
    writer.append_cycle(std::move(events), std::move(words));
  }
  writer.write(os);
}

}  // namespace vosim
