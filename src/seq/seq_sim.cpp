#include "src/seq/seq_sim.hpp"

#include <algorithm>

#include "src/netlist/eval.hpp"
#include "src/util/bits.hpp"
#include "src/tech/library.hpp"
#include "src/util/contracts.hpp"
#include "src/util/lanes.hpp"

namespace vosim {

namespace {

/// Packs per-bus operand words back into one registered bank word
/// (inverse of split_bank_word).
std::uint64_t pack_bank_word(std::span<const std::uint64_t> words,
                             std::span<const int> widths) {
  VOSIM_EXPECTS(words.size() == widths.size());
  std::uint64_t out = 0;
  int shift = 0;
  for (std::size_t i = 0; i < words.size(); ++i) {
    out |= words[i] << shift;
    shift += widths[i];
  }
  return out;
}

}  // namespace

SeqSim::SeqSim(const SeqDut& seq, const CellLibrary& lib,
               const OperatingTriad& op, const TimingSimConfig& config,
               std::size_t monitor_window)
    : seq_(seq), op_(op) {
  VOSIM_EXPECTS(!seq.stages.empty());
  // Per-flop setup check: every stage engine captures at Tclk − t_setup,
  // so a transition inside the setup window misses the register. The
  // engines run entirely on that shortened period (launch and capture
  // coincide; the setup window is borrowed from the next cycle's
  // propagation — DESIGN.md §10); leakage, a per-real-Tclk cost, is
  // rescaled back to the full period.
  const double setup_ns = lib.dff_setup_ps() * 1e-3;
  VOSIM_EXPECTS(op.tclk_ns > setup_ns);
  const OperatingTriad capture{op.tclk_ns - setup_ns, op.vdd_v, op.vbb_v};
  capture_tclk_ps_ = capture.tclk_ns * 1e3;
  leakage_scale_ = op.tclk_ns / capture.tclk_ns;

  tracing_ = config.record_trace && config.engine == EngineKind::kEvent;
  clock_energy_fj_ = seq_clock_energy_fj(seq, lib, op.vdd_v);

  pins_.reserve(seq.stages.size());
  stage_widths_.reserve(seq.stages.size());
  engines_.reserve(seq.stages.size());
  for (const DutNetlist& stage : seq.stages) {
    pins_.emplace_back(stage);
    stage_widths_.push_back(stage.operand_widths());
    engines_.push_back(make_engine(stage.netlist, lib, capture, config));
  }
  if (tracing_) {
    // One bundled TraceRecorder per stage; the engines emit their
    // transitions through the observer interface and the recorders
    // hand each cycle's trace to step_cycle.
    recorders_.resize(seq.stages.size());
    for (std::size_t k = 0; k < seq.stages.size(); ++k)
      engines_[k]->attach_observer(&recorders_[k]);
  }
  // Batch-path precomputation. bank_slot_[k][j]: the PI slot of bit j
  // of stage k's packed bank word — split_bank_word concatenates the
  // operand buses in order, so bank bit j of bus b (at offset Σ earlier
  // widths) lands on pins_[k].input_slots(b)[j - offset]. stage_po_net_
  // resolves output-bus bit i through the pin map to the net that
  // drives it, and stage_leak_fj_ hoists the per-cycle leakage product
  // (bit-identical to evaluating it in the loop).
  bank_slot_.resize(seq.stages.size());
  stage_po_net_.resize(seq.stages.size());
  stage_leak_fj_.reserve(seq.stages.size());
  for (std::size_t k = 0; k < seq.stages.size(); ++k) {
    for (std::size_t b = 0; b < pins_[k].num_operands(); ++b) {
      const auto slots = pins_[k].input_slots(b);
      bank_slot_[k].insert(bank_slot_[k].end(), slots.begin(), slots.end());
    }
    const auto pos = seq.stages[k].netlist.primary_outputs();
    for (const std::size_t s : pins_[k].output_slots())
      stage_po_net_[k].push_back(pos[s]);
    stage_leak_fj_.push_back(engines_[k]->leakage_energy_fj_per_op() *
                             leakage_scale_);
  }
  bank_.resize(seq.stages.size());
  stage_sampled_.assign(seq.stages.size(), 0);
  monitors_.reserve(seq.stages.size());
  for (std::size_t k = 0; k < seq.stages.size(); ++k)
    monitors_.emplace_back(seq.stages[k].output_width(), monitor_window);
  reset();
}

void SeqSim::reset() {
  for (std::size_t k = 0; k < engines_.size(); ++k) {
    const std::size_t npis =
        seq_.stages[k].netlist.primary_inputs().size();
    const std::vector<std::uint8_t> zeros(npis, 0);
    engines_[k]->reset(zeros);
    bank_[k].assign(seq_.stages[k].num_operands(), 0);
    // The stage drives its settled-at-zero outputs into the bank wires;
    // that is what the next capture edge would latch.
    stage_sampled_[k] = pins_[k].gather_output(pack_word(
        engines_[k]->settled_values(),
        seq_.stages[k].netlist.primary_outputs()));
    monitors_[k].reset_window();
  }
  golden_.clear();
  traces_.clear();
  cycles_ = 0;
}

bool SeqSim::retarget_capture_ps(double capture_ps) {
  VOSIM_EXPECTS(capture_ps > 0.0);
  for (const auto& e : engines_)
    if (e->kind() != EngineKind::kLevelized) return false;
  for (auto& e : engines_) e->retarget_tclk_ps(capture_ps);
  capture_tclk_ps_ = capture_ps;
  for (std::size_t k = 0; k < engines_.size(); ++k)
    stage_leak_fj_[k] =
        engines_[k]->leakage_energy_fj_per_op() * leakage_scale_;
  return true;
}

double SeqSim::leakage_energy_fj_per_cycle() const noexcept {
  double leak = 0.0;
  for (const auto& e : engines_) leak += e->leakage_energy_fj_per_op();
  return leak * leakage_scale_;
}

std::uint64_t SeqSim::golden_output(
    std::span<const std::uint64_t> operands) {
  golden_words_.assign(operands.begin(), operands.end());
  std::uint64_t out = 0;
  for (std::size_t k = 0; k < seq_.stages.size(); ++k) {
    const Netlist& nl = seq_.stages[k].netlist;
    if (k > 0) golden_words_ = split_bank_word(out, stage_widths_[k]);
    input_buf_.assign(nl.primary_inputs().size(), 0);
    pins_[k].fill_inputs(golden_words_, input_buf_.data());
    out = pins_[k].gather_output(
        pack_word(evaluate_logic(nl, input_buf_), nl.primary_outputs()));
  }
  return out;
}

double SeqSim::worst_stage_op_error_rate() const {
  double worst = 0.0;
  for (const DoubleSamplingMonitor& m : monitors_)
    worst = std::max(worst, m.window_op_error_rate());
  return worst;
}

void SeqSim::reset_monitor_windows() {
  for (DoubleSamplingMonitor& m : monitors_) m.reset_window();
}

SeqCycleResult SeqSim::step_cycle(std::span<const std::uint64_t> operands) {
  VOSIM_EXPECTS(operands.size() == seq_.num_operands());
  const std::size_t stages = engines_.size();

  // 1. Launch edge — all banks latch simultaneously: bank k takes stage
  // k-1's sample from the previous capture edge, the input bank takes
  // the new operands.
  for (std::size_t k = stages; k-- > 1;)
    bank_[k] = split_bank_word(stage_sampled_[k - 1], stage_widths_[k]);
  bank_[0].assign(operands.begin(), operands.end());
  golden_.push_back(golden_output(operands));

  SeqCycleResult r;
  r.energy_fj = clock_energy_fj_;
  SeqCycleTrace trace;
  if (tracing_) {
    trace.bank_words.reserve(stages + 1);
    for (std::size_t k = 0; k < stages; ++k)
      trace.bank_words.push_back(
          pack_bank_word(bank_[k], stage_widths_[k]));
  }

  // 2. + 3. One clock period per stage, capture at Tclk − setup, and
  // Razor shadow comparison against the stage's functional result.
  for (std::size_t k = 0; k < stages; ++k) {
    const Netlist& nl = seq_.stages[k].netlist;
    input_buf_.assign(nl.primary_inputs().size(), 0);
    pins_[k].fill_inputs(bank_[k], input_buf_.data());
    const StepResult st = engines_[k]->step_cycle(input_buf_);
    const std::uint64_t sampled = pins_[k].gather_output(st.sampled_outputs);
    const std::uint64_t shadow = pins_[k].gather_output(st.settled_outputs);
    stage_sampled_[k] = sampled;
    monitors_[k].observe(sampled, shadow);
    if (sampled != shadow) r.razor_flags |= 1u << k;
    r.energy_fj += st.window_energy_fj + stage_leak_fj_[k];
    r.max_settle_ps = std::max(r.max_settle_ps, st.settle_time_ps);
    if (tracing_) {
      TraceRecorder& rec = recorders_[k];
      trace.stage_initial.emplace_back(rec.initial_values().begin(),
                                       rec.initial_values().end());
      trace.stage_events.push_back(rec.take_trace());
    }
  }

  r.captured = stage_sampled_[stages - 1];
  if (golden_.size() == latency_cycles()) {
    r.expected = golden_.front();
    golden_.pop_front();
    r.output_valid = true;
  }
  if (tracing_) {
    trace.bank_words.push_back(r.captured);
    traces_.push_back(std::move(trace));
  }
  ++cycles_;
  return r;
}

SeqCycleResult SeqSim::step_cycle(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t ops[2] = {a, b};
  return step_cycle(std::span<const std::uint64_t>(ops, 2));
}

void SeqSim::golden_output_batch(std::span<const std::uint64_t> operands,
                                 std::size_t count, std::uint64_t* out) {
  VOSIM_EXPECTS(count >= 1 && count <= lanes::kWordLanes);
  const std::size_t nops = seq_.num_operands();
  // `out` carries the per-cycle bus word between stages: after stage k
  // it holds stage k's golden output for every cycle of the chunk
  // (the golden composition is zero-latency within a cycle). Operand
  // bits scatter straight into per-PI lane words through the
  // precomputed slot maps — no per-cycle split/fill round-trip — and
  // each out[c] gathers through stage_po_net_ (bit-identical: the same
  // slot composition fill_inputs/gather_output would apply).
  for (std::size_t k = 0; k < seq_.stages.size(); ++k) {
    const Netlist& nl = seq_.stages[k].netlist;
    const std::size_t npis = nl.primary_inputs().size();
    golden_pi_words_.assign(npis, 0);
    if (k == 0) {
      for (std::size_t c = 0; c < count; ++c)
        for (std::size_t b = 0; b < nops; ++b) {
          const std::uint64_t op = operands[c * nops + b];
          const auto slots = pins_[0].input_slots(b);
          for (std::size_t i = 0; i < slots.size(); ++i)
            golden_pi_words_[slots[i]] |=
                ((op >> i) & 1ULL) << c;
        }
    } else {
      const auto& bs = bank_slot_[k];
      for (std::size_t c = 0; c < count; ++c) {
        const std::uint64_t w = out[c];
        for (std::size_t j = 0; j < bs.size(); ++j)
          golden_pi_words_[bs[j]] |= ((w >> j) & 1ULL) << c;
      }
    }
    golden_values_.resize(nl.num_nets());
    evaluate_logic_packed(nl, golden_pi_words_, golden_values_);
    const auto& pn = stage_po_net_[k];
    for (std::size_t c = 0; c < count; ++c) {
      std::uint64_t o = 0;
      for (std::size_t i = 0; i < pn.size(); ++i)
        o |= ((golden_values_[pn[i]] >> c) & 1ULL) << i;
      out[c] = o;
    }
  }
}

void SeqSim::step_cycle_batch(std::span<const std::uint64_t> operands,
                              std::size_t count,
                              std::span<SeqCycleResult> results) {
  const std::size_t nops = seq_.num_operands();
  VOSIM_EXPECTS(operands.size() == count * nops);
  VOSIM_EXPECTS(results.size() >= count);
  if (tracing_) {
    // Per-cycle trace collection needs the scalar path.
    for (std::size_t c = 0; c < count; ++c)
      results[c] = step_cycle(operands.subspan(c * nops, nops));
    return;
  }
  const std::size_t stages = engines_.size();
  // Chunk at one lane word (64 cycles): every levelized pass runs
  // full, and the golden reference composition evaluates the chunk as
  // one packed evaluate_logic word.
  std::size_t done = 0;
  while (done < count) {
    const std::size_t chunk = std::min(lanes::kWordLanes, count - done);
    batch_golden_.resize(chunk);
    golden_output_batch(operands.subspan(done * nops, chunk * nops), chunk,
                        batch_golden_.data());

    // Stage by stage: stage k's cycle-c bank latches stage k-1's sample
    // from cycle c-1 (cycle 0 latches the carried stage_sampled_), so a
    // full chunk of stage k-1 samples — shifted by one cycle — is
    // exactly stage k's operand stream for the whole chunk.
    batch_results_.resize(stages * chunk);
    batch_sampled_w_.resize(stages * chunk);
    batch_shadow_w_.resize(stages * chunk);
    for (std::size_t k = 0; k < stages; ++k) {
      const std::size_t npis =
          seq_.stages[k].netlist.primary_inputs().size();
      batch_inputs_.assign(chunk * npis, 0);
      // Direct bit scatter through the precomputed slot maps — the
      // same slots fill_inputs would write, without the per-cycle
      // split_bank_word allocation.
      if (k == 0) {
        for (std::size_t c = 0; c < chunk; ++c)
          for (std::size_t b = 0; b < nops; ++b) {
            const std::uint64_t op = operands[(done + c) * nops + b];
            const auto slots = pins_[0].input_slots(b);
            VOSIM_EXPECTS(
                (op & ~mask_n(static_cast<int>(slots.size()))) == 0);
            for (std::size_t i = 0; i < slots.size(); ++i)
              batch_inputs_[c * npis + slots[i]] =
                  static_cast<std::uint8_t>((op >> i) & 1ULL);
          }
      } else {
        const auto& bs = bank_slot_[k];
        for (std::size_t c = 0; c < chunk; ++c) {
          const std::uint64_t prev =
              c == 0 ? stage_sampled_[k - 1]
                     : batch_sampled_w_[(k - 1) * chunk + (c - 1)];
          std::uint8_t* in = &batch_inputs_[c * npis];
          for (std::size_t j = 0; j < bs.size(); ++j)
            in[bs[j]] = static_cast<std::uint8_t>((prev >> j) & 1ULL);
        }
      }
      engines_[k]->step_cycle_batch(
          batch_inputs_, chunk,
          std::span<StepResult>(&batch_results_[k * chunk], chunk));
      for (std::size_t c = 0; c < chunk; ++c) {
        const StepResult& st = batch_results_[k * chunk + c];
        batch_sampled_w_[k * chunk + c] =
            pins_[k].gather_output(st.sampled_outputs);
        batch_shadow_w_[k * chunk + c] =
            pins_[k].gather_output(st.settled_outputs);
      }
    }

    // Per-cycle composition, in the scalar call order (energy terms
    // added stage by stage, monitors fed cycle-ascending, golden queue
    // pushed and popped once per cycle).
    for (std::size_t c = 0; c < chunk; ++c) {
      SeqCycleResult& r = results[done + c];
      r = SeqCycleResult{};
      r.energy_fj = clock_energy_fj_;
      for (std::size_t k = 0; k < stages; ++k) {
        const StepResult& st = batch_results_[k * chunk + c];
        const std::uint64_t diff = batch_sampled_w_[k * chunk + c] ^
                                   batch_shadow_w_[k * chunk + c];
        monitors_[k].record_word(diff);
        if (diff != 0) r.razor_flags |= 1u << k;
        r.energy_fj += st.window_energy_fj + stage_leak_fj_[k];
        r.max_settle_ps = std::max(r.max_settle_ps, st.settle_time_ps);
      }
      r.captured = batch_sampled_w_[(stages - 1) * chunk + c];
      golden_.push_back(batch_golden_[c]);
      if (golden_.size() == latency_cycles()) {
        r.expected = golden_.front();
        golden_.pop_front();
        r.output_valid = true;
      }
      ++cycles_;
    }
    for (std::size_t k = 0; k < stages; ++k)
      stage_sampled_[k] = batch_sampled_w_[k * chunk + (chunk - 1)];
    done += chunk;
  }
}

}  // namespace vosim
