#include "src/seq/seq_sim.hpp"

#include <algorithm>

#include "src/netlist/eval.hpp"
#include "src/obs/metrics.hpp"
#include "src/tech/library.hpp"
#include "src/util/contracts.hpp"
#include "src/util/lanes.hpp"

namespace vosim {

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

  clock_energy_fj_ = seq_clock_energy_fj(seq, lib, op.vdd_v);

  pins_.reserve(seq.stages.size());
  engines_.reserve(seq.stages.size());
  for (const DutNetlist& stage : seq.stages) {
    pins_.emplace_back(stage);
    engines_.push_back(make_engine(stage.netlist, lib, capture, config));
  }
  // bank_slot_[k][j]: the PI slot of bit j of stage k's packed bank
  // word — split_bank_word concatenates the operand buses in order, so
  // bank bit j of bus b (at offset Σ earlier widths) lands on
  // pins_[k].input_slots(b)[j - offset]. stage_po_net_ resolves
  // output-bus bit i through the pin map to the net that drives it,
  // and stage_leak_fj_ hoists the per-cycle leakage product.
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
  state_offset_.assign(1, 0);
  for (const DutNetlist& stage : seq.stages)
    state_offset_.push_back(state_offset_.back() +
                            lanes::words_for(stage.netlist.num_nets()));
  state_bits_.resize(state_offset_.back());
  stage_sampled_.assign(seq.stages.size(), 0);
  monitors_.reserve(seq.stages.size());
  for (std::size_t k = 0; k < seq.stages.size(); ++k)
    monitors_.emplace_back(seq.stages[k].output_width(), monitor_window);
  reset();
}

void SeqSim::reset() {
  for (std::size_t k = 0; k < engines_.size(); ++k) {
    pi_words_.assign(seq_.stages[k].netlist.primary_inputs().size(), 0);
    engines_[k]->reset(pi_words_);
    // The stage drives its settled-at-zero outputs into the bank wires;
    // that is what the next capture edge would latch.
    stage_sampled_[k] = pins_[k].gather_output(pack_word(
        engines_[k]->settled_values(),
        seq_.stages[k].netlist.primary_outputs()));
    monitors_[k].reset_window();
  }
  golden_.clear();
  cycles_ = 0;
  replay_ = nullptr;
  replay_synced_ = false;
  replay_lagging_ = false;
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

double SeqSim::worst_stage_op_error_rate() const {
  double worst = 0.0;
  for (const DoubleSamplingMonitor& m : monitors_)
    worst = std::max(worst, m.window_op_error_rate());
  return worst;
}

SeqCycleResult SeqSim::step_cycle(std::span<const std::uint64_t> operands) {
  SeqCycleResult r;
  step_cycle_batch(operands, 1, {&r, 1});
  return r;
}

SeqCycleResult SeqSim::step_cycle(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t ops[2] = {a, b};
  return step_cycle(std::span<const std::uint64_t>(ops, 2));
}

void SeqSim::golden_output_batch(std::span<const std::uint64_t> operands,
                                 std::size_t count, std::uint64_t* out) {
  // `out` carries the per-cycle bus word between stages: after stage k
  // it holds stage k's golden output for every cycle of the chunk (the
  // golden composition is zero-latency within a cycle).
  for (std::size_t k = 0; k < seq_.stages.size(); ++k) {
    const Netlist& nl = seq_.stages[k].netlist;
    pi_words_.assign(nl.primary_inputs().size(), 0);
    if (k == 0)
      pins_[0].scatter_lanes(operands, count, pi_words_);
    else
      lanes::scatter(out, 1, count, bank_slot_[k], pi_words_.data());
    golden_values_.resize(nl.num_nets());
    evaluate_logic_packed(nl, pi_words_, golden_values_);
    lanes::gather(golden_values_.data(), stage_po_net_[k], count, out, 1);
  }
}

void SeqSim::step_cycle_batch(std::span<const std::uint64_t> operands,
                              std::size_t count,
                              std::span<SeqCycleResult> results) {
  VOSIM_EXPECTS(replay_ == nullptr);
  run_cycles(operands, count, results);
}

void SeqSim::run_cycles(std::span<const std::uint64_t> operands,
                        std::size_t count,
                        std::span<SeqCycleResult> results) {
  const std::size_t nops = seq_.num_operands();
  VOSIM_EXPECTS(operands.size() == count * nops);
  VOSIM_EXPECTS(results.size() >= count);
  const std::size_t stages = engines_.size();
  // Chunk at one lane word (64 cycles): every levelized pass runs full
  // and the golden composition evaluates the chunk as one packed word.
  std::size_t done = 0;
  while (done < count) {
    const std::size_t chunk = std::min(lanes::kWordLanes, count - done);
    const auto chunk_ops = operands.subspan(done * nops, chunk * nops);
    batch_golden_.resize(chunk);
    golden_output_batch(chunk_ops, chunk, batch_golden_.data());

    // Stage by stage: stage k's cycle-c bank latches stage k-1's sample
    // from cycle c-1 (cycle 0 latches the carried stage_sampled_), so a
    // full chunk of stage k-1 samples — shifted by one cycle — is
    // exactly stage k's operand stream for the whole chunk.
    const std::size_t row = chunk + 1;
    batch_results_.resize(stages * chunk);
    batch_sampled_w_.resize(stages * row);
    batch_shadow_w_.resize(stages * chunk);
    for (std::size_t k = 0; k < stages; ++k) {
      pi_words_.assign(seq_.stages[k].netlist.primary_inputs().size(), 0);
      if (k == 0)
        pins_[0].scatter_lanes(chunk_ops, chunk, pi_words_);
      else
        lanes::scatter(&batch_sampled_w_[(k - 1) * row], 1, chunk,
                       bank_slot_[k], pi_words_.data());
      const std::span<StepResult> st(&batch_results_[k * chunk], chunk);
      engines_[k]->step_cycle_batch(pi_words_, chunk, st);
      std::uint64_t* sampled = &batch_sampled_w_[k * row];
      sampled[0] = stage_sampled_[k];
      for (std::size_t c = 0; c < chunk; ++c) {
        sampled[c + 1] = pins_[k].gather_output(st[c].sampled_outputs);
        batch_shadow_w_[k * chunk + c] =
            pins_[k].gather_output(st[c].settled_outputs);
      }
    }

    // Per-cycle composition: energy terms added stage by stage,
    // monitors fed cycle-ascending, golden queue pushed and popped once
    // per cycle.
    for (std::size_t c = 0; c < chunk; ++c) {
      SeqCycleResult& r = results[done + c];
      r = SeqCycleResult{};
      r.energy_fj = clock_energy_fj_;
      for (std::size_t k = 0; k < stages; ++k) {
        const StepResult& st = batch_results_[k * chunk + c];
        const std::uint64_t diff = batch_sampled_w_[k * row + c + 1] ^
                                   batch_shadow_w_[k * chunk + c];
        monitors_[k].record_word(diff);
        if (diff != 0) r.razor_flags |= 1u << k;
        r.energy_fj += st.window_energy_fj + stage_leak_fj_[k];
        r.max_settle_ps = std::max(r.max_settle_ps, st.settle_time_ps);
      }
      r.captured = batch_sampled_w_[(stages - 1) * row + c + 1];
      golden_.push_back(batch_golden_[c]);
      if (golden_.size() == latency_cycles()) {
        r.expected = golden_.front();
        golden_.pop_front();
        r.output_valid = true;
      }
      ++cycles_;
    }
    for (std::size_t k = 0; k < stages; ++k)
      stage_sampled_[k] = batch_sampled_w_[k * row + chunk];
    done += chunk;
  }
}

bool SeqSim::stage_settled(std::size_t k,
                           std::span<const lanes::Word> bits) {
  const Netlist& nl = seq_.stages[k].netlist;
  const auto value = [&](NetId n) {
    return bits[n / lanes::kWordLanes] >> (n % lanes::kWordLanes) & 1;
  };
  const auto pis = nl.primary_inputs();
  pi_words_.resize(pis.size());
  for (std::size_t j = 0; j < pis.size(); ++j) pi_words_[j] = value(pis[j]);
  golden_values_.resize(nl.num_nets());
  evaluate_logic_packed(nl, pi_words_, golden_values_);
  for (NetId n = 0; n < nl.num_nets(); ++n)
    if (((golden_values_[n] ^ value(n)) & 1) != 0) return false;
  return true;
}

bool SeqSim::save_checkpoint(SeqRecording& rec) {
  const std::size_t base = rec.nets_.size();
  rec.nets_.resize(base + state_offset_.back());
  bool settled = true;
  for (std::size_t k = 0; k < engines_.size(); ++k) {
    const std::span<lanes::Word> bits(
        rec.nets_.data() + base + state_offset_[k],
        state_offset_[k + 1] - state_offset_[k]);
    VOSIM_EXPECTS(engines_[k]->save_carried_state(bits));
    settled = settled && stage_settled(k, bits);
  }
  rec.banks_.insert(rec.banks_.end(), stage_sampled_.begin(),
                    stage_sampled_.end());
  for (std::size_t i = 0; i + 1 < latency_cycles(); ++i)
    rec.golden_.push_back(i < golden_.size() ? golden_[i] : 0);
  return settled;
}

void SeqSim::restore_checkpoint(const SeqRecording& rec, std::size_t w) {
  const std::size_t stages = engines_.size();
  const lanes::Word* nets = rec.nets_.data() + w * state_offset_.back();
  for (std::size_t k = 0; k < stages; ++k)
    VOSIM_EXPECTS(engines_[k]->restore_carried_state(
        {nets + state_offset_[k], state_offset_[k + 1] - state_offset_[k]}));
  std::copy_n(rec.banks_.begin() + static_cast<std::ptrdiff_t>(w * stages),
              stages, stage_sampled_.begin());
  // The queue holds the goldens of the last latency − 1 cycles (fewer
  // only while the stream is shorter than that).
  const std::size_t slots = latency_cycles() - 1;
  const std::size_t exit_cycle =
      std::min((w + 1) * lanes::kWordLanes, rec.results_.size());
  const auto first =
      rec.golden_.begin() + static_cast<std::ptrdiff_t>(w * slots);
  const auto kept = static_cast<std::ptrdiff_t>(std::min(slots, exit_cycle));
  golden_.assign(first, first + kept);
}

bool SeqSim::matches_checkpoint(const SeqRecording& rec, std::size_t w) {
  const std::size_t stages = engines_.size();
  for (std::size_t k = 0; k < stages; ++k)
    VOSIM_EXPECTS(engines_[k]->save_carried_state(
        {state_bits_.data() + state_offset_[k],
         state_offset_[k + 1] - state_offset_[k]}));
  const auto nets = rec.nets_.begin() +
                    static_cast<std::ptrdiff_t>(w * state_offset_.back());
  const auto banks =
      rec.banks_.begin() + static_cast<std::ptrdiff_t>(w * stages);
  return std::equal(state_bits_.begin(), state_bits_.end(), nets) &&
         std::equal(stage_sampled_.begin(), stage_sampled_.end(), banks);
}

SeqRecording SeqSim::record_cycle_batch(
    std::span<const std::uint64_t> operands, std::size_t count) {
  const std::size_t nops = seq_.num_operands();
  const std::size_t stages = engines_.size();
  VOSIM_EXPECTS(operands.size() == count * nops);
  VOSIM_EXPECTS(cycles_ == 0 && replay_ == nullptr);
  SeqRecording rec;
  rec.capture_ps_ = capture_tclk_ps_;
  rec.results_.resize(count);
  rec.stage_window_fj_.resize(count * stages);
  bool settled = true;  // reset() settles every stage
  for (std::size_t first = 0; first < count; first += lanes::kWordLanes) {
    const std::size_t n = std::min(lanes::kWordLanes, count - first);
    run_cycles(operands.subspan(first * nops, n * nops), n,
               std::span<SeqCycleResult>(rec.results_).subspan(first, n));
    double latest = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      latest = std::max(latest, rec.results_[first + c].max_settle_ps);
      for (std::size_t k = 0; k < stages; ++k)
        rec.stage_window_fj_[(first + c) * stages + k] =
            batch_results_[k * n + c].window_energy_fj;
    }
    rec.latest_commit_ps_.push_back(latest);
    rec.entered_settled_.push_back(settled ? 1 : 0);
    settled = save_checkpoint(rec);
  }
  return rec;
}

void SeqSim::replay_cycle_batch(const SeqRecording& rec,
                                std::span<const std::uint64_t> operands,
                                std::size_t count,
                                std::span<SeqCycleResult> results) {
  const std::size_t nops = seq_.num_operands();
  const std::size_t stages = engines_.size();
  const std::size_t total = rec.results_.size();
  VOSIM_EXPECTS(operands.size() == count * nops);
  VOSIM_EXPECTS(results.size() >= count);
  VOSIM_EXPECTS(capture_tclk_ps_ <= rec.capture_ps_);
  VOSIM_EXPECTS(cycles_ % lanes::kWordLanes == 0);
  VOSIM_EXPECTS(cycles_ + count <= total);
  if (cycles_ == 0 && replay_ == nullptr) {
    VOSIM_EXPECTS(engine_kind() == EngineKind::kLevelized);
    replay_ = &rec;
    replay_synced_ = true;  // both runs start from reset()
  }
  VOSIM_EXPECTS(replay_ == &rec);
  static obs::Counter& reused_counter =
      obs::metrics().counter("sim.seq.reused_cycles");
  std::size_t done = 0;
  while (done < count) {
    const std::size_t w = cycles_ / lanes::kWordLanes;
    const std::size_t first = w * lanes::kWordLanes;
    const std::size_t n = std::min(lanes::kWordLanes, total - first);
    VOSIM_EXPECTS(count - done >= n);
    const std::span<SeqCycleResult> out = results.subspan(done, n);
    if (replay_synced_ && rec.entered_settled_[w] != 0 &&
        rec.latest_commit_ps_[w] < capture_tclk_ps_) {
      // Every cycle of the word ends settled, so no stage flags: the
      // monitors see the zero difference words step_cycle_batch feeds.
      for (std::size_t c = 0; c < n; ++c) {
        SeqCycleResult& r = out[c];
        r = rec.results_[first + c];
        r.energy_fj = clock_energy_fj_;
        for (std::size_t k = 0; k < stages; ++k) {
          r.energy_fj +=
              rec.stage_window_fj_[(first + c) * stages + k] +
              stage_leak_fj_[k];
          monitors_[k].record_word(0);
        }
      }
      cycles_ += n;
      replay_lagging_ = true;
      reused_counter.add(n);
    } else {
      if (replay_lagging_) {
        restore_checkpoint(rec, w - 1);
        replay_lagging_ = false;
      }
      run_cycles(operands.subspan(done * nops, n * nops), n, out);
      replay_synced_ = first + n < total && matches_checkpoint(rec, w);
    }
    done += n;
  }
}

}  // namespace vosim
