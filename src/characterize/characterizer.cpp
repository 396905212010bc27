#include "src/characterize/characterizer.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>

#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_sim.hpp"
#include "src/sim/levelized_sim.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/parallel.hpp"

namespace vosim {

namespace {

/// The shared stimulus sequence, flattened pattern-major (pattern p's
/// operands at [p*nops, (p+1)*nops)): patterns[0] settles the initial
/// state, patterns[1..num_patterns] are streamed — identical at every
/// triad (paper testbench), generated once per sweep instead of per
/// triad.
std::vector<std::uint64_t> generate_patterns(
    const CharacterizeConfig& config, const DutNetlist& dut) {
  const std::size_t nops = dut.num_operands();
  std::vector<std::uint64_t> pats((config.num_patterns + 1) * nops);
  DutPatternStream stream(dut.operand_widths(), config.pattern_seed);
  for (std::size_t p = 0; p <= config.num_patterns; ++p)
    stream.next({pats.data() + p * nops, nops});
  return pats;
}

/// Reference output for one pattern: the user-provided golden function,
/// or the DUT's own settled value (timing errors only — correct for
/// approximate units and non-adders alike).
std::uint64_t golden_of(const CharacterizeConfig& config,
                        std::span<const std::uint64_t> ops,
                        std::uint64_t settled) {
  return config.golden ? config.golden(ops) : settled;
}

/// Fills the error fields of `res` from one triad's accumulated
/// (reference, sampled) pairs.
void set_error_metrics(TriadResult& res, const ErrorAccumulator& acc) {
  res.ber = acc.ber();
  res.bitwise_ber = acc.bitwise_error_probability();
  res.op_error_rate = acc.op_error_rate();
  res.mse = acc.mse();
  res.mred = acc.mred();
}

/// Grid fast path for the levelized engine: supply and body bias scale
/// every gate delay by one common factor (delay_scale), and the
/// levelized engine's inertial/glitch decisions are invariant under
/// that scaling — so the whole Tclk/Vdd/Vbb grid shares one normalized
/// timing structure per die. One step_batch_sweep pass evaluates every
/// pattern against all triads at once: triad t becomes capture
/// threshold tclk·scale_ref/scale_t, with window energy scaled by
/// (Vdd/Vdd_ref)² and leakage computed per triad. The pattern stream
/// is split into at most four segments with exact warm starts (the
/// streaming state is purely functional: the previous pattern's settled
/// values), so every segment simulates exactly what the sequential
/// chain would. The per-segment energy and settle sums merge in segment
/// order, so the split is part of the result: it is fixed by the
/// pattern count, and the results are the same bits at every thread
/// count. Nothing in the pass depends on the DUT being an adder — the
/// same code serves multipliers and MAC trees.
std::vector<TriadResult> characterize_levelized_sweep(
    const DutNetlist& dut, const CellLibrary& lib,
    const std::vector<OperatingTriad>& triads,
    const CharacterizeConfig& config,
    std::span<const std::uint64_t> pats) {
  const std::size_t nthr = triads.size();
  const std::size_t num_patterns = config.num_patterns;
  const TransistorModel& tm = lib.transistor_model();

  const OperatingTriad ref{1.0, 1.0, 0.0};
  const double scale_ref = tm.delay_scale(ref.vdd_v, ref.vbb_v);
  const double leak_nw_base = dut.netlist.cell_leakage_nw(lib);

  std::vector<double> tau(nthr);     // threshold in the ref time base
  std::vector<double> escale(nthr);  // dynamic-energy scale vs ref
  std::vector<double> sscale(nthr);  // settle-time scale vs ref
  std::vector<double> leak_fj(nthr);
  for (std::size_t t = 0; t < nthr; ++t) {
    const OperatingTriad& op = triads[t];
    const double s_t = tm.delay_scale(op.vdd_v, op.vbb_v);
    tau[t] = op.tclk_ns * 1e3 * scale_ref / s_t;
    escale[t] = (op.vdd_v / ref.vdd_v) * (op.vdd_v / ref.vdd_v);
    sscale[t] = s_t / scale_ref;
    leak_fj[t] = leak_nw_base * tm.leakage_scale(op.vdd_v, op.vbb_v) *
                 1e-3 * op.tclk_ns * 1e3 * 1e-3;
  }
  std::vector<std::size_t> order(nthr);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return tau[x] < tau[y]; });
  std::vector<double> sorted_tau(nthr);
  std::vector<std::size_t> pos(nthr);  // triad -> sorted position
  for (std::size_t j = 0; j < nthr; ++j) {
    sorted_tau[j] = tau[order[j]];
    pos[order[j]] = j;
  }

  // The same operand-scatter / output-gather mapping VosDutSim uses, so
  // the fast path cannot diverge from the per-triad path.
  const DutPinMap pins(dut);
  const std::size_t nops = pins.num_operands();
  const int out_bits = pins.output_width();
  const std::size_t npis = dut.netlist.primary_inputs().size();

  // Segment the stream across the pool; each segment is large enough
  // to amortize its simulator construction. The segment boundaries fix
  // the floating-point merge order of the per-segment partials, so the
  // split depends on the pattern count alone: config.threads only caps
  // how many pool threads run the segments, and every thread count
  // gives the same bits.
  constexpr std::size_t kChunk = LevelizedSimulator::kLanes;
  constexpr std::size_t kMinSeg = 256;
  constexpr std::size_t kMaxSegs = 4;
  const std::size_t nseg =
      std::clamp<std::size_t>(num_patterns / kMinSeg, 1, kMaxSegs);

  struct Partial {
    ErrorAccumulator acc;
    double energy = 0.0;
    double dyn = 0.0;
    double settle = 0.0;
  };
  std::vector<std::vector<Partial>> parts(nseg);
  for (auto& seg : parts) {
    seg.reserve(nthr);
    for (std::size_t t = 0; t < nthr; ++t)
      seg.push_back(Partial{ErrorAccumulator(out_bits), 0.0, 0.0, 0.0});
  }

  parallel_for(
      nseg,
      [&](std::size_t s) {
        // Stream indices [begin, end) of patterns; begin-1 settles.
        const std::size_t begin = 1 + s * num_patterns / nseg;
        const std::size_t end = 1 + (s + 1) * num_patterns / nseg;

        TimingSimConfig sim_cfg;
        sim_cfg.variation_sigma = config.variation_sigma;
        sim_cfg.variation_seed = config.variation_seed;
        LevelizedSimulator eng(dut.netlist, lib, ref, sim_cfg);

        std::vector<lanes::Word> words(npis);
        pins.scatter_lanes({pats.data() + (begin - 1) * nops, nops}, 1,
                           words);
        eng.reset(words);

        std::vector<StepResult> res(kChunk * nthr);
        std::vector<Partial>& seg = parts[s];

        for (std::size_t c = begin; c < end; c += kChunk) {
          const std::size_t n = std::min(kChunk, end - c);
          pins.scatter_lanes({pats.data() + c * nops, n * nops}, n, words);
          eng.step_batch_sweep(words, n, sorted_tau, res);
          for (std::size_t i = 0; i < n; ++i) {
            const std::span<const std::uint64_t> ops{
                pats.data() + (c + i) * nops, nops};
            // Settled outputs are functional, hence identical across
            // the thresholds of one pattern — read them once.
            const std::uint64_t settled =
                pins.gather_output(res[i * nthr].settled_outputs);
            const std::uint64_t golden =
                golden_of(config, ops, settled);
            for (std::size_t t = 0; t < nthr; ++t) {
              const StepResult& st = res[i * nthr + pos[t]];
              const std::uint64_t sampled =
                  pins.gather_output(st.sampled_outputs);
              Partial& acc = seg[t];
              acc.acc.add(golden, sampled);
              const double win = st.window_energy_fj * escale[t];
              acc.energy += win + leak_fj[t];
              acc.dyn += win;
              acc.settle += st.settle_time_ps * sscale[t];
            }
          }
        }
      },
      config.threads);

  std::vector<TriadResult> results(nthr);
  for (std::size_t t = 0; t < nthr; ++t) {
    ErrorAccumulator merged(out_bits);
    double energy = 0.0;
    double dyn = 0.0;
    double settle = 0.0;
    for (std::size_t s = 0; s < nseg; ++s) {
      merged.merge(parts[s][t].acc);
      energy += parts[s][t].energy;
      dyn += parts[s][t].dyn;
      settle += parts[s][t].settle;
    }
    TriadResult& res = results[t];
    res.triad = triads[t];
    set_error_metrics(res, merged);
    const auto n = static_cast<double>(num_patterns);
    res.energy_per_op_fj = energy / n;
    res.dynamic_energy_fj = dyn / n;
    res.leakage_energy_fj = leak_fj[t];
    res.mean_settle_ps = settle / n;
    res.patterns = num_patterns;
  }
  return results;
}

/// A replay whose first lane word flags at least this share of its
/// operations is far past the error-onset knee (register feedback makes
/// onset a cliff) and is scored from that word alone. Estimates stay
/// unbiased; only the sample count shrinks. A true rate under ~12% has
/// vanishing probability of reading 0.25 on 62 samples, so the
/// event-vs-levelized conformance band never trips the probe.
constexpr double kSeqSaturationRate = 0.25;

/// Sequential grid fast path for the levelized engine — the clocked
/// analogue of characterize_levelized_sweep. Supply and body bias scale
/// every gate delay by one common factor, so the whole Tclk/Vdd/Vbb
/// grid maps onto ONE normalized pipeline (the reference die at Vdd
/// 1.0 / Vbb 0.0) whose capture threshold slides to
///   tau[t] = (Tclk_t − t_setup)·1e3 · scale_ref / scale_t.
/// Unlike the combinational sweep, cycle trajectories feed back through
/// the registers, so different thresholds cannot share one timing pass
/// — but the largest threshold's trajectory is the settled (error-free)
/// pipeline, and its worst normalized commit time bounds every commit
/// of every cycle: a triad whose tau exceeds that bound provably never
/// truncates (by induction over cycles its trajectory IS the reference
/// one), so its result is synthesized from the reference aggregates —
/// BER exactly 0, dynamic energy and settle rescaled. The remaining
/// (error-onset and beyond) triads replay on per-worker normalized
/// pipelines via SeqSim::retarget_capture_ps, skipping the per-triad
/// die rebuild, against the recorded reference run
/// (SeqSim::replay_cycle_batch): a lane word the reference entered
/// settled and never crossed the replay's capture edge in is copied,
/// bit-exact, instead of simulated. Error counts match the per-triad
/// path up to delay-product rounding at the window boundary and
/// energies to FP rescaling — the same caveats the combinational fast
/// path carries.
std::vector<TriadResult> characterize_seq_levelized_norm(
    const SeqDut& seq, const CellLibrary& lib,
    const std::vector<OperatingTriad>& triads,
    const CharacterizeConfig& config,
    std::span<const std::uint64_t> pats) {
  const std::size_t nthr = triads.size();
  const std::size_t nops = seq.num_operands();
  const TransistorModel& tm = lib.transistor_model();
  const double scale_ref = tm.delay_scale(1.0, 0.0);
  const double setup_ns = lib.dff_setup_ps() * 1e-3;

  double leak_nw_base = 0.0;
  for (const DutNetlist& st : seq.stages)
    leak_nw_base += st.netlist.cell_leakage_nw(lib);

  std::vector<double> tau(nthr);      // capture threshold, ref time base
  std::vector<double> escale(nthr);   // dynamic-energy scale vs ref
  std::vector<double> sscale(nthr);   // settle-time scale vs ref
  std::vector<double> leak_fj(nthr);  // per-cycle leakage, full period
  std::vector<double> clock_fj(nthr);
  std::size_t ref_t = 0;
  for (std::size_t t = 0; t < nthr; ++t) {
    const OperatingTriad& op = triads[t];
    VOSIM_EXPECTS(op.tclk_ns > setup_ns);
    const double s_t = tm.delay_scale(op.vdd_v, op.vbb_v);
    tau[t] = (op.tclk_ns - setup_ns) * 1e3 * scale_ref / s_t;
    escale[t] = op.vdd_v * op.vdd_v;
    sscale[t] = s_t / scale_ref;
    leak_fj[t] = leak_nw_base * tm.leakage_scale(op.vdd_v, op.vbb_v) *
                 1e-3 * op.tclk_ns * 1e3 * 1e-3;
    clock_fj[t] = seq_clock_energy_fj(seq, lib, op.vdd_v);
    if (tau[t] > tau[ref_t]) ref_t = t;
  }

  TimingSimConfig sim_cfg;
  sim_cfg.variation_sigma = config.variation_sigma;
  sim_cfg.variation_seed = config.variation_seed;
  sim_cfg.engine = EngineKind::kLevelized;
  // Constructed above the largest threshold, then pinned exactly.
  const OperatingTriad norm{tau[ref_t] * 1e-3 + setup_ns, 1.0, 0.0};

  std::vector<TriadResult> results(nthr);
  const std::size_t latency = seq.latency_cycles();
  const std::size_t cycles = config.num_patterns + latency - 1;
  std::vector<std::uint64_t> ops(cycles * nops, 0);
  std::copy(pats.begin(), pats.end(), ops.begin());

  // A saturated threshold is recognizable from its first lane word:
  // past the onset cliff the op-error rate is high enough that 62-odd
  // samples pin it, and the full budget adds nothing but wall clock.
  const bool probe_enabled = cycles > lanes::kWordLanes &&
                             latency <= lanes::kWordLanes;

  // Aggregates of one normalized run, folded in cycle order, in the ref
  // time/energy base.
  struct RunSums {
    ErrorAccumulator acc;
    double dyn = 0.0;
    double settle = 0.0;
    double worst = 0.0;
    std::size_t cycles = 0;

    void add(std::span<const SeqCycleResult> rs, double const_fj) {
      for (const SeqCycleResult& r : rs) {
        dyn += r.energy_fj - const_fj;
        settle += r.max_settle_ps;
        worst = std::max(worst, r.max_settle_ps);
        if (r.output_valid) acc.add(r.expected, r.captured);
      }
      cycles += rs.size();
    }
  };
  // Rescales a run at tau[t] into the triad's own units.
  const auto score = [&](std::size_t t, const RunSums& sums) {
    TriadResult& res = results[t];
    res.triad = triads[t];
    set_error_metrics(res, sums.acc);
    const auto n = static_cast<double>(sums.cycles);
    res.energy_per_op_fj =
        sums.dyn * escale[t] / n + leak_fj[t] + clock_fj[t];
    res.dynamic_energy_fj = sums.dyn * escale[t] / n + clock_fj[t];
    res.leakage_energy_fj = leak_fj[t];
    res.mean_settle_ps = sums.settle * sscale[t] / n;
    res.patterns = sums.cycles - latency + 1;
  };
  const auto const_fj = [](const SeqSim& sim) {
    return sim.leakage_energy_fj_per_cycle() +
           sim.clock_energy_fj_per_cycle();
  };

  // Phase 1: the reference (largest-threshold) run bounds every commit
  // and is recorded for the replays. It always spends the full budget:
  // its trajectory and worst commit seed every synthesized triad.
  double worst_norm = 0.0;
  const SeqRecording rec = [&] {
    SeqSim sim(seq, lib, norm, sim_cfg);
    sim.retarget_capture_ps(tau[ref_t]);
    sim.reset();
    SeqRecording recorded = sim.record_cycle_batch(ops, cycles);
    RunSums sums{ErrorAccumulator(sim.output_width())};
    sums.add(recorded.results(), const_fj(sim));
    score(ref_t, sums);
    worst_norm = sums.worst;
    return recorded;
  }();
  const TriadResult& ref_res = results[ref_t];

  // Phase 2: classify. Provably truncation-free triads reuse the
  // reference trajectory's aggregates (their own run would retrace it
  // commit for commit); the rest replay against the recording, sharded
  // across the pool with one normalized pipeline per worker.
  std::vector<std::size_t> active;
  for (std::size_t t = 0; t < nthr; ++t) {
    if (t == ref_t) continue;
    if (tau[t] > worst_norm * (1.0 + 1e-9)) {
      TriadResult& res = results[t];
      res = ref_res;
      res.triad = triads[t];
      const auto n = static_cast<double>(cycles);
      const double dyn =
          (ref_res.dynamic_energy_fj - clock_fj[ref_t]) * n /
          escale[ref_t];
      res.energy_per_op_fj =
          dyn * escale[t] / n + leak_fj[t] + clock_fj[t];
      res.dynamic_energy_fj = dyn * escale[t] / n + clock_fj[t];
      res.leakage_energy_fj = leak_fj[t];
      res.mean_settle_ps =
          ref_res.mean_settle_ps / sscale[ref_t] * sscale[t];
    } else {
      active.push_back(t);
    }
  }

  // A replay folds its results one lane word at a time. Its first word
  // is the saturation probe: a saturated triad is scored from it alone.
  const auto replay = [&](SeqSim& sim, std::size_t t) {
    sim.retarget_capture_ps(tau[t]);
    sim.reset();
    const double cfj = const_fj(sim);
    RunSums sums{ErrorAccumulator(sim.output_width())};
    std::array<SeqCycleResult, lanes::kWordLanes> buf;
    for (std::size_t first = 0; first < cycles;
         first += lanes::kWordLanes) {
      const std::size_t n = std::min(lanes::kWordLanes, cycles - first);
      sim.replay_cycle_batch(rec, {ops.data() + first * nops, n * nops}, n,
                             buf);
      sums.add({buf.data(), n}, cfj);
      if (first == 0 && probe_enabled &&
          sums.acc.op_error_rate() >= kSeqSaturationRate)
        break;
    }
    score(t, sums);
  };
  if (!active.empty()) {
    const unsigned workers =
        config.threads == 0 ? hardware_parallelism() : config.threads;
    const std::size_t nshard = std::clamp<std::size_t>(
        std::min<std::size_t>(workers, active.size()), 1, 64);
    parallel_for(
        nshard,
        [&](std::size_t s) {
          SeqSim sim(seq, lib, norm, sim_cfg);
          for (std::size_t i = s; i < active.size(); i += nshard)
            replay(sim, active[i]);
        },
        config.threads);
  }
  return results;
}

}  // namespace

std::vector<TriadResult> characterize_dut(
    const DutNetlist& dut, const CellLibrary& lib,
    const std::vector<OperatingTriad>& triads,
    const CharacterizeConfig& config) {
  VOSIM_EXPECTS(!triads.empty());
  VOSIM_EXPECTS(config.num_patterns > 0);

  const std::vector<std::uint64_t> pats = generate_patterns(config, dut);
  const std::size_t nops = dut.num_operands();

  // Provenance needs observer dispatch, which the multi-threshold
  // sweep pass does not do — route those sweeps to the per-triad loop.
  if (config.engine == EngineKind::kLevelized && !config.provenance)
    return characterize_levelized_sweep(dut, lib, triads, config, pats);

  std::vector<TriadResult> results(triads.size());
  std::vector<std::unique_ptr<ErrorProvenance>> provs(
      config.provenance ? triads.size() : 0);

  // One persistent pool across the whole grid (and across repeated
  // sweeps in the same process): triads are the parallel unit, patterns
  // stream through each simulator in batches.
  parallel_for(
      triads.size(),
      [&](std::size_t t) {
        const OperatingTriad& op = triads[t];
        TimingSimConfig sim_cfg;
        sim_cfg.variation_sigma = config.variation_sigma;
        sim_cfg.variation_seed = config.variation_seed;
        sim_cfg.engine = config.engine;
        VosDutSim sim(dut, lib, op, sim_cfg);
        if (config.provenance) {
          provs[t] = std::make_unique<ErrorProvenance>(dut);
          sim.engine().attach_observer(provs[t].get());
        }

        ErrorAccumulator acc(sim.output_width());
        double energy = 0.0;
        double dyn = 0.0;
        double settle = 0.0;

        // Establish a settled initial state from the first pattern.
        sim.reset({pats.data(), nops});

        constexpr std::size_t kBatch = 256;  // patterns per apply_batch
        std::vector<VosOpResult> r_buf(kBatch);

        std::size_t done = 0;
        while (done < config.num_patterns) {
          const std::size_t n =
              std::min(kBatch, config.num_patterns - done);
          const std::span<const std::uint64_t> ops_flat{
              pats.data() + (1 + done) * nops, n * nops};
          sim.apply_batch(ops_flat, n, {r_buf.data(), n});
          for (std::size_t i = 0; i < n; ++i) {
            const VosOpResult& r = r_buf[i];
            const std::span<const std::uint64_t> ops =
                ops_flat.subspan(i * nops, nops);
            acc.add(golden_of(config, ops, r.settled), r.sampled);
            energy += r.energy_fj;
            dyn += r.energy_fj - sim.leakage_energy_fj();
            settle += r.settle_time_ps;
          }
          done += n;
        }

        TriadResult& res = results[t];
        res.triad = op;
        set_error_metrics(res, acc);
        const auto n = static_cast<double>(config.num_patterns);
        res.energy_per_op_fj = energy / n;
        res.dynamic_energy_fj = dyn / n;
        res.leakage_energy_fj = sim.leakage_energy_fj();
        res.mean_settle_ps = settle / n;
        res.patterns = config.num_patterns;
        if (config.provenance) {
          res.provenance = provs[t]->summary();
          if (res.provenance.culprits.size() > config.top_culprits)
            res.provenance.culprits.resize(config.top_culprits);
        }
      },
      config.threads);

  if (config.provenance) {
    // One sweep-wide roll-up into the process metrics registry.
    for (std::size_t t = 1; t < provs.size(); ++t)
      provs[0]->merge(*provs[t]);
    provs[0]->publish("provenance.comb", config.top_culprits);
  }
  return results;
}

std::vector<TriadResult> characterize_seq_dut(
    const SeqDut& seq, const CellLibrary& lib,
    const std::vector<OperatingTriad>& triads,
    const CharacterizeConfig& config) {
  VOSIM_EXPECTS(!triads.empty());
  VOSIM_EXPECTS(config.num_patterns > 0);

  // The shared stimulus sequence over the pipeline's external operands
  // (stage 0's buses) — identical at every triad, like the
  // combinational sweep.
  const std::size_t nops = seq.num_operands();
  std::vector<std::uint64_t> pats(config.num_patterns * nops);
  DutPatternStream stream(seq.operand_widths(), config.pattern_seed);
  for (std::size_t p = 0; p < config.num_patterns; ++p)
    stream.next({pats.data() + p * nops, nops});

  // Levelized grids ride the normalized fast path (one die, sliding
  // capture threshold). Provenance forces the per-triad loop below: the
  // normalized replay retargets one shared pipeline and never
  // dispatches observers.
  if (config.engine == EngineKind::kLevelized && !config.provenance)
    return characterize_seq_levelized_norm(seq, lib, triads, config,
                                           pats);

  std::vector<TriadResult> results(triads.size());
  std::vector<std::vector<std::unique_ptr<ErrorProvenance>>> sprovs(
      config.provenance ? triads.size() : 0);
  parallel_for(
      triads.size(),
      [&](std::size_t t) {
        TimingSimConfig sim_cfg;
        sim_cfg.variation_sigma = config.variation_sigma;
        sim_cfg.variation_seed = config.variation_seed;
        sim_cfg.engine = config.engine;
        SeqSim sim(seq, lib, triads[t], sim_cfg);
        if (config.provenance) {
          // One ErrorProvenance per stage, labelled "s<k>:" so culprit
          // names identify the stage.
          auto& sv = sprovs[t];
          sv.reserve(sim.num_stages());
          for (std::size_t k = 0; k < sim.num_stages(); ++k) {
            const DutPinMap spins(seq.stages[k]);
            sv.push_back(std::make_unique<ErrorProvenance>(
                seq.stages[k].netlist, spins, static_cast<int>(k)));
            sim.stage_engine(k).attach_observer(sv[k].get());
          }
        }

        ErrorAccumulator acc(sim.output_width());
        double energy = 0.0;
        double settle = 0.0;
        const std::size_t cycles =
            config.num_patterns + sim.latency_cycles() - 1;
        // One contiguous clocked stream: the patterns plus zero-operand
        // flush cycles that drain the pipeline, batched through the
        // engines' cycle path (bit-exact however the stream is split).
        std::vector<std::uint64_t> ops(cycles * nops, 0);
        std::copy(pats.begin(), pats.end(), ops.begin());
        std::vector<SeqCycleResult> rs(cycles);
        sim.step_cycle_batch(ops, cycles, rs);
        for (std::size_t c = 0; c < cycles; ++c) {
          const SeqCycleResult& r = rs[c];
          energy += r.energy_fj;
          settle += r.max_settle_ps;
          if (r.output_valid) acc.add(r.expected, r.captured);
        }

        TriadResult& res = results[t];
        res.triad = triads[t];
        set_error_metrics(res, acc);
        const auto n = static_cast<double>(cycles);
        res.energy_per_op_fj = energy / n;
        res.dynamic_energy_fj =
            energy / n - sim.leakage_energy_fj_per_cycle();
        res.leakage_energy_fj = sim.leakage_energy_fj_per_cycle();
        res.mean_settle_ps = settle / n;
        res.patterns = config.num_patterns;
        if (config.provenance) {
          std::vector<ProvenanceSummary> per_stage;
          per_stage.reserve(sprovs[t].size());
          for (const auto& p : sprovs[t])
            per_stage.push_back(p->summary());
          res.provenance =
              combine_stage_summaries(per_stage, config.top_culprits);
        }
      },
      config.threads);

  if (config.provenance) {
    // Sweep-wide roll-up per stage (stage netlists differ, so stages
    // merge only across triads, never with each other).
    for (std::size_t k = 0; k < sprovs[0].size(); ++k) {
      for (std::size_t t = 1; t < sprovs.size(); ++t)
        sprovs[0][k]->merge(*sprovs[t][k]);
      sprovs[0][k]->publish("provenance.seq.s" + std::to_string(k),
                            config.top_culprits);
    }
  }
  return results;
}

double energy_efficiency(double energy_fj, double baseline_fj) {
  VOSIM_EXPECTS(baseline_fj > 0.0);
  return 1.0 - energy_fj / baseline_fj;
}

}  // namespace vosim
