#include "src/sim/levelized_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "src/netlist/eval.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/probe.hpp"
#include "src/sim/lane_walk.hpp"
#include "src/sta/sta.hpp"
#include "src/tech/gate_timing.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {

namespace {

/// Accounting policy for one fixed clock threshold: per-lane SoA
/// accumulators (folded into StepResults by run_lanes — contiguous
/// arrays keep the hot commit loops cache-dense and vectorizable).
/// kWindowOnly drops the totals: cycle mode (step_cycle_batch) defines
/// totals == window ("nothing is simulated past the edge"), so tracking
/// both is pure waste there.
template <bool kWindowOnly>
struct SingleThresholdAcct {
  double tclk_ps;
  std::size_t nlanes;  ///< word sweeps stop here (1 for one-op passes)
  double* win_e;
  double* settle;
  std::uint32_t* win_t;
  double* tot_e;         // null when kWindowOnly
  std::uint32_t* tot_t;  // null when kWindowOnly

  /// Word-commit eligible: launch-edge (t = 0) commits account a whole
  /// lane word per call instead of per-lane commits.
  static constexpr bool kWordCommit = true;

  /// Σ toggles_total over the pass's lanes.
  std::uint64_t commits() const {
    const std::uint32_t* t = kWindowOnly ? win_t : tot_t;
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < nlanes; ++k) sum += t[k];
    return sum;
  }

  bool commit(NetId /*net*/, std::size_t k, double tc, double energy) {
    if constexpr (!kWindowOnly) {
      ++tot_t[k];
      tot_e[k] += energy;
    }
    settle[k] = std::max(settle[k], tc);
    if (tc < tclk_ps) {
      ++win_t[k];
      win_e[k] += energy;
      return true;
    }
    return false;
  }

  /// Word commit at t = 0 (primary-input launch commits): in-window by
  /// definition, and settle = max(settle, 0) is a no-op. The
  /// branchless lane sweep auto-vectorizes; inactive lanes contribute
  /// bitwise-identity no-ops — += 0.0 (the accumulators are sums of
  /// non-negative terms, never -0.0) and a tout self-assign — so each
  /// lane holds exactly what per-lane commit() calls would produce.
  void commit_word_zero(lanes::Word m, double energy, double* tout) {
    double* __restrict we = win_e;
    double* __restrict to = tout;
    std::uint32_t* __restrict wt = win_t;
    for (std::size_t k = 0; k < nlanes; ++k) {
      const bool a = ((m >> k) & 1ULL) != 0;
      we[k] += a ? energy : 0.0;
      to[k] = a ? 0.0 : to[k];
      wt[k] += static_cast<std::uint32_t>(a);
    }
    if constexpr (!kWindowOnly) {
      double* __restrict te = tot_e;
      std::uint32_t* __restrict tt = tot_t;
      for (std::size_t k = 0; k < nlanes; ++k) {
        const bool a = ((m >> k) & 1ULL) != 0;
        te[k] += a ? energy : 0.0;
        tt[k] += static_cast<std::uint32_t>(a);
      }
    }
  }
};

/// Accounting policy for a whole ascending threshold set: every commit
/// lands in the bucket of the first threshold it misses (an O(1) table
/// lookup, src/sim/threshold_buckets.hpp), so one prefix pass later
/// yields per-threshold window energy/toggle counts, and an
/// XOR-difference per primary output yields per-threshold sampled
/// words (a net's sampled value at τ is its stale value XOR the parity
/// of its commits before τ).
struct MultiThresholdAcct {
  static constexpr bool kWordCommit = false;  // every commit is bucketed
  static constexpr std::size_t kLanes = lanes::kWordLanes;

  const ThresholdBuckets& buckets;
  double* ediff;              // (nthr+1) × kLanes, bucket-major
  std::uint32_t* tdiff;       // (nthr+1) × kLanes
  lanes::Word* sdiff;         // nPO × (nthr+1)
  double* tot_e;              // per lane
  std::uint32_t* tot_t;       // per lane
  double* settle;             // per lane
  const std::int32_t* po_index;
  std::size_t nlanes;

  std::uint64_t commits() const {
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < nlanes; ++k) sum += tot_t[k];
    return sum;
  }

  bool commit(NetId net, std::size_t k, double tc, double energy) {
    const std::size_t b = buckets.bucket(tc);
    ediff[b * kLanes + k] += energy;
    ++tdiff[b * kLanes + k];
    tot_e[k] += energy;
    ++tot_t[k];
    settle[k] = std::max(settle[k], tc);
    const std::int32_t po = po_index[net];
    if (po >= 0)
      lanes::toggle_lane(
          sdiff[static_cast<std::size_t>(po) * (buckets.size() + 1) + b],
          k);
    return false;  // no single sampled word is maintained in sweep mode
  }
};

/// Work counts of one pass, tallied in a local (lane counts are popcounts
/// of the dispatch masks) and added to the metrics registry once per
/// pass, one relaxed add per nonzero count (DESIGN.md §12).
struct PassCounts {
  enum Kind : std::size_t {
    kCommits,  // Σ toggles_total over the pass's lanes
    kGates,    // gate visits
    kQuietGates,
    kScannedGates,  // cycle mode: gates resolved by the serial lane scan
    kSingleFlip,
    kTwoChanged,
    kThreeChanged,
    kPulseThrough,
    kChangedPulse,
    kBounce,
    kBounceChange,
    kGeneric,
    kCatchUp,
    kScannedLanes,    // cycle mode: lanes the serial scan resolves
    kLaunchMismatch,  // scanned lanes whose launch bit ≠ W[full]
    kTruncated,       // scanned-gate lanes ending sampled ≠ settled
    kKinds
  };
  std::uint64_t n[kKinds] = {};

  void add_lanes(Kind kind, lanes::Word m) {
    n[kind] += static_cast<std::uint64_t>(lanes::popcount(m));
  }

  void publish() const {
    static constexpr const char* kNames[kKinds] = {
        "sim.levelized.commits",
        "sim.levelized.gates",
        "sim.levelized.gates.quiet",
        "sim.levelized.gates.scanned",
        "sim.levelized.lanes.single_flip",
        "sim.levelized.lanes.two_changed",
        "sim.levelized.lanes.three_changed",
        "sim.levelized.lanes.pulse_through",
        "sim.levelized.lanes.changed_pulse",
        "sim.levelized.lanes.bounce",
        "sim.levelized.lanes.bounce_change",
        "sim.levelized.lanes.generic",
        "sim.levelized.lanes.catch_up",
        "sim.levelized.lanes.scanned",
        "sim.levelized.lanes.launch_mismatch",
        "sim.levelized.lanes.truncated"};
    static const std::array<obs::Counter*, kKinds> counters = [] {
      std::array<obs::Counter*, kKinds> c{};
      for (std::size_t i = 0; i < kKinds; ++i)
        c[i] = &obs::metrics().counter(kNames[i]);
      return c;
    }();
    for (std::size_t i = 0; i < kKinds; ++i)
      if (n[i] != 0) counters[i]->add(n[i]);
  }
};

}  // namespace

LevelizedSimulator::LevelizedSimulator(const Netlist& netlist,
                                       const CellLibrary& lib,
                                       const OperatingTriad& op,
                                       const TimingSimConfig& config)
    : netlist_(netlist), op_(op) {
  VOSIM_EXPECTS(netlist.finalized());
  VOSIM_EXPECTS(op.tclk_ns > 0.0);
  VOSIM_EXPECTS(config.variation_sigma >= 0.0);
  VOSIM_EXPECTS(config.delay_scale > 0.0);
  VOSIM_EXPECTS(config.leakage_scale > 0.0);
  tclk_ps_ = op.tclk_ns * 1e3;

  const std::vector<double> loads = netlist.compute_net_loads(lib);
  const TransistorModel& tm = lib.transistor_model();

  // Identical delay assignment (and variation-sample sequence) to the
  // event engine: a given (sigma, seed) names the same die under both
  // backends, so cross-backend comparisons see one circuit. The
  // triad's delay scale is gate-independent, so it is evaluated once
  // (same product, bit-identical to gate_delay_ps per gate).
  gate_delay_ps_.resize(netlist.num_gates());
  Rng vrng(config.variation_seed);
  const double dscale = tm.delay_scale(op_.vdd_v, op_.vbb_v);
  for (GateId gid = 0; gid < netlist.num_gates(); ++gid) {
    const Gate& g = netlist.gate(gid);
    const Cell& cell = lib.cell(g.kind);
    const double nominal_ps =
        cell.intrinsic_delay_ps + cell.drive_ps_per_ff * loads[g.out];
    // Same product order as the event engine ((nominal·triad)·die·var),
    // so a (scale, sigma, seed) tuple names one die under both backends.
    double d = nominal_ps * dscale * config.delay_scale;
    if (config.variation_sigma > 0.0)
      d *= std::exp(config.variation_sigma * vrng.gaussian());
    gate_delay_ps_[gid] = d;
  }

  net_energy_fj_.resize(netlist.num_nets());
  for (NetId n = 0; n < netlist.num_nets(); ++n)
    net_energy_fj_[n] = toggle_energy_fj(loads[n], op_.vdd_v);

  double leak_nw = netlist.cell_leakage_nw(lib);
  leak_nw *= tm.leakage_scale(op_.vdd_v, op_.vbb_v);
  leak_nw *= config.leakage_scale;
  leak_nw_scaled_ = leak_nw;
  leakage_energy_fj_ = leak_nw * 1e-3 * tclk_ps_ * 1e-3;  // nW·ps → fJ

  arrival_ps_ = arrival_times_ps(netlist, gate_delay_ps_);
  for (const NetId po : netlist.primary_outputs())
    critical_path_ps_ = std::max(critical_path_ps_, arrival_ps_[po]);

  // Cycle-mode fast-path eligibility. Every commit time at a gate is an
  // event-time + delay chain bounded by the same IEEE additions the STA
  // recurrence performs (PIs commit at 0, catch-ups below Tclk), so
  // arrival < Tclk proves all of the gate's commits land in-window in
  // every lane of every cycle: its sampled word equals its settled word
  // and stale(k) = sampled(k-1) collapses to the streaming recurrence
  // stale(k) = settled(k-1).
  cycle_safe_.resize(netlist.num_gates());
  for (GateId gid = 0; gid < netlist.num_gates(); ++gid)
    cycle_safe_[gid] =
        arrival_ps_[netlist.gate(gid).out] < tclk_ps_ ? 1 : 0;

  settled_w_.assign(netlist.num_nets(), Word{});
  stale_w_.assign(netlist.num_nets(), Word{});
  sampled_w_.assign(netlist.num_nets(), Word{});
  time_ps_ = std::make_unique_for_overwrite<double[]>(
      netlist.num_nets() * kLanes);
  pulsing_w_.assign(netlist.num_nets(), Word{});
  pulse_start_ps_ = std::make_unique_for_overwrite<double[]>(
      netlist.num_nets() * kLanes);
  pulse_end_ps_ = std::make_unique_for_overwrite<double[]>(
      netlist.num_nets() * kLanes);
  pulsing2_w_.assign(netlist.num_nets(), Word{});
  pulse2_start_ps_ = std::make_unique_for_overwrite<double[]>(
      netlist.num_nets() * kLanes);
  pulse2_end_ps_ = std::make_unique_for_overwrite<double[]>(
      netlist.num_nets() * kLanes);

  po_index_.assign(netlist.num_nets(), -1);
  const auto pos = netlist.primary_outputs();
  for (std::size_t j = 0; j < pos.size(); ++j)
    po_index_[pos[j]] = static_cast<std::int32_t>(j);

  // Establish a consistent all-zero-input state.
  const std::vector<Word> zeros(netlist.primary_inputs().size(), Word{});
  reset(zeros);
}

bool LevelizedSimulator::retarget_tclk_ps(double tclk_ps) {
  VOSIM_EXPECTS(tclk_ps > 0.0);
  tclk_ps_ = tclk_ps;
  op_.tclk_ns = tclk_ps * 1e-3;
  // Same expressions as construction, against the cached die.
  leakage_energy_fj_ = leak_nw_scaled_ * 1e-3 * tclk_ps_ * 1e-3;
  for (GateId gid = 0; gid < netlist_.num_gates(); ++gid)
    cycle_safe_[gid] =
        arrival_ps_[netlist_.gate(gid).out] < tclk_ps_ ? 1 : 0;
  return true;
}

bool LevelizedSimulator::save_carried_state(
    std::span<lanes::Word> bits) const {
  VOSIM_EXPECTS(bits.size() == lanes::words_for(state_.size()));
  std::fill(bits.begin(), bits.end(), Word{0});
  for (std::size_t n = 0; n < state_.size(); ++n)
    bits[n / kLanes] |= Word{state_[n]} << (n % kLanes);
  return true;
}

bool LevelizedSimulator::restore_carried_state(
    std::span<const lanes::Word> bits) {
  VOSIM_EXPECTS(bits.size() == lanes::words_for(state_.size()));
  for (std::size_t n = 0; n < state_.size(); ++n)
    state_[n] = sampled_state_[n] = lanes::lane_bit(bits[n / kLanes],
                                                    n % kLanes);
  return true;
}

void LevelizedSimulator::reset(std::span<const lanes::Word> pi_words) {
  VOSIM_EXPECTS(pi_words.size() == netlist_.primary_inputs().size());
  std::vector<std::uint8_t> inputs;
  lanes::unpack_lane(pi_words, 0, inputs);
  state_ = evaluate_logic(netlist_, inputs);
  sampled_state_ = state_;
}

void LevelizedSimulator::load_inputs(std::span<const lanes::Word> pi_words,
                                     std::size_t count) {
  const auto pis = netlist_.primary_inputs();
  VOSIM_EXPECTS(pi_words.size() == pis.size());
  VOSIM_EXPECTS(count >= 1 && count <= kLanes);
  for (std::size_t j = 0; j < pis.size(); ++j)
    settled_w_[pis[j]] = pi_words[j];
}

// Throughput accounting: one relaxed add per call (not per pattern),
// cached refs so the registry mutex is never on the hot path. Every
// call is one lane word.
void LevelizedSimulator::step_batch(std::span<const lanes::Word> pi_words,
                                    std::size_t count,
                                    std::span<StepResult> results) {
  VOSIM_EXPECTS(results.size() >= count);
  static obs::Counter& pattern_counter =
      obs::metrics().counter("sim.levelized.patterns");
  static obs::Counter& word_counter =
      obs::metrics().counter("sim.levelized.lane_words");
  load_inputs(pi_words, count);
  pattern_counter.add(count);
  word_counter.add();
  run_lanes(count, results.first(count));
}

void LevelizedSimulator::step_cycle_batch(
    std::span<const lanes::Word> pi_words, std::size_t count,
    std::span<StepResult> results) {
  VOSIM_EXPECTS(results.size() >= count);
  static obs::Counter& cycle_counter =
      obs::metrics().counter("sim.levelized.cycles");
  static obs::Counter& word_counter =
      obs::metrics().counter("sim.levelized.lane_words");
  load_inputs(pi_words, count);
  cycle_counter.add(count);
  word_counter.add();
  run_lanes(count, results.first(count), /*cycle_mode=*/true);
}

void LevelizedSimulator::step_batch_sweep(
    std::span<const lanes::Word> pi_words, std::size_t count,
    std::span<const double> thresholds_ps, std::span<StepResult> results) {
  const std::size_t nthr = thresholds_ps.size();
  VOSIM_EXPECTS(nthr > 0);
  VOSIM_EXPECTS(std::is_sorted(thresholds_ps.begin(), thresholds_ps.end()));
  VOSIM_EXPECTS(thresholds_ps.front() > 0.0);
  VOSIM_EXPECTS(results.size() >= count * nthr);
  static obs::Counter& pattern_counter =
      obs::metrics().counter("sim.levelized.patterns");
  static obs::Counter& word_counter =
      obs::metrics().counter("sim.levelized.lane_words");
  load_inputs(pi_words, count);
  pattern_counter.add(count);
  word_counter.add();
  run_lanes_sweep(count, thresholds_ps, results.first(count * nthr));
}

template <bool kCycleMode, class Acct>
void LevelizedSimulator::run_lanes_impl(std::size_t lanes, Acct& acct) {
  using C = PassCounts;
  const Word used = lanes::mask(lanes);
  PassCounts counts;
  counts.n[C::kGates] = netlist_.num_gates();

  // Primary inputs: lane k's stale value is lane k-1's value (lane 0
  // continues from the carried state); input transitions commit at
  // t = 0, like the event engine's launch-edge commits. Sampled values
  // are tracked as stale XOR the parity of commits inside the window.
  // PIs always commit at t = 0 < Tclk, so their sampled value equals
  // their settled value and the streaming recurrence stale(k) =
  // settled(k-1) coincides with the cycle-mode recurrence stale(k) =
  // sampled(k-1): this block serves both modes unchanged.
  for (const NetId pi : netlist_.primary_inputs()) {
    const Word settled = settled_w_[pi] & used;
    settled_w_[pi] = settled;
    const Word stale = lanes::shift1_in(settled, state_[pi]) & used;
    stale_w_[pi] = stale;
    pulsing_w_[pi] = Word{};
    pulsing2_w_[pi] = Word{};
    const double energy = net_energy_fj_[pi];
    double* t = &time_ps_[static_cast<std::size_t>(pi) * kLanes];
    const Word m = settled ^ stale;
    if constexpr (Acct::kWordCommit) {
      // Every launch commit is in-window, so the sampled word is just
      // the settled word.
      if (lanes::any(m)) acct.commit_word_zero(m, energy, t);
      sampled_w_[pi] = settled;
    } else {
      Word sampled = stale;
      lanes::for_each_lane(m, [&](std::size_t k) {
        t[k] = 0.0;
        if (acct.commit(pi, k, 0.0, energy))
          lanes::toggle_lane(sampled, k);
      });
      sampled_w_[pi] = sampled;
    }
  }

  // One levelized pass. Values: packed 64-lane evaluation per gate.
  // Timing: each lane with input activity runs a miniature event
  // simulation of just this gate over its input events (one flip per
  // changed input at its final transition time, a flip-and-return pair
  // per pulse), with the event engine's inertial rule — the one walk
  // of src/sim/lane_walk.hpp. Commits yield the output's transition
  // time, glitch-pulse windows, toggle energy, and the value the
  // capture register samples at Tclk.
  //
  // The hot path dispatches lanes by class using packed subset words
  // W[s] (the gate function with the inputs in s still at their stale
  // values, evaluated for all kLanes lanes at once): a non-sensitized
  // single change costs nothing, one- and two-change lanes and single
  // pulses are closed forms of the walk, the common pulse-fed classes
  // build their event lists from W[s] bits, and only the rest pay the
  // generic build-and-sort.
  //
  // The approximations relative to the full event engine: a changed
  // input is forwarded as one transition at its commit time — or, when
  // it bounced on the way to the settled value, as its first flip plus
  // one return pulse (middle bounces of longer chatter are merged) —
  // and an unchanged output's commits are forwarded as one merged
  // pulse.
  //
  // Lane semantics differ per mode. Streaming (step_batch/sweep):
  // lane k is an independent pattern whose stale value is lane k-1's
  // settled value, so stale/changed are whole-word shifts and lanes
  // are order-free. Cycle mode (step_cycle_batch): lane k
  // is clock cycle k and launches from lane k-1's *sampled* (at-edge
  // truncated) value, so active lanes resolve in ascending lane order
  // — each per-lane body below is shared verbatim between the two
  // dispatch loops, which keeps the commit sequence (and therefore
  // the floating-point energy accumulation) of any one lane identical
  // whether it was reached by streaming masks or by the cycle scan.
  for (const GateId gid : netlist_.topo_order()) {
    const Gate& g = netlist_.gate(gid);
    const NetId out = g.out;
    const int n = g.num_inputs;
    const unsigned full = (1u << n) - 1u;

    Word in_settled[3] = {};
    Word in_stale[3] = {};
    Word in_changed[3] = {};
    Word in_pulsing[3] = {};
    Word in_pulsing2[3] = {};
    Word any_pulse{};
    Word any_changed{};
    for (int i = 0; i < n; ++i) {
      const NetId in = g.in[i];
      in_settled[i] = settled_w_[in];
      in_stale[i] = stale_w_[in];
      in_changed[i] = in_settled[i] ^ in_stale[i];
      in_pulsing[i] = pulsing_w_[in];
      in_pulsing2[i] = pulsing2_w_[in];
      any_pulse |= in_pulsing[i] | in_pulsing2[i];
      any_changed |= in_changed[i];
    }

    // Quiet-gate fast exit: no input changed and nothing pulses, so no
    // lane walks, no subset words beyond W[0] and no pulse bookkeeping.
    // All that remains of the general path is the settled/stale/sampled
    // word hand-off plus the catch-up sweep over changed-but-inactive
    // lanes (cycle mode; empty under the streaming invariant) — commit
    // for commit what the full dispatch would do on such a gate.
    if (!lanes::any((any_changed | any_pulse) & used)) {
      ++counts.n[C::kQuietGates];
      const Word settled =
          eval_cell_packed(g.kind, in_settled[0], in_settled[1],
                           in_settled[2]) &
          used;
      settled_w_[out] = settled;
      const auto state0 = static_cast<std::uint8_t>(state_[out] & 1);
      const bool word_recurrence = !kCycleMode || cycle_safe_[gid] != 0;
      Word sampled;
      Word m_catch;
      if (word_recurrence) {
        const Word stale = lanes::shift1_in(settled, state0) & used;
        stale_w_[out] = stale;
        sampled = stale;
        m_catch = (settled ^ stale) & used;
      } else {
        // Every lane is inactive: sampled(k) = settled(k) (the only
        // possible commit is the in-window catch-up), so the stale
        // chain is the settled word shifted by one cycle.
        sampled = settled;
        const Word stale = lanes::shift1_in(settled, state0) & used;
        stale_w_[out] = stale;
        m_catch = (settled ^ stale) & used;
      }
      if (lanes::any(m_catch)) {
        counts.add_lanes(C::kCatchUp, m_catch);
        const double delay = gate_delay_ps_[gid];
        const double energy = net_energy_fj_[out];
        const double tc = std::min(delay, 0.999 * tclk_ps_);
        double* tout = &time_ps_[static_cast<std::size_t>(out) * kLanes];
        lanes::for_each_lane(m_catch, [&](std::size_t k) {
          if (acct.commit(out, k, tc, energy))
            lanes::assign_lane(sampled, k,
                               lanes::lane_bit(settled, k) != 0);
          tout[k] = tc;
        });
      }
      sampled_w_[out] = sampled;
      pulsing_w_[out] = Word{};
      pulsing2_w_[out] = Word{};
      continue;
    }

    const double* in_time[3] = {nullptr, nullptr, nullptr};
    const double* in_ps[3] = {nullptr, nullptr, nullptr};
    const double* in_pe[3] = {nullptr, nullptr, nullptr};
    const double* in_ps2[3] = {nullptr, nullptr, nullptr};
    const double* in_pe2[3] = {nullptr, nullptr, nullptr};
    for (int i = 0; i < n; ++i) {
      const auto base = static_cast<std::size_t>(g.in[i]) * kLanes;
      in_time[i] = &time_ps_[base];
      in_ps[i] = &pulse_start_ps_[base];
      in_pe[i] = &pulse_end_ps_[base];
      in_ps2[i] = &pulse2_start_ps_[base];
      in_pe2[i] = &pulse2_end_ps_[base];
    }

    // W[s]: packed gate value with the inputs in subset s still stale.
    Word W[8];
    for (unsigned s = 0; s <= full; ++s) {
      const Word wa =
          n > 0 ? ((s & 1u) ? in_stale[0] : in_settled[0]) : Word{};
      const Word wb =
          n > 1 ? ((s & 2u) ? in_stale[1] : in_settled[1]) : Word{};
      const Word wc =
          n > 2 ? ((s & 4u) ? in_stale[2] : in_settled[2]) : Word{};
      W[s] = eval_cell_packed(g.kind, wa, wb, wc) & used;
    }
    const Word settled = W[0];
    settled_w_[out] = settled;
    const auto state0 = static_cast<std::uint8_t>(state_[out] & 1);

    // A cycle-safe gate (STA arrival < Tclk, cycle_safe_) never commits
    // past the edge, and neither does anything in its fan-in cone
    // (arrival is nondecreasing along paths), so its sampled word always
    // equals its settled word and stale(k) = sampled(k-1) collapses to
    // the streaming recurrence — such gates take the packed streaming
    // dispatch even in cycle mode. Only gates reachable past the edge
    // pay the serial ascending lane scan.
    const bool word_recurrence = !kCycleMode || cycle_safe_[gid] != 0;
    Word stale;
    Word changed;
    Word sampled;
    if (word_recurrence) {
      stale = lanes::shift1_in(settled, state0) & used;
      stale_w_[out] = stale;
      changed = settled ^ stale;
      sampled = stale;
    } else {
      // Built lane by lane in the cycle scan below; lanes without input
      // activity sample their settled value (their only possible commit
      // is the catch-up, which always lands inside the window).
      stale = Word{};
      changed = Word{};
      sampled = settled;
    }

    Word pulsing{};
    Word pulsing2{};
    Word committed{};  // lanes whose output committed a flip
    const double delay = gate_delay_ps_[gid];
    const double energy = net_energy_fj_[out];
    const std::uint16_t truth = cell_truth(g.kind);
    const auto base_out = static_cast<std::size_t>(out) * kLanes;
    double* tout = &time_ps_[base_out];
    double* pout_s = &pulse_start_ps_[base_out];
    double* pout_e = &pulse_end_ps_[base_out];
    double* pout2_s = &pulse2_start_ps_[base_out];
    double* pout2_e = &pulse2_end_ps_[base_out];

    const Word ch0 = in_changed[0];
    const Word ch1 = in_changed[1];
    const Word ch2 = in_changed[2];

    // Single-pulse classification. A lane whose only input activity is
    // one surviving pulse on input i (no changed inputs, no second
    // pulse, no pulse on another input) splits by sensitization at the
    // lane's settled (== stale) input state: not sensitized means the
    // walk would commit nothing — the lane needs no walk at all
    // (pulse_skip) — and sensitized means the walk is a single
    // closed-form excursion (thru[i] → lane_walk::pulse_through).
    Word thru[3] = {};
    Word pulse_skip{};
    // Changed+pulse pairs: lanes whose only activity is one changed
    // input j (no bounce) plus one surviving pulse on unchanged input
    // i. Their walk has exactly three events with values drawn from
    // four packed words (lane_walk::changed_pulse_events).
    // cp_m/cp_j/cp_i/cp_est/cp_ese hold the per-pair lane masks and the
    // two extra packed evaluations (input i complemented, with j stale
    // resp. settled).
    int cp_j[6];
    int cp_i[6];
    Word cp_m[6];
    Word cp_est[6];
    Word cp_ese[6];
    int ncp = 0;
    Word cp_all{};
    // Pure bounce class: one changed input j carrying its own return
    // pulse, every other input quiet (lane_walk::bounce_events).
    Word bn[3] = {};
    Word bn_all{};
    int bc_j[6];
    int bc_l[6];
    Word bc_m[6];
    int nbc = 0;
    Word bc_all{};
    if (lanes::any(any_pulse)) {
      const Word quiet = ~(ch0 | ch1 | ch2);
      // Per-input activity words and their "every input but X" ORs,
      // as straight-line word ops: with n <= 3 and the activity arrays
      // zero-filled past n this is smaller than a `for (t) if (t != i)`
      // loop.
      const Word pp0 = in_pulsing[0] | in_pulsing2[0];
      const Word pp1 = in_pulsing[1] | in_pulsing2[1];
      const Word pp2 = in_pulsing[2] | in_pulsing2[2];
      const Word pp[3] = {pp0, pp1, pp2};
      const Word pp_ex[3] = {pp1 | pp2, pp0 | pp2, pp0 | pp1};
      const Word ch_ex[3] = {ch1 | ch2, ch0 | ch2, ch0 | ch1};
      const Word cpp[3] = {pp0 | ch0, pp1 | ch1, pp2 | ch2};
      const Word cpp_ex[3] = {cpp[1] | cpp[2], cpp[0] | cpp[2],
                            cpp[0] | cpp[1]};
      // Packed evaluation with input i complemented and input js (or
      // none, js < 0) at its stale word: the value the gate shows
      // during an excursion of input i.
      const auto eval_comp = [&](int i, int js) {
        Word wa = js == 0 ? in_stale[0] : in_settled[0];
        Word wb = n > 1 ? (js == 1 ? in_stale[1] : in_settled[1]) : Word{};
        Word wc = n > 2 ? (js == 2 ? in_stale[2] : in_settled[2]) : Word{};
        if (i == 0) wa = ~wa;
        if (i == 1) wb = ~wb;
        if (i == 2) wc = ~wc;
        return eval_cell_packed(g.kind, wa, wb, wc);
      };
      for (int i = 0; i < n; ++i) {
        const Word only =
            in_pulsing[i] & ~in_pulsing2[i] & quiet & used & ~pp_ex[i];
        if (!lanes::any(only)) continue;
        const Word sens = (eval_comp(i, -1) ^ settled) & only;
        thru[i] = sens;
        pulse_skip |= only & ~sens;
      }
      for (int j = 0; lanes::any(any_changed) && j < n; ++j) {
        const Word chonly = in_changed[j] & ~pp[j] & used & ~ch_ex[j];
        if (!lanes::any(chonly)) continue;
        for (int i = 0; i < n; ++i) {
          if (i == j) continue;
          const Word m =
              chonly & in_pulsing[i] & ~in_pulsing2[i] & ~pp_ex[i];
          if (!lanes::any(m)) continue;
          cp_j[ncp] = j;
          cp_i[ncp] = i;
          cp_m[ncp] = m;
          cp_est[ncp] = eval_comp(i, j);
          cp_ese[ncp] = eval_comp(i, -1);
          cp_all |= m;
          ++ncp;
        }
      }
      for (int j = 0; lanes::any(any_changed) && j < n; ++j) {
        const Word m =
            in_changed[j] & in_pulsing[j] & ~in_pulsing2[j] & used &
            ~cpp_ex[j];
        bn[j] = m;
        bn_all |= m;
      }
      // Two changed inputs, one of them bouncing: j carries its first
      // flip plus a return pulse, l flips once, nothing else is
      // active. All four reachable gate values are subset words, so
      // the walk needs no extra packed evaluations
      // (lane_walk::bounce_change_events).
      for (int j = 0; lanes::any(any_changed) && j < n; ++j) {
        Word mj = in_changed[j] & in_pulsing[j] & ~in_pulsing2[j] & used;
        if (!lanes::any(mj)) continue;
        for (int l = 0; l < n; ++l) {
          if (l == j) continue;
          Word m = mj & in_changed[l] & ~pp[l];
          if (n == 3) m &= ~cpp[3 - j - l];
          if (!lanes::any(m)) continue;
          bc_j[nbc] = j;
          bc_l[nbc] = l;
          bc_m[nbc] = m;
          bc_all |= m;
          ++nbc;
        }
      }
    }
    const Word thru_all = thru[0] | thru[1] | thru[2];

    // -- per-lane kernels (src/sim/lane_walk.hpp) ---------------------------

    const auto bit = [](Word w, std::size_t k) {
      return static_cast<unsigned>(lanes::lane_bit(w, k));
    };
    // Lane k's output commits, in time order.
    const auto commit_to = [&](std::size_t k) {
      return [&, k](double tc) {
        if (acct.commit(out, k, tc, energy)) lanes::toggle_lane(sampled, k);
        lanes::set_lane(committed, k);
      };
    };
    const auto store = [&](std::size_t k, const lane_walk::Trajectory& f) {
      if (f.flips) tout[k] = f.flip;
      if (f.pulses > 0) {
        lanes::set_lane(pulsing, k);
        pout_s[k] = f.ps[0];
        pout_e[k] = f.pe[0];
      }
      if (f.pulses > 1) {
        lanes::set_lane(pulsing2, k);
        pout2_s[k] = f.ps[1];
        pout2_e[k] = f.pe[1];
      }
    };
    const auto walk_lane = [&](std::size_t k,
                               const lane_walk::LaneEvents& ev) {
      store(k, lane_walk::forward(lane_walk::walk(ev, delay, commit_to(k)),
                                  bit(changed, k) != 0));
    };
    // Bit s: lane k of W[s].
    const auto subset_bits = [&](std::size_t k) {
      unsigned w = 0;
      for (unsigned s = 0; s <= full; ++s) w |= bit(W[s], k) << s;
      return w;
    };

    const auto single_flip_lane = [&](std::size_t k, int i) {
      store(k, lane_walk::single_flip(in_time[i][k], delay, commit_to(k)));
    };
    const auto two_changed_lane = [&](std::size_t k, int i, int j) {
      store(k, lane_walk::two_changed(in_time[i][k], in_time[j][k],
                                      bit(W[1u << i], k), bit(W[1u << j], k),
                                      bit(settled, k), bit(changed, k) != 0,
                                      delay, commit_to(k)));
    };
    const auto pulse_through_lane = [&](std::size_t k, int i) {
      store(k, lane_walk::pulse_through(in_ps[i][k], in_pe[i][k],
                                        bit(changed, k) != 0, delay,
                                        commit_to(k)));
    };
    // The output's value before the walk is its own stale bit: in cycle
    // mode the previous cycle's sampled value, not a function of the
    // stale inputs.
    const auto three_changed_lane = [&](std::size_t k, unsigned v0) {
      walk_lane(k, lane_walk::three_changed_events(
                       in_time[0][k], in_time[1][k], in_time[2][k],
                       subset_bits(k), v0));
    };
    const auto bounce_lane = [&](std::size_t k, int j, const Word& w_jst) {
      walk_lane(k, lane_walk::bounce_events(in_time[j][k], in_ps[j][k],
                                            in_pe[j][k], bit(w_jst, k),
                                            bit(settled, k)));
    };
    const auto bc_lane = [&](std::size_t k, int j, int l) {
      walk_lane(k, lane_walk::bounce_change_events(
                       j, l, in_time[j][k], in_ps[j][k], in_pe[j][k],
                       in_time[l][k], subset_bits(k)));
    };
    const auto changed_pulse_lane = [&](std::size_t k, int j, int i,
                                        const Word& w_jst,
                                        const Word& w_jst_ic,
                                        const Word& w_jse_ic) {
      const unsigned nib = bit(w_jst, k) | (bit(w_jst_ic, k) << 1) |
                           (bit(settled, k) << 2) | (bit(w_jse_ic, k) << 3);
      walk_lane(k, lane_walk::changed_pulse_events(
                       j, i, in_time[j][k], in_ps[i][k], in_pe[i][k], nib));
    };
    // Any other pulse-fed lane: the generic builder over every input's
    // trajectory.
    const auto pulse_lane = [&](std::size_t k) {
      lane_walk::Trajectory in[3];
      unsigned stale_bits = 0;
      for (int i = 0; i < n; ++i) {
        stale_bits |= bit(in_stale[i], k) << i;
        lane_walk::Trajectory& x = in[i];
        x.flips = lanes::lane_bit(in_changed[i], k) != 0;
        if (x.flips) x.flip = in_time[i][k];
        if (lanes::lane_bit(in_pulsing[i], k) != 0) {
          x.pulses = 1;
          x.ps[0] = in_ps[i][k];
          x.pe[0] = in_pe[i][k];
        }
        if (lanes::lane_bit(in_pulsing2[i], k) != 0) {
          x.pulses = 2;
          x.ps[1] = in_ps2[i][k];
          x.pe[1] = in_pe2[i][k];
        }
      }
      walk_lane(k, lane_walk::generic_events(truth, n, stale_bits, in));
    };

    // Cycle-mode catch-up: a lane whose truncated launch value differs
    // from its settled function but committed nothing above would stay
    // wrong for every following cycle, while the event engine's
    // in-flight transition lands within one gate delay of the edge.
    // Commit the final value at the gate's own delay (the upper bound
    // on the in-flight remainder), clamped inside the capture window —
    // a gate slower than the whole clock period must still resolve, or
    // the repair would re-fail every cycle and the net stay wrong
    // forever. The catch-up commit always lands inside the window, so
    // the lane samples its settled value.
    const auto catch_up_lane = [&](std::size_t k) {
      const double tc = std::min(delay, 0.999 * tclk_ps_);
      if (acct.commit(out, k, tc, energy))
        lanes::assign_lane(sampled, k, lanes::lane_bit(settled, k) != 0);
      tout[k] = tc;
    };

    // -- dispatch ---------------------------------------------------------

    // Lane classes by changed-input count (pulse-free lanes only). With
    // the pulse-fed masks above they are disjoint, and both dispatch
    // loops below send each lane to the kernel its class names.
    const Word pairs = (ch0 & ch1) | (ch0 & ch2) | (ch1 & ch2);
    const Word three = ch0 & ch1 & ch2 & ~any_pulse & used;
    const Word two = pairs & ~(ch0 & ch1 & ch2) & ~any_pulse & used;
    const Word one = (ch0 ^ ch1 ^ ch2) & ~pairs & ~any_pulse & used;
    // Exactly one changed input: a sensitized lane commits once at
    // t + delay; a non-sensitized lane does nothing at all.
    Word flip{};
    for (int i = 0; i < n; ++i)
      flip |= one & in_changed[i] & (W[1u << i] ^ settled);
    const Word generic = any_pulse & used & ~thru_all & ~pulse_skip &
                         ~cp_all & ~bn_all & ~bc_all;
    counts.add_lanes(C::kSingleFlip, flip);
    counts.add_lanes(C::kTwoChanged, two);
    counts.add_lanes(C::kThreeChanged, three);
    if (lanes::any(any_pulse)) {
      counts.add_lanes(C::kPulseThrough, thru_all);
      counts.add_lanes(C::kChangedPulse, cp_all);
      counts.add_lanes(C::kBounce, bn_all);
      counts.add_lanes(C::kBounceChange, bc_all);
      counts.add_lanes(C::kGeneric, generic);
    }

    if (word_recurrence) {
      // Streaming recurrence (streaming mode, or a cycle-safe gate in
      // cycle mode): lanes are order-free, so each class is swept as a
      // packed mask.
      for (int i = 0; i < n; ++i)
        lanes::for_each_lane(flip & in_changed[i],
                             [&](std::size_t k) { single_flip_lane(k, i); });

      for (int i = 0; n >= 2 && i < n - 1; ++i) {
        for (int j = i + 1; j < n; ++j) {
          const Word m = two & in_changed[i] & in_changed[j];
          lanes::for_each_lane(m, [&](std::size_t k) {
            two_changed_lane(k, i, j);
          });
        }
      }

      lanes::for_each_lane(three, [&](std::size_t k) {
        three_changed_lane(
            k, static_cast<unsigned>(lanes::lane_bit(stale, k)));
      });

      for (int i = 0; i < n; ++i)
        lanes::for_each_lane(thru[i], [&](std::size_t k) {
          pulse_through_lane(k, i);
        });
      for (int p = 0; p < ncp; ++p)
        lanes::for_each_lane(cp_m[p], [&](std::size_t k) {
          changed_pulse_lane(k, cp_j[p], cp_i[p], W[1u << cp_j[p]],
                             cp_est[p], cp_ese[p]);
        });
      for (int j = 0; j < n; ++j)
        lanes::for_each_lane(bn[j], [&](std::size_t k) {
          bounce_lane(k, j, W[1u << j]);
        });
      for (int p = 0; p < nbc; ++p)
        lanes::for_each_lane(bc_m[p], [&](std::size_t k) {
          bc_lane(k, bc_j[p], bc_l[p]);
        });
      lanes::for_each_lane(generic, [&](std::size_t k) { pulse_lane(k); });

      // Under the streaming invariant (stale = settled function of
      // stale inputs) nothing is ever changed-but-uncommitted, so this
      // mask is empty and step_batch/sweep behavior is untouched; it
      // guards states left by an unreset step_cycle_batch. The
      // invariant also covers cycle-safe gates in cycle mode: their
      // whole fan-in cone is cycle-safe, so every stale input equals
      // its settled value of the previous lane.
      const Word catch_up = changed & ~committed & used;
      counts.add_lanes(C::kCatchUp, catch_up);
      lanes::for_each_lane(catch_up, [&](std::size_t k) { catch_up_lane(k); });
    } else {
      // Cycle mode: lane k launches from lane k-1's sampled value, so
      // lanes with input activity resolve serially in ascending lane
      // order (the stale/changed bits of lane k are only known once
      // lane k-1's sampled bit is final; for_each_lane iterates
      // ascending). Lanes without input activity need no per-lane
      // walk: their only possible commit is the catch-up, which always
      // lands in the window, so their sampled value is their settled
      // value — exactly the pre-filled word. pulse_skip lanes have no
      // changed input and provably no commits, so — like lanes without
      // input activity — their sampled value is settled (catch-up) and
      // they can skip the serial scan entirely.
      const Word active = (ch0 | ch1 | ch2 | any_pulse) & used & ~pulse_skip;
      lanes::for_each_lane(active, [&](std::size_t k) {
        const std::uint8_t sb =
            k == 0 ? state0 : lanes::lane_bit(sampled, k - 1);
        lanes::assign_lane(sampled, k, sb != 0);
        lanes::assign_lane(
            changed, k, (lanes::lane_bit(settled, k) ^ sb) != 0);
        if (lanes::lane_bit(any_pulse, k) != 0) {
          if (lanes::lane_bit(thru[0], k) != 0)
            pulse_through_lane(k, 0);
          else if (lanes::lane_bit(thru[1], k) != 0)
            pulse_through_lane(k, 1);
          else if (lanes::lane_bit(thru[2], k) != 0)
            pulse_through_lane(k, 2);
          else if (lanes::lane_bit(cp_all, k) != 0) {
            for (int p = 0; p < ncp; ++p)
              if (lanes::lane_bit(cp_m[p], k) != 0) {
                changed_pulse_lane(k, cp_j[p], cp_i[p], W[1u << cp_j[p]],
                                   cp_est[p], cp_ese[p]);
                break;
              }
          } else if (lanes::lane_bit(bn_all, k) != 0) {
            const int j = lanes::lane_bit(bn[0], k) != 0
                              ? 0
                              : (lanes::lane_bit(bn[1], k) != 0 ? 1 : 2);
            bounce_lane(k, j, W[1u << j]);
          } else if (lanes::lane_bit(bc_all, k) != 0) {
            for (int p = 0; p < nbc; ++p)
              if (lanes::lane_bit(bc_m[p], k) != 0) {
                bc_lane(k, bc_j[p], bc_l[p]);
                break;
              }
          } else {
            pulse_lane(k);
          }
        } else {
          const int c0 = lanes::lane_bit(ch0, k);
          const int c1 = lanes::lane_bit(ch1, k);
          const int c2 = lanes::lane_bit(ch2, k);
          const int cnt = c0 + c1 + c2;
          if (cnt == 1) {
            const int i = c0 ? 0 : (c1 ? 1 : 2);
            if ((lanes::lane_bit(W[1u << i], k) ^
                 lanes::lane_bit(settled, k)) != 0)
              single_flip_lane(k, i);
          } else if (cnt == 2) {
            two_changed_lane(k, c0 ? 0 : 1, c2 ? 2 : 1);
          } else if (cnt == 3) {
            three_changed_lane(k, static_cast<unsigned>(sb));
          }
        }
        if (lanes::lane_bit(changed, k) != 0 &&
            lanes::lane_bit(committed, k) == 0)
          catch_up_lane(k);
      });
      // Inactive lanes: stale(k) = sampled(k-1) is final now; the
      // changed ones take their catch-up commit (sampled stays settled).
      const Word stale_word = lanes::shift1_in(sampled, state0) & used;
      const Word catch_up = (settled ^ stale_word) & ~active & used;
      lanes::for_each_lane(catch_up, [&](std::size_t k) { catch_up_lane(k); });
      stale_w_[out] = stale_word;
      // Counted from the final words: lane k launched from bit k of
      // stale_word, and took its catch-up when changed but uncommitted.
      ++counts.n[C::kScannedGates];
      counts.add_lanes(C::kScannedLanes, active);
      counts.add_lanes(C::kLaunchMismatch, (stale_word ^ W[full]) & active);
      counts.add_lanes(C::kCatchUp, (changed & ~committed & used) | catch_up);
      counts.add_lanes(C::kTruncated, (sampled ^ settled) & used);
    }

    sampled_w_[out] = sampled;
    pulsing_w_[out] = pulsing;
    pulsing2_w_[out] = pulsing2;
  }
  counts.n[C::kCommits] = acct.commits();
  counts.publish();
}

void LevelizedSimulator::carry_state(std::size_t lanes,
                                          bool truncate) {
  const std::size_t last = lanes - 1;
  for (NetId n = 0; n < static_cast<NetId>(netlist_.num_nets()); ++n) {
    const std::uint8_t settled = lanes::lane_bit(settled_w_[n], last);
    const std::uint8_t sampled = lanes::lane_bit(sampled_w_[n], last);
    state_[n] = truncate ? sampled : settled;
    sampled_state_[n] = sampled;
  }
}

void LevelizedSimulator::run_lanes(std::size_t lanes,
                                        std::span<StepResult> results,
                                        bool cycle_mode) {
  acc_win_e_.assign(kLanes, 0.0);
  acc_settle_.assign(kLanes, 0.0);
  acc_win_t_.assign(kLanes, 0);
  if (cycle_mode) {
    // Window-only accounting: the cycle callers define totals ==
    // window and overwrite them.
    SingleThresholdAcct<true> acct{tclk_ps_,           lanes,
                                       acc_win_e_.data(),  acc_settle_.data(),
                                       acc_win_t_.data(),  nullptr,
                                       nullptr};
    run_lanes_impl<true>(lanes, acct);
  } else {
    acc_tot_e_.assign(kLanes, 0.0);
    acc_tot_t_.assign(kLanes, 0);
    SingleThresholdAcct<false> acct{tclk_ps_,           lanes,
                                        acc_win_e_.data(),  acc_settle_.data(),
                                        acc_win_t_.data(),  acc_tot_e_.data(),
                                        acc_tot_t_.data()};
    run_lanes_impl<false>(lanes, acct);
  }
  const auto pos = netlist_.primary_outputs();
  lanes::gather(sampled_w_.data(), pos, lanes, po_sampled_, 1);
  lanes::gather(settled_w_.data(), pos, lanes, po_settled_, 1);
  for (std::size_t k = 0; k < lanes; ++k) {
    StepResult& r = results[k];
    r.sampled_outputs = po_sampled_[k];
    r.settled_outputs = po_settled_[k];
    r.window_energy_fj = acc_win_e_[k];
    r.toggles_in_window = acc_win_t_[k];
    r.settle_time_ps = acc_settle_[k];
    r.total_energy_fj = cycle_mode ? acc_win_e_[k] : acc_tot_e_[k];
    r.toggles_total = cycle_mode ? acc_win_t_[k] : acc_tot_t_[k];
  }
  if (!observers_.empty()) dispatch_observers(lanes, results);
  carry_state(lanes, /*truncate=*/cycle_mode);
}

void LevelizedSimulator::dispatch_observers(
    std::size_t lanes, std::span<const StepResult> results) {
  const std::size_t nnets = netlist_.num_nets();
  // Per-lane step_end: transpose each lane's per-net sampled/settled
  // bits into byte vectors so observers see exactly the spans the
  // event engine hands out.
  obs_sampled_.resize(nnets);
  obs_settled_.resize(nnets);
  for (std::size_t k = 0; k < lanes; ++k) {
    for (NetId n = 0; n < static_cast<NetId>(nnets); ++n) {
      obs_sampled_[n] = lanes::lane_bit(sampled_w_[n], k);
      obs_settled_[n] = lanes::lane_bit(settled_w_[n], k);
    }
    for (SimObserver* o : observers_)
      o->on_step_end(*this, obs_sampled_, obs_settled_, results[k]);
  }

  for (SimObserver* o : observers_) o->on_lane_word(*this, lanes);
}

void LevelizedSimulator::run_lanes_sweep(
    std::size_t lanes, std::span<const double> thresholds_ps,
    std::span<StepResult> results) {
  const std::size_t nthr = thresholds_ps.size();
  const auto pos = netlist_.primary_outputs();
  const std::size_t npo = pos.size();

  sweep_ediff_.assign((nthr + 1) * kLanes, 0.0);
  sweep_tdiff_.assign((nthr + 1) * kLanes, 0);
  sweep_sdiff_.assign(npo * (nthr + 1), Word{});
  sweep_tot_e_.assign(kLanes, 0.0);
  sweep_tot_t_.assign(kLanes, 0);
  sweep_settle_.assign(kLanes, 0.0);

  // A grid sweep hands the same thresholds to every call.
  if (!sweep_buckets_.built_for(thresholds_ps))
    sweep_buckets_.build(thresholds_ps);
  MultiThresholdAcct acct{sweep_buckets_,      sweep_ediff_.data(),
                              sweep_tdiff_.data(), sweep_sdiff_.data(),
                              sweep_tot_e_.data(), sweep_tot_t_.data(),
                              sweep_settle_.data(), po_index_.data(),
                              lanes};
  run_lanes_impl<false>(lanes, acct);

  // Prefix over buckets: threshold j sees every commit in buckets ≤ j.
  // sweep_ediff_/tdiff_ become per-threshold window sums in place;
  // sweep_sdiff_ becomes per-threshold sampled words (base: stale).
  for (std::size_t j = 1; j < nthr; ++j) {
    double* ej = &sweep_ediff_[j * kLanes];
    const double* ep = &sweep_ediff_[(j - 1) * kLanes];
    std::uint32_t* tj = &sweep_tdiff_[j * kLanes];
    const std::uint32_t* tp = &sweep_tdiff_[(j - 1) * kLanes];
    for (std::size_t k = 0; k < lanes; ++k) {
      ej[k] += ep[k];
      tj[k] += tp[k];
    }
  }
  for (std::size_t p = 0; p < npo; ++p) {
    Word run = stale_w_[pos[p]];
    for (std::size_t j = 0; j < nthr; ++j) {
      run ^= sweep_sdiff_[p * (nthr + 1) + j];
      sweep_sdiff_[p * (nthr + 1) + j] = run;
    }
  }

  // Threshold j's sampled word of PO p sits at p·(nthr+1) + j.
  sweep_po_slot_.resize(npo);
  for (std::size_t p = 0; p < npo; ++p) sweep_po_slot_[p] = p * (nthr + 1);
  lanes::gather(settled_w_.data(), pos, lanes, po_settled_, 1);
  for (std::size_t j = 0; j < nthr; ++j) {
    lanes::gather(sweep_sdiff_.data() + j, sweep_po_slot_, lanes,
                  po_sampled_, 1);
    for (std::size_t k = 0; k < lanes; ++k) {
      StepResult& r = results[k * nthr + j];
      r.sampled_outputs = po_sampled_[k];
      r.settled_outputs = po_settled_[k];
      r.window_energy_fj = sweep_ediff_[j * kLanes + k];
      r.toggles_in_window = sweep_tdiff_[j * kLanes + k];
      r.total_energy_fj = sweep_tot_e_[k];
      r.toggles_total = sweep_tot_t_[k];
      r.settle_time_ps = sweep_settle_[k];
    }
  }
  carry_state(lanes);
}

}  // namespace vosim
