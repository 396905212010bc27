// Per-lane gate kernels of the levelized engine (DESIGN.md §7).
//
// A lane of a gate with input activity is a miniature event simulation
// of that gate: its input events in time order, the gate value after
// each, and the event engine's inertial rule. walk() is that
// simulation, the only one in the engine, and forward() turns its
// commits into the trajectory the output hands downstream. Builders
// make the event list: generic_events() serves any lane by building
// and sorting every input event; the class builders make the same list
// from the input times and subset-word bits W[s] the engine holds.
// single_flip(), two_changed() and pulse_through() are closed forms
// that need no walk. tests/test_lane_walk.cpp holds every builder to
// generic_events() and every closed form to walk() over its events.
//
// Internal: included by levelized_sim.cpp and its tests only.
#ifndef VOSIM_SIM_LANE_WALK_HPP
#define VOSIM_SIM_LANE_WALK_HPP

#include <cstdint>
#include <utility>

namespace vosim::lane_walk {

/// One lane of a net's trajectory within an operation: a changed net's
/// first flip, plus up to two pulse windows [ps, pe). On a changed net
/// a pulse is a late return trip to the stale value and out again; on
/// an unchanged net it is an excursion to the complement of the settled
/// value and back. Times ascend: flip <= ps[0] <= pe[0] <= ps[1] <= pe[1].
struct Trajectory {
  bool flips = false;  ///< changed net: its first flip is at `flip`
  double flip = 0.0;
  int pulses = 0;      ///< 0–2; a second window only beside a first
  double ps[2] = {0.0, 0.0};
  double pe[2] = {0.0, 0.0};
};

/// Three inputs, each a flip plus two flip-and-return pulses.
inline constexpr int kMaxEvents = 15;

/// A lane's input events in walk order (ascending time).
struct LaneEvents {
  double t[kMaxEvents] = {};    ///< event times
  unsigned v[kMaxEvents] = {};  ///< gate value after each event
  int n = 0;
  unsigned v0 = 0;  ///< gate value before the first event
};

/// The commits of one walk: their count, the first four times and the
/// last (everything forward() reads).
struct LaneCommits {
  int n = 0;
  double t[4] = {0.0, 0.0, 0.0, 0.0};
  double last = 0.0;
};

/// Walks `ev` with the inertial rule — in binary logic a scheduled
/// commit is only ever cancelled (a pulse narrower than the gate
/// delay), never rescheduled — calling commit(tc) for every output
/// commit in time order.
template <class Commit>
inline LaneCommits walk(const LaneEvents& ev, double delay,
                        Commit&& commit) {
  LaneCommits c;
  unsigned cur = ev.v0;
  bool pending = false;
  double commit_t = 0.0;
  const auto fire = [&] {
    cur ^= 1u;
    if (c.n < 4) c.t[c.n] = commit_t;
    ++c.n;
    c.last = commit_t;
    commit(commit_t);
  };
  for (int e = 0; e < ev.n; ++e) {
    if (pending && commit_t <= ev.t[e]) {
      fire();
      pending = false;
    }
    if (ev.v[e] != cur && !pending) {
      pending = true;
      commit_t = ev.t[e] + delay;
    } else if (ev.v[e] == cur && pending) {
      pending = false;  // inertial cancellation
    }
  }
  if (pending) fire();
  return c;
}

/// The output trajectory a walk's commits forward. A changed output
/// with three or more commits bounced on its way to the settled value:
/// it forwards its first flip plus return pulses rather than one late
/// flip, since collapsing it to the final commit time over-ages
/// downstream transitions on reconvergent structures (array
/// multipliers) and inflates deep-VOS BER against the event engine.
/// Commits past the second window merge into it. A changed lane
/// without commits forwards nothing; the engine's catch-up resolves it.
inline Trajectory forward(const LaneCommits& c, bool changed) {
  Trajectory f;
  int first = 0;  // first commit that opens a pulse window
  if (changed) {
    if (c.n == 0) return f;
    f.flips = true;
    f.flip = c.n < 3 ? c.last : c.t[0];
    if (c.n < 3) return f;
    first = 1;
  }
  const int rest = c.n - first;
  if (rest >= 2) {
    f.pulses = 1;
    f.ps[0] = c.t[first];
    f.pe[0] = rest == 2 ? c.last : c.t[first + 1];
  }
  if (rest >= 4) {
    f.pulses = 2;
    f.ps[1] = c.t[first + 2];
    f.pe[1] = c.last;
  }
  return f;
}

// -- event builders ------------------------------------------------------

/// Any lane: a flip per changed input, a flip-and-return pair per
/// pulse, sorted by time with ties kept in build order (ascending
/// input, and per input its flip before its pulses). `truth` is the
/// cell's truth table, `stale` the inputs' stale values (bit i for
/// input i), `in` the n inputs' trajectories.
inline LaneEvents generic_events(std::uint16_t truth, int n, unsigned stale,
                                 const Trajectory* in) {
  LaneEvents ev;
  int which[kMaxEvents] = {};
  unsigned bit[kMaxEvents] = {};
  const auto push = [&](double t, int i, unsigned b) {
    ev.t[ev.n] = t;
    which[ev.n] = i;
    bit[ev.n] = b;
    ++ev.n;
  };
  for (int i = 0; i < n; ++i) {
    const unsigned sbit = (stale >> i) & 1u;
    // A changed input's pulses return to the stale value; an unchanged
    // input's pulses leave it.
    const unsigned back = in[i].flips ? sbit ^ 1u : sbit;
    if (in[i].flips) push(in[i].flip, i, sbit ^ 1u);
    for (int p = 0; p < in[i].pulses; ++p) {
      push(in[i].ps[p], i, back ^ 1u);
      push(in[i].pe[p], i, back);
    }
  }
  for (int x = 1; x < ev.n; ++x)  // insertion sort, stable on ties
    for (int y = x; y > 0 && ev.t[y] < ev.t[y - 1]; --y) {
      std::swap(ev.t[y], ev.t[y - 1]);
      std::swap(which[y], which[y - 1]);
      std::swap(bit[y], bit[y - 1]);
    }
  unsigned idx = stale;
  ev.v0 = (truth >> idx) & 1u;
  for (int e = 0; e < ev.n; ++e) {
    idx = (idx & ~(1u << which[e])) | (bit[e] << which[e]);
    ev.v[e] = (truth >> idx) & 1u;
  }
  return ev;
}

/// Three changed inputs flipping at t0, t1, t2, nothing pulsing. Bit s
/// of `w` is the gate with the inputs in subset s still stale; `v0` is
/// the output's value before the walk.
inline LaneEvents three_changed_events(double t0, double t1, double t2,
                                       unsigned w, unsigned v0) {
  const double t[3] = {t0, t1, t2};
  int order[3] = {0, 1, 2};
  if (t[order[1]] < t[order[0]]) std::swap(order[0], order[1]);
  if (t[order[2]] < t[order[1]]) std::swap(order[1], order[2]);
  if (t[order[1]] < t[order[0]]) std::swap(order[0], order[1]);
  LaneEvents ev;
  ev.n = 3;
  ev.v0 = v0;
  unsigned s = 7u;
  for (int e = 0; e < 3; ++e) {
    s &= ~(1u << order[e]);
    ev.t[e] = t[order[e]];
    ev.v[e] = (w >> s) & 1u;
  }
  return ev;
}

/// One changed input j carrying one return pulse, nothing else active:
/// its flip, pulse start and pulse end, already in time order, toggle
/// the gate between `w_jst` (j stale) and `w_se` (settled).
inline LaneEvents bounce_events(double flip, double ps, double pe,
                                unsigned w_jst, unsigned w_se) {
  return {{flip, ps, pe}, {w_se, w_jst, w_se}, 3, w_jst};
}

/// Two changed inputs, nothing else active: j bounces (flip at tj, one
/// return pulse [ps, pe)) and l flips once at tl. The bounce chain is
/// in time order already, so only l's flip is placed, ties going to
/// the lower input index. Bit s of `w` is the gate with the inputs in
/// subset s still stale.
inline LaneEvents bounce_change_events(int j, int l, double tj, double ps,
                                       double pe, double tl, unsigned w) {
  const unsigned bj = 1u << j;
  const unsigned bl = 1u << l;
  const int pos = l < j ? static_cast<int>(tj < tl) +
                              static_cast<int>(ps < tl) +
                              static_cast<int>(pe < tl)
                        : static_cast<int>(tj <= tl) +
                              static_cast<int>(ps <= tl) +
                              static_cast<int>(pe <= tl);
  // j's stale bit after each event of its chain (before: bj).
  const double chain_t[3] = {tj, ps, pe};
  const unsigned chain_s[3] = {0u, bj, 0u};
  LaneEvents ev;
  ev.n = 4;
  ev.v0 = (w >> (bj | bl)) & 1u;
  for (int e = 0, c = 0; e < 4; ++e) {
    unsigned s = 0;
    if (e == pos) {
      ev.t[e] = tl;
      s = c == 0 ? bj : chain_s[c - 1];
    } else {
      ev.t[e] = chain_t[c];
      s = chain_s[c++] | (e < pos ? bl : 0u);
    }
    ev.v[e] = (w >> s) & 1u;
  }
  return ev;
}

/// One changed input j flipping at tj plus one pulse [ps, pe) on
/// unchanged input i, nothing else active. `nib` holds the four gate
/// values the walk can reach, indexed (j settled ? 2 : 0) |
/// (i complemented ? 1 : 0).
inline LaneEvents changed_pulse_events(int j, int i, double tj, double ps,
                                       double pe, unsigned nib) {
  // Three possible orders of one flip around one ordered excursion;
  // ties keep build order (ascending input).
  const auto v = [&](unsigned state) { return (nib >> state) & 1u; };
  if (j < i ? !(ps < tj) : tj < ps)
    return {{tj, ps, pe}, {v(2), v(3), v(2)}, 3, v(0)};
  if (j < i ? pe < tj : !(tj < pe))
    return {{ps, pe, tj}, {v(1), v(0), v(2)}, 3, v(0)};
  return {{ps, tj, pe}, {v(1), v(3), v(2)}, 3, v(0)};
}

// -- closed forms --------------------------------------------------------

/// One changed input flipping at t, the gate sensitized to it, nothing
/// pulsing: one commit at t + delay.
template <class Commit>
inline Trajectory single_flip(double t, double delay, Commit&& commit) {
  const double tc = t + delay;
  commit(tc);
  return {true, tc};
}

/// Two changed inputs i < j flipping at ti and tj, nothing pulsing. The
/// output runs stale → mid → settled, where mid is the gate with only
/// the later input still stale: `mid_i` with only i stale, `mid_j` with
/// only j. `settled` is the settled output value.
template <class Commit>
inline Trajectory two_changed(double ti, double tj, unsigned mid_i,
                              unsigned mid_j, unsigned settled, bool changed,
                              double delay, Commit&& commit) {
  double tf = ti;
  double ts = tj;
  unsigned mid = mid_j;
  if (ts < tf) {
    std::swap(tf, ts);
    mid = mid_i;
  }
  if (changed) {
    // One commit: at the first flip when it already gives the settled
    // value, else at the second.
    const double tc = (mid == settled ? tf : ts) + delay;
    commit(tc);
    return {true, tc};
  }
  if (mid == settled || tf + delay > ts) return {};
  // A glitch on an unchanged output that outlives the gate delay: two
  // commits, forwarded as one pulse.
  commit(tf + delay);
  commit(ts + delay);
  return {false, 0.0, 1, {tf + delay, 0.0}, {ts + delay, 0.0}};
}

/// An unchanged lane fed by one pulse [ps, pe) on an input the gate is
/// sensitized to: one excursion, absorbed when the pulse is narrower
/// than the gate delay, else two commits.
template <class Commit>
inline Trajectory pulse_through(double ps, double pe, bool changed,
                                double delay, Commit&& commit) {
  const double t1 = ps + delay;
  if (t1 > pe) return {};
  const double t2 = pe + delay;
  commit(t1);
  commit(t2);
  // Two commits on a changed output merge into one flip.
  if (changed) return {true, t2};
  return {false, 0.0, 1, {t1, 0.0}, {t2, 0.0}};
}

}  // namespace vosim::lane_walk

#endif  // VOSIM_SIM_LANE_WALK_HPP
