// The levelized engine's lane kernels held to its generic walk
// (src/sim/lane_walk.hpp). For every cell with one to three inputs, on
// random lanes of each class: each class builder must produce the
// generic builder's event list (times, gate values, initial value),
// and each closed form the commits and forwarded trajectory of the
// walk over the generic events. Lane times come from a coarse grid, so
// simultaneous input events and commits landing exactly on the next
// event are common; that is where the builders' tie rules matter.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/sim/lane_walk.hpp"
#include "src/tech/cell.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

using lane_walk::LaneEvents;
using lane_walk::Trajectory;

constexpr int kLanesPerClass = 400;

/// One gate lane under the streaming invariant: the output's value
/// before the walk is the gate of the stale inputs.
struct Lane {
  std::uint16_t truth = 0;
  int n = 0;
  unsigned stale = 0;  ///< bit i: input i's stale value
  Trajectory in[3];
  double delay = 0.0;

  unsigned gate(unsigned idx) const { return (truth >> idx) & 1u; }
  unsigned settled_idx() const {
    unsigned idx = stale;
    for (int i = 0; i < n; ++i)
      if (in[i].flips) idx ^= 1u << i;
    return idx;
  }
  unsigned settled() const { return gate(settled_idx()); }
  bool changed() const { return gate(stale) != settled(); }
  /// Bit s: the gate with the inputs in subset s still stale (W[s]).
  unsigned subset_bits() const {
    unsigned w = 0;
    for (unsigned s = 0; s < (1u << n); ++s)
      w |= gate((settled_idx() & ~s) | (stale & s)) << s;
    return w;
  }
};

/// Grid times in ascending order: `count` draws from {0, 10, …, 70}.
std::vector<double> grid_times(Rng& rng, int count) {
  std::vector<double> t(static_cast<std::size_t>(count));
  for (double& x : t) x = 10.0 * static_cast<double>(rng.below(8));
  std::sort(t.begin(), t.end());
  return t;
}

/// Input i flips (or not) and carries `pulses` windows, its times in
/// the order the engine guarantees: flip <= ps0 <= pe0 <= ps1 <= pe1.
void activate(Lane& l, Rng& rng, int i, bool flips, int pulses) {
  Trajectory& x = l.in[i];
  const std::vector<double> t =
      grid_times(rng, (flips ? 1 : 0) + 2 * pulses);
  std::size_t c = 0;
  x.flips = flips;
  if (flips) x.flip = t[c++];
  x.pulses = pulses;
  for (int p = 0; p < pulses; ++p) {
    x.ps[p] = t[c++];
    x.pe[p] = t[c++];
  }
}

/// A quiet lane of `kind` with random stale inputs and delay.
Lane quiet_lane(CellKind kind, Rng& rng) {
  Lane l;
  l.truth = cell_truth(kind);
  l.n = cell_num_inputs(kind);
  l.stale = static_cast<unsigned>(rng.bits(l.n));
  l.delay = 10.0 * static_cast<double>(1 + rng.below(3));
  return l;
}

LaneEvents generic(const Lane& l) {
  return lane_walk::generic_events(l.truth, l.n, l.stale, l.in);
}

/// A lane's commits and forwarded trajectory.
struct LaneRun {
  std::vector<double> commits;
  Trajectory out;
};

LaneRun walk_generic(const Lane& l) {
  LaneRun r;
  const lane_walk::LaneCommits c = lane_walk::walk(
      generic(l), l.delay, [&](double t) { r.commits.push_back(t); });
  r.out = lane_walk::forward(c, l.changed());
  return r;
}

std::string describe(CellKind kind, const Lane& l) {
  std::string s = cell_kind_name(kind) + " stale " + std::to_string(l.stale) +
                  " delay " + std::to_string(l.delay);
  for (int i = 0; i < l.n; ++i) {
    const Trajectory& x = l.in[i];
    s += " | in" + std::to_string(i);
    if (x.flips) s += " flip " + std::to_string(x.flip);
    for (int p = 0; p < x.pulses; ++p)
      s += " [" + std::to_string(x.ps[p]) + ", " + std::to_string(x.pe[p]) +
           ")";
  }
  return s;
}

void expect_same_events(const LaneEvents& want, const LaneEvents& got,
                        const std::string& where) {
  ASSERT_EQ(want.n, got.n) << where;
  EXPECT_EQ(want.v0, got.v0) << where;
  for (int e = 0; e < want.n; ++e) {
    EXPECT_EQ(want.t[e], got.t[e]) << where << " event " << e;
    EXPECT_EQ(want.v[e], got.v[e]) << where << " event " << e;
  }
}

void expect_same_run(const LaneRun& want, const LaneRun& got,
                     const std::string& where) {
  EXPECT_EQ(want.commits, got.commits) << where;
  EXPECT_EQ(want.out.flips, got.out.flips) << where;
  if (want.out.flips && got.out.flips) {
    EXPECT_EQ(want.out.flip, got.out.flip) << where;
  }
  ASSERT_EQ(want.out.pulses, got.out.pulses) << where;
  for (int p = 0; p < want.out.pulses; ++p) {
    EXPECT_EQ(want.out.ps[p], got.out.ps[p]) << where << " pulse " << p;
    EXPECT_EQ(want.out.pe[p], got.out.pe[p]) << where << " pulse " << p;
  }
}

/// Every cell kind with one to three inputs.
std::vector<CellKind> gate_kinds() {
  std::vector<CellKind> kinds;
  for (int k = 0; k < cell_kind_count; ++k) {
    const auto kind = static_cast<CellKind>(k);
    const int n = cell_num_inputs(kind);
    if (n >= 1 && n <= 3) kinds.push_back(kind);
  }
  return kinds;
}

/// Two distinct inputs of an n-input gate.
std::pair<int, int> two_inputs(Rng& rng, int n) {
  const int a = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const int b = (a + 1 + static_cast<int>(rng.below(
                             static_cast<std::uint64_t>(n - 1)))) %
                n;
  return {a, b};
}

bool has_tie(const LaneEvents& ev) {
  for (int e = 1; e < ev.n; ++e)
    if (ev.t[e] == ev.t[e - 1]) return true;
  return false;
}

TEST(LaneWalk, ThreeChangedBuilderMatchesGeneric) {
  Rng rng(20261);
  for (const CellKind kind : gate_kinds()) {
    if (cell_num_inputs(kind) != 3) continue;
    for (int r = 0; r < kLanesPerClass; ++r) {
      Lane l = quiet_lane(kind, rng);
      for (int i = 0; i < 3; ++i) activate(l, rng, i, true, 0);
      expect_same_events(
          generic(l),
          lane_walk::three_changed_events(l.in[0].flip, l.in[1].flip,
                                          l.in[2].flip, l.subset_bits(),
                                          l.gate(l.stale)),
          describe(kind, l));
    }
  }
}

TEST(LaneWalk, BounceBuilderMatchesGeneric) {
  Rng rng(20262);
  for (const CellKind kind : gate_kinds()) {
    for (int r = 0; r < kLanesPerClass; ++r) {
      Lane l = quiet_lane(kind, rng);
      const int j = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(l.n)));
      activate(l, rng, j, true, 1);
      const unsigned w = l.subset_bits();
      const Trajectory& x = l.in[j];
      expect_same_events(
          generic(l),
          lane_walk::bounce_events(x.flip, x.ps[0], x.pe[0],
                                   (w >> (1u << j)) & 1u, w & 1u),
          describe(kind, l));
    }
  }
}

TEST(LaneWalk, BounceChangeBuilderMatchesGeneric) {
  Rng rng(20263);
  int ties = 0;
  for (const CellKind kind : gate_kinds()) {
    if (cell_num_inputs(kind) < 2) continue;
    for (int r = 0; r < kLanesPerClass; ++r) {
      Lane l = quiet_lane(kind, rng);
      const auto [j, other] = two_inputs(rng, l.n);
      activate(l, rng, j, true, 1);
      activate(l, rng, other, true, 0);
      const Trajectory& x = l.in[j];
      const LaneEvents want = generic(l);
      ties += has_tie(want) ? 1 : 0;
      expect_same_events(
          want,
          lane_walk::bounce_change_events(j, other, x.flip, x.ps[0],
                                          x.pe[0], l.in[other].flip,
                                          l.subset_bits()),
          describe(kind, l));
    }
  }
  EXPECT_GT(ties, kLanesPerClass);
}

TEST(LaneWalk, ChangedPulseBuilderMatchesGeneric) {
  Rng rng(20264);
  int ties = 0;
  for (const CellKind kind : gate_kinds()) {
    if (cell_num_inputs(kind) < 2) continue;
    for (int r = 0; r < kLanesPerClass; ++r) {
      Lane l = quiet_lane(kind, rng);
      const auto [j, i] = two_inputs(rng, l.n);
      activate(l, rng, j, true, 0);
      activate(l, rng, i, false, 1);
      // Gate values indexed (j settled ? 2 : 0) | (i complemented ? 1 : 0).
      const unsigned se = l.settled_idx();
      const unsigned jst = se ^ (1u << j);
      const unsigned ic = 1u << i;
      const unsigned nib = l.gate(jst) | (l.gate(jst ^ ic) << 1) |
                           (l.gate(se) << 2) | (l.gate(se ^ ic) << 3);
      const LaneEvents want = generic(l);
      ties += has_tie(want) ? 1 : 0;
      expect_same_events(
          want,
          lane_walk::changed_pulse_events(j, i, l.in[j].flip,
                                          l.in[i].ps[0], l.in[i].pe[0], nib),
          describe(kind, l));
    }
  }
  EXPECT_GT(ties, kLanesPerClass);
}

// The closed forms against the walk over the generic events. A
// non-sensitized single flip and a pulse the gate is not sensitized to
// (the engine's pulse_skip lanes) must walk to nothing at all: the
// engine never visits those lanes.
TEST(LaneWalk, SingleFlipClosedFormMatchesWalk) {
  Rng rng(20265);
  for (const CellKind kind : gate_kinds()) {
    for (int r = 0; r < kLanesPerClass; ++r) {
      Lane l = quiet_lane(kind, rng);
      const int i = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(l.n)));
      activate(l, rng, i, true, 0);
      const LaneRun want = walk_generic(l);
      LaneRun got;
      if (l.changed())
        got.out = lane_walk::single_flip(
            l.in[i].flip, l.delay,
            [&](double t) { got.commits.push_back(t); });
      expect_same_run(want, got, describe(kind, l));
    }
  }
}

TEST(LaneWalk, TwoChangedClosedFormMatchesWalk) {
  Rng rng(20266);
  for (const CellKind kind : gate_kinds()) {
    if (cell_num_inputs(kind) < 2) continue;
    for (int r = 0; r < kLanesPerClass; ++r) {
      Lane l = quiet_lane(kind, rng);
      auto [i, j] = two_inputs(rng, l.n);
      if (j < i) std::swap(i, j);
      activate(l, rng, i, true, 0);
      activate(l, rng, j, true, 0);
      const unsigned w = l.subset_bits();
      LaneRun got;
      got.out = lane_walk::two_changed(
          l.in[i].flip, l.in[j].flip, (w >> (1u << i)) & 1u,
          (w >> (1u << j)) & 1u, l.settled(), l.changed(), l.delay,
          [&](double t) { got.commits.push_back(t); });
      expect_same_run(walk_generic(l), got, describe(kind, l));
    }
  }
}

TEST(LaneWalk, PulseThroughClosedFormMatchesWalk) {
  Rng rng(20267);
  int through = 0;
  int skipped = 0;
  for (const CellKind kind : gate_kinds()) {
    for (int r = 0; r < kLanesPerClass; ++r) {
      Lane l = quiet_lane(kind, rng);
      const int i = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(l.n)));
      activate(l, rng, i, false, 1);
      const bool sensitized =
          l.gate(l.settled_idx() ^ (1u << i)) != l.settled();
      LaneRun got;
      if (sensitized) {
        ++through;
        got.out = lane_walk::pulse_through(
            l.in[i].ps[0], l.in[i].pe[0], l.changed(), l.delay,
            [&](double t) { got.commits.push_back(t); });
      } else {
        ++skipped;
      }
      expect_same_run(walk_generic(l), got, describe(kind, l));
    }
  }
  EXPECT_GT(through, 0);
  EXPECT_GT(skipped, 0);
}


// walk() and forward() on arbitrary lanes: a changed output commits an
// odd number of times and an unchanged one an even number, and the
// forwarded trajectory replays the commits exactly while they fit a
// flip plus two pulse windows. Longer chatter keeps its first commits
// and merges the rest into the last window, which ends at the last
// commit.
TEST(LaneWalk, ForwardReplaysTheCommits) {
  Rng rng(20268);
  int merged = 0;
  for (const CellKind kind : gate_kinds()) {
    for (int r = 0; r < kLanesPerClass; ++r) {
      Lane l = quiet_lane(kind, rng);
      for (int i = 0; i < l.n; ++i)
        activate(l, rng, i, rng.below(2) == 1,
                 static_cast<int>(rng.below(3)));
      const LaneRun run = walk_generic(l);
      const auto n = static_cast<int>(run.commits.size());
      ASSERT_EQ(n % 2 == 1, l.changed()) << describe(kind, l);
      std::vector<double> replay;
      if (run.out.flips) replay.push_back(run.out.flip);
      for (int p = 0; p < run.out.pulses; ++p) {
        replay.push_back(run.out.ps[p]);
        replay.push_back(run.out.pe[p]);
      }
      const int fits = l.changed() ? 5 : 4;
      std::vector<double> want = run.commits;
      if (n > fits) {
        ++merged;
        want.resize(static_cast<std::size_t>(fits - 1));
        want.push_back(run.commits.back());
      }
      EXPECT_EQ(replay, want) << describe(kind, l);
    }
  }
  EXPECT_GT(merged, 0);
}

}  // namespace
}  // namespace vosim
