// Lane-word layer for bit-parallel simulation: one machine word holds
// one logic value per *lane*, where a lane is either an independent
// input pattern (streaming sweeps) or a consecutive clock cycle
// (batched sequential simulation, DESIGN.md §10).
//
// Everything that packs, masks, or iterates lanes goes through this
// header. There is one lane word, a plain uint64_t with 64 lanes
// (DESIGN.md §7 records why wider words were removed).
#ifndef VOSIM_UTIL_LANES_HPP
#define VOSIM_UTIL_LANES_HPP

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace vosim::lanes {

/// The lane word. All per-net simulator state (settled / stale /
/// sampled values, pulse flags) is stored as one lane word per net.
using Word = std::uint64_t;

/// Number of lanes a Word carries (one bit per lane).
inline constexpr std::size_t kWordLanes = 64;

/// Word with only lane `k` set. Precondition: k < kWordLanes.
constexpr Word bit(std::size_t k) {
  assert(k < kWordLanes);
  return Word{1} << k;
}

/// Mask selecting the low `n` lanes. Precondition: n <= kWordLanes.
constexpr Word mask(std::size_t n) {
  assert(n <= kWordLanes);
  return n >= kWordLanes ? ~Word{0} : ((Word{1} << n) - Word{1});
}

/// Number of set lanes in `w`.
constexpr int popcount(Word w) { return std::popcount(w); }

/// Value of lane `k` of `w` as 0/1. Precondition: k < kWordLanes.
constexpr std::uint8_t lane_bit(Word w, std::size_t k) {
  assert(k < kWordLanes);
  return static_cast<std::uint8_t>((w >> k) & Word{1});
}

/// Toggles lane `k` of `w` in place.
constexpr void toggle_lane(Word& w, std::size_t k) {
  assert(k < kWordLanes);
  w ^= Word{1} << k;
}

/// Sets lane `k` of `w` in place.
constexpr void set_lane(Word& w, std::size_t k) {
  assert(k < kWordLanes);
  w |= Word{1} << k;
}

/// Sets lane `k` of `w` to `v` in place.
constexpr void assign_lane(Word& w, std::size_t k, bool v) {
  assert(k < kWordLanes);
  const Word b = Word{1} << k;
  w = v ? (w | b) : (w & ~b);
}

/// True iff any lane of `w` is set.
constexpr bool any(Word w) { return w != Word{0}; }

/// Whole-word shift up by one lane, shifting `low` into lane 0: the
/// stale-value recurrence stale(k) = settled(k-1) of streaming mode.
constexpr Word shift1_in(Word w, std::uint8_t low) {
  return (w << 1) | Word{static_cast<std::uint64_t>(low & 1)};
}

/// Calls `fn(k)` for each set lane `k` of `w`, in ascending lane order.
/// Ascending order matters for the cycle-batch path, where lane k
/// depends on lane k-1 of the same word (DESIGN.md §10).
template <class Fn>
constexpr void for_each_lane(Word w, Fn&& fn) {
  while (w != 0) {
    const std::size_t k = static_cast<std::size_t>(std::countr_zero(w));
    fn(k);
    w &= w - Word{1};
  }
}

}  // namespace vosim::lanes

#endif  // VOSIM_UTIL_LANES_HPP
