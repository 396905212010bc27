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
#include <span>
#include <vector>

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

/// Words needed to hold `n` lanes (one bit each).
constexpr std::size_t words_for(std::size_t n) {
  return (n + kWordLanes - 1) / kWordLanes;
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

/// Lane `k` of every word as one 0/1 byte per word, into `out`
/// (resized): the one-operation view that evaluate_logic and the event
/// engine's per-op methods take.
inline void unpack_lane(std::span<const Word> words, std::size_t k,
                        std::vector<std::uint8_t>& out) {
  out.resize(words.size());
  for (std::size_t i = 0; i < words.size(); ++i)
    out[i] = lane_bit(words[i], k);
}

// The transposition pair between per-operation words (bit i of one
// operation's word) and lane words (lane k = operation k). Both walk
// set bits only, so their cost scales with operations × bits and a
// one-operation call pays for one operation.

/// Scatters `count` per-operation words into lane words through a slot
/// map: bit i (i < slots.size()) of ops[k * stride] sets lane k of
/// lane_words[slots[i]]. Only ORs bits in: lanes and words the map does
/// not reach keep their value, so zeroed words hold uncovered positions
/// at 0. Bits at or above slots.size() are ignored.
/// Precondition: count <= kWordLanes, slots.size() <= kWordLanes.
template <class Slots>
void scatter(const std::uint64_t* ops, std::size_t stride, std::size_t count,
             const Slots& slots, Word* lane_words) {
  assert(count <= kWordLanes);
  const Word keep = mask(slots.size());
  for (std::size_t k = 0; k < count; ++k) {
    const Word lane = bit(k);
    for_each_lane(ops[k * stride] & keep,
                  [&](std::size_t i) { lane_words[slots[i]] |= lane; });
  }
}

/// Gathers lane words back into per-operation words, the inverse of
/// scatter: ops[k * stride] (k < count) becomes the word whose bit i is
/// lane k of lane_words[slots[i]]. Overwrites those `count` entries.
/// Precondition: count <= kWordLanes, slots.size() <= kWordLanes.
template <class Slots>
void gather(const Word* lane_words, const Slots& slots, std::size_t count,
            std::uint64_t* ops, std::size_t stride) {
  assert(count <= kWordLanes);
  for (std::size_t k = 0; k < count; ++k) ops[k * stride] = 0;
  const Word used = mask(count);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::uint64_t b = std::uint64_t{1} << i;
    for_each_lane(lane_words[slots[i]] & used,
                  [&](std::size_t k) { ops[k * stride] |= b; });
  }
}

}  // namespace vosim::lanes

#endif  // VOSIM_UTIL_LANES_HPP
