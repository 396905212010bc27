// Carry-chain analysis (paper Section IV).
//
// The statistical model's single parameter for adders is the longest
// carry-propagation chain: VOS breaks the longest combinational paths
// first, and those are exactly the long carry chains.
//
// Every carry computation in src/model is a few word operations on the
// carries of a + b sorted by travelled distance. With g = a & b
// (generate) and p = a ^ b (propagate):
//
//   Y_1 = g << 1,   Y_{d+1} = (Y_d & p) << 1.
//
// Bit i of Y_d is set when the carry entering bit i was born d positions
// below it, at a generate followed by an unbroken propagate run. A bit
// is a generate or a propagate but never both, so each carry of the
// exact sum sits in exactly one Y_d, and the last non-zero word is the
// longest chain (DESIGN.md §14).
#ifndef VOSIM_MODEL_CARRY_CHAIN_HPP
#define VOSIM_MODEL_CARRY_CHAIN_HPP

#include <cstdint>

namespace vosim {

/// Y_1 of a + b: the carries that have travelled one position.
constexpr std::uint64_t first_carry_word(std::uint64_t a, std::uint64_t b) {
  return (a & b) << 1;
}

/// Y_{d+1} from Y_d and the propagate word p = a ^ b.
constexpr std::uint64_t next_carry_word(std::uint64_t y, std::uint64_t p) {
  return (y & p) << 1;
}

/// Theoretical maximal carry chain Cth_max of the addition a+b on `width`
/// bits: the largest number of positions any single carry travels, i.e.
/// the last d with Y_d != 0. A carry born at a generate position j
/// travels through the run of propagate positions above it and dies one
/// past the run, so its length is 1 + run(p, j+1), capped by the
/// carry-out stage. Range: 0 (no carry at all) .. width (carry crosses
/// into cout).
int theoretical_max_carry_chain(std::uint64_t a, std::uint64_t b, int width);

}  // namespace vosim

#endif  // VOSIM_MODEL_CARRY_CHAIN_HPP
