// Bit-level helpers shared by adder generators, carry-chain analysis and
// error metrics. All operands are std::uint64_t words holding <= 63-bit
// values (DESIGN.md §6.1).
#ifndef VOSIM_UTIL_BITS_HPP
#define VOSIM_UTIL_BITS_HPP

#include <bit>
#include <cstddef>
#include <cstdint>

#include "src/util/contracts.hpp"
#include "src/util/lanes.hpp"

namespace vosim {

/// Maximum operand width supported by the word-based arithmetic paths.
inline constexpr int max_word_bits = 63;

/// Mask with the low `n` bits set. Precondition: 0 <= n <= 64.
/// Forwards to lanes::mask — the single home of the mask/popcount
/// helpers.
constexpr std::uint64_t mask_n(int n) {
  return lanes::mask(static_cast<std::size_t>(n));
}

/// Value of bit `i` of `x` as 0/1.
constexpr int bit_of(std::uint64_t x, int i) {
  return static_cast<int>((x >> i) & 1ULL);
}

/// Number of set bits. Forwards to lanes::popcount (see mask_n).
constexpr int popcount_u64(std::uint64_t x) { return lanes::popcount(x); }

/// Hamming distance between two words restricted to their low `n` bits.
constexpr int hamming_distance(std::uint64_t a, std::uint64_t b, int n) {
  return std::popcount((a ^ b) & mask_n(n));
}

/// Reference n-bit addition: returns the (n+1)-bit exact result
/// (sum plus carry-out in bit n). Preconditions: operands fit in n bits.
inline std::uint64_t exact_add(std::uint64_t a, std::uint64_t b, int n,
                               bool carry_in = false) {
  VOSIM_EXPECTS(n >= 1 && n <= max_word_bits);
  VOSIM_EXPECTS((a & ~mask_n(n)) == 0 && (b & ~mask_n(n)) == 0);
  return (a + b + (carry_in ? 1u : 0u)) & mask_n(n + 1);
}

}  // namespace vosim

#endif  // VOSIM_UTIL_BITS_HPP
