// Deterministic, fast pseudo-random number generation.
//
// Every generator is seeded from content -- a configured seed, or a hash
// of a campaign cell's or a chip's key -- never from a worker's identity,
// so multi-threaded runs are bit-reproducible (DESIGN.md §6.4).
// xoshiro256** is used instead of std::mt19937_64 because pattern generation
// sits on the hot path of million-operation sweeps.
#ifndef VOSIM_UTIL_RNG_HPP
#define VOSIM_UTIL_RNG_HPP

#include <array>
#include <cstdint>

#include "src/util/contracts.hpp"

namespace vosim {

/// xoshiro256** generator with SplitMix64 seeding.
///
/// Satisfies std::uniform_random_bit_generator, so it can also be plugged
/// into <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from a single seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next 64 uniformly random bits.
  std::uint64_t operator()() noexcept;

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Bernoulli trial with probability p (clamped to [0, 1]).
  bool flip(double p) noexcept;

  /// Standard normal variate (Box-Muller, stateless variant).
  double gaussian() noexcept;

  /// A word whose low `bits` bits are uniformly random. Precondition:
  /// bits <= 64.
  std::uint64_t bits(int nbits);

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace vosim

#endif  // VOSIM_UTIL_RNG_HPP
