// Input-pattern generation for operator characterization.
//
// The paper stimulates each triad with 20 000 patterns "chosen in such a
// way that all the input bits carry equal probability to propagate carry
// in the chain" (Section IV). PatternStream implements that intent by
// stratifying the per-pattern propagate density, which spreads the
// theoretical carry-chain length over its whole range; it is the one
// stimulus every sweep, trainer and study draws.
#ifndef VOSIM_CHARACTERIZE_PATTERNS_HPP
#define VOSIM_CHARACTERIZE_PATTERNS_HPP

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/util/rng.hpp"

namespace vosim {

/// An operand pair.
struct OperandPair {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Deterministic carry-balanced pattern stream: same (width, seed) =>
/// same sequence, so every triad of a sweep sees identical stimuli, as
/// in the paper's testbench.
class PatternStream {
 public:
  PatternStream(int width, std::uint64_t seed);

  OperandPair next();

 private:
  int width_;
  Rng rng_;
};

/// Deterministic multi-operand stimulus for DUT characterization.
/// Operand buses are consumed in adjacent pairs; pair k (equal widths)
/// draws an OperandPair from its own PatternStream seeded seed + k, so
/// the carry-balanced stimulus keeps its pairwise propagate semantics
/// on every operand pair of a tree or MAC. A plain two-operand DUT
/// (adder, multiplier) therefore sees exactly the classic
/// PatternStream(width, seed) sequence. A trailing or width-mismatched
/// bus draws a pair of its own and keeps the first word.
class DutPatternStream {
 public:
  DutPatternStream(std::vector<int> operand_widths, std::uint64_t seed);

  /// Fills one word per operand bus (operands.size() must equal the
  /// number of widths given at construction).
  void next(std::span<std::uint64_t> operands);

 private:
  struct Source {
    PatternStream stream;
    std::size_t first;  ///< operand index the pair lands in
    bool paired;        ///< fills operands first and first+1
  };

  std::vector<int> widths_;
  std::vector<Source> sources_;
};

}  // namespace vosim

#endif  // VOSIM_CHARACTERIZE_PATTERNS_HPP
