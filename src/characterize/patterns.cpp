#include "src/characterize/patterns.hpp"

#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

PatternStream::PatternStream(int width, std::uint64_t seed)
    : width_(width), rng_(seed) {
  VOSIM_EXPECTS(width >= 1 && width <= max_word_bits);
}

OperandPair PatternStream::next() {
  // Draw a per-pattern propagate density q, then classify each bit as
  // propagate (a^b = 1), generate (a = b = 1) or kill (a = b = 0).
  // Sweeping q in [0.2, 0.95] makes long and short carry chains equally
  // well represented in the stimulus set.
  const double q = 0.2 + 0.75 * rng_.uniform();
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  for (int i = 0; i < width_; ++i) {
    if (rng_.flip(q)) {
      // Propagate: exactly one operand carries the bit.
      if (rng_.flip(0.5)) a |= (1ULL << i);
      else b |= (1ULL << i);
    } else if (rng_.flip(0.5)) {
      a |= (1ULL << i);  // generate
      b |= (1ULL << i);
    }
    // else: kill (both zero)
  }
  return OperandPair{a, b};
}

DutPatternStream::DutPatternStream(std::vector<int> operand_widths,
                                   std::uint64_t seed)
    : widths_(std::move(operand_widths)) {
  VOSIM_EXPECTS(!widths_.empty());
  std::size_t i = 0;
  std::uint64_t k = 0;
  while (i < widths_.size()) {
    const bool paired =
        i + 1 < widths_.size() && widths_[i + 1] == widths_[i];
    sources_.push_back(Source{PatternStream(widths_[i], seed + k), i, paired});
    i += paired ? 2 : 1;
    ++k;
  }
}

void DutPatternStream::next(std::span<std::uint64_t> operands) {
  VOSIM_EXPECTS(operands.size() == widths_.size());
  for (Source& src : sources_) {
    const OperandPair p = src.stream.next();
    operands[src.first] = p.a;
    if (src.paired) operands[src.first + 1] = p.b;
  }
}

}  // namespace vosim
