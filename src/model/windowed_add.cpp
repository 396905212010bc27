#include "src/model/windowed_add.hpp"

#include "src/model/carry_chain.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

std::uint64_t windowed_add(std::uint64_t a, std::uint64_t b, int width,
                           int window) {
  VOSIM_EXPECTS(width >= 1 && width <= max_word_bits);
  VOSIM_EXPECTS(window >= 0 && window <= width);
  VOSIM_EXPECTS((a & ~mask_n(width)) == 0 && (b & ~mask_n(width)) == 0);
  // The carries that travelled at most `window` positions are Y_1 | ...
  // | Y_window (carry_chain.hpp); p < 2^width and every Y_d < 2^(width+1),
  // so the sum is already (width+1) bits wide.
  const std::uint64_t p = a ^ b;
  std::uint64_t carries = 0;
  std::uint64_t y = first_carry_word(a, b);
  for (int d = 1; d <= window && y != 0; ++d) {
    carries |= y;
    y = next_carry_word(y, p);
  }
  return p ^ carries;
}

}  // namespace vosim
