#include "src/model/carry_chain.hpp"

#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

int theoretical_max_carry_chain(std::uint64_t a, std::uint64_t b,
                                int width) {
  VOSIM_EXPECTS(width >= 1 && width <= max_word_bits);
  VOSIM_EXPECTS((a & ~mask_n(width)) == 0 && (b & ~mask_n(width)) == 0);
  const std::uint64_t p = a ^ b;
  int longest = 0;
  for (std::uint64_t y = first_carry_word(a, b); y != 0;
       y = next_carry_word(y, p))
    ++longest;
  VOSIM_ENSURES(longest <= width);
  return longest;
}

}  // namespace vosim
