#include "src/apps/dot.hpp"

#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

std::vector<std::uint64_t> approx_dot(
    const BatchAdderFn& add, const std::vector<std::vector<std::uint8_t>>& x,
    const std::vector<std::vector<std::uint8_t>>& y, int acc_bits) {
  VOSIM_EXPECTS(x.size() == y.size());
  VOSIM_EXPECTS(acc_bits >= 16 && acc_bits <= max_word_bits);
  const std::size_t pairs = x.size();
  const std::size_t length = pairs == 0 ? 0 : x.front().size();
  for (std::size_t p = 0; p < pairs; ++p)
    VOSIM_EXPECTS(x[p].size() == length && y[p].size() == length);
  const std::uint64_t m = mask_n(acc_bits);
  std::vector<std::uint64_t> acc(pairs, 0);
  std::vector<std::uint64_t> xs(pairs);
  std::vector<std::uint64_t> prod(pairs);
  for (std::size_t i = 0; i < length; ++i) {
    for (std::size_t p = 0; p < pairs; ++p) {
      xs[p] = x[p][i];
      prod[p] = y[p][i];
    }
    approx_mul(add, acc_bits, xs, prod, prod);
    add(acc, prod, acc);
    for (std::uint64_t& v : acc) v &= m;
  }
  return acc;
}

}  // namespace vosim
