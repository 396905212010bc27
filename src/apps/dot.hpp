// Dot-product kernel with routed arithmetic — the data-mining style
// workload of the paper's error-resilient application class.
#ifndef VOSIM_APPS_DOT_HPP
#define VOSIM_APPS_DOT_HPP

#include <cstdint>
#include <vector>

#include "src/apps/approx_arith.hpp"

namespace vosim {

/// Dot products of pairs of equal-length u8 vectors, x[p] · y[p], all
/// pairs in lockstep: for each element index, approx_mul's
/// shift-and-add passes form every pair's product, then one pass adds
/// the products into the `acc_bits`-wide accumulators (which wrap as
/// hardware would). Returns one dot product per pair.
std::vector<std::uint64_t> approx_dot(
    const BatchAdderFn& add, const std::vector<std::vector<std::uint8_t>>& x,
    const std::vector<std::vector<std::uint8_t>>& y, int acc_bits = 24);

}  // namespace vosim

#endif  // VOSIM_APPS_DOT_HPP
