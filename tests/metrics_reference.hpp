// Reference for ErrorAccumulator's scoring (src/characterize/metrics.cpp):
// every term evaluated on every pattern, per-bit errors found by walking
// all nbits positions, no shortcut for equal words. The library skips
// the terms an error-free pattern cannot change and walks only the set
// bits of the difference; tests/test_metrics.cpp holds every accessor
// of the two to the same bits.
#ifndef VOSIM_TESTS_METRICS_REFERENCE_HPP
#define VOSIM_TESTS_METRICS_REFERENCE_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/util/bits.hpp"

namespace vosim::reference {

struct ErrorAccumulator {
  explicit ErrorAccumulator(int n)
      : nbits(n), bit_err_count(static_cast<std::size_t>(n), 0) {}

  void add(std::uint64_t reference, std::uint64_t actual) {
    ++ops;
    const std::uint64_t diff = (reference ^ actual) & mask_n(nbits);
    if (diff != 0) {
      ++err_ops;
      const int h = popcount_u64(diff);
      bit_errors += static_cast<std::uint64_t>(h);
      hamming_total += static_cast<std::uint64_t>(h);
      for (int i = 0; i < nbits; ++i)
        if (bit_of(diff, i) != 0) ++bit_err_count[static_cast<std::size_t>(i)];
    }
    const double r = static_cast<double>(reference);
    const double e = static_cast<double>(actual) - r;
    sum_sq_err += e * e;
    sum_ref_sq += r * r;
    sum_rel_err += std::abs(e) / std::max(r, 1.0);
  }

  double per_op(double x) const {
    return ops == 0 ? 0.0 : x / static_cast<double>(ops);
  }
  double ber() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(bit_errors) /
                          (static_cast<double>(ops) * nbits);
  }
  std::vector<double> bitwise_error_probability() const {
    std::vector<double> out(bit_err_count.size(), 0.0);
    for (std::size_t i = 0; ops != 0 && i < out.size(); ++i)
      out[i] = static_cast<double>(bit_err_count[i]) /
               static_cast<double>(ops);
    return out;
  }
  double op_error_rate() const { return per_op(static_cast<double>(err_ops)); }
  double mse() const { return per_op(sum_sq_err); }
  double snr_db() const {
    if (sum_sq_err <= 0.0) return std::numeric_limits<double>::infinity();
    return 10.0 * std::log10(sum_ref_sq / sum_sq_err);
  }
  double mean_hamming() const {
    return per_op(static_cast<double>(hamming_total));
  }
  double mred() const { return per_op(sum_rel_err); }

  int nbits;
  std::uint64_t ops = 0;
  std::uint64_t bit_errors = 0;
  std::uint64_t err_ops = 0;
  std::vector<std::uint64_t> bit_err_count;
  double sum_sq_err = 0.0;
  double sum_ref_sq = 0.0;
  double sum_rel_err = 0.0;
  std::uint64_t hamming_total = 0;
};

}  // namespace vosim::reference

#endif  // VOSIM_TESTS_METRICS_REFERENCE_HPP
