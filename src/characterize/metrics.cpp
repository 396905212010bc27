#include "src/characterize/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

ErrorAccumulator::ErrorAccumulator(int nbits)
    : nbits_(nbits),
      bit_err_count_(static_cast<std::size_t>(nbits), 0) {
  VOSIM_EXPECTS(nbits >= 1 && nbits <= 64);
}

void ErrorAccumulator::add(std::uint64_t reference, std::uint64_t actual) {
  ++ops_;
  const double r = static_cast<double>(reference);
  sum_ref_sq_ += r * r;
  // Equal words (compared whole: a golden function may set bits above
  // nbits) add +0.0 to each non-negative error sum, so skipping those
  // terms leaves every bit as it was.
  if (reference == actual) return;
  std::uint64_t diff = (reference ^ actual) & mask_n(nbits_);
  if (diff != 0) {
    ++err_ops_;
    const int h = popcount_u64(diff);
    bit_errors_ += static_cast<std::uint64_t>(h);
    for (; diff != 0; diff &= diff - 1)
      ++bit_err_count_[static_cast<std::size_t>(std::countr_zero(diff))];
  }
  const double e = static_cast<double>(actual) - r;
  sum_sq_err_ += e * e;
  sum_rel_err_ += std::abs(e) / std::max(r, 1.0);
}

void ErrorAccumulator::merge(const ErrorAccumulator& other) {
  VOSIM_EXPECTS(nbits_ == other.nbits_);
  ops_ += other.ops_;
  bit_errors_ += other.bit_errors_;
  err_ops_ += other.err_ops_;
  for (std::size_t i = 0; i < bit_err_count_.size(); ++i)
    bit_err_count_[i] += other.bit_err_count_[i];
  sum_sq_err_ += other.sum_sq_err_;
  sum_ref_sq_ += other.sum_ref_sq_;
  sum_rel_err_ += other.sum_rel_err_;
}

double ErrorAccumulator::ber() const noexcept {
  if (ops_ == 0) return 0.0;
  return static_cast<double>(bit_errors_) /
         (static_cast<double>(ops_) * nbits_);
}

std::vector<double> ErrorAccumulator::bitwise_error_probability() const {
  std::vector<double> out(bit_err_count_.size(), 0.0);
  if (ops_ == 0) return out;
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<double>(bit_err_count_[i]) /
             static_cast<double>(ops_);
  return out;
}

double ErrorAccumulator::op_error_rate() const noexcept {
  if (ops_ == 0) return 0.0;
  return static_cast<double>(err_ops_) / static_cast<double>(ops_);
}

double ErrorAccumulator::mse() const noexcept {
  if (ops_ == 0) return 0.0;
  return sum_sq_err_ / static_cast<double>(ops_);
}

double ErrorAccumulator::snr_db() const noexcept {
  if (sum_sq_err_ <= 0.0)
    return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(sum_ref_sq_ / sum_sq_err_);
}

double ErrorAccumulator::mean_hamming() const noexcept {
  if (ops_ == 0) return 0.0;
  return static_cast<double>(bit_errors_) / static_cast<double>(ops_);
}

double ErrorAccumulator::normalized_hamming() const noexcept {
  return mean_hamming() / nbits_;
}

double ErrorAccumulator::mred() const noexcept {
  if (ops_ == 0) return 0.0;
  return sum_rel_err_ / static_cast<double>(ops_);
}

}  // namespace vosim
