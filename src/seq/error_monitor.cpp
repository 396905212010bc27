#include "src/seq/error_monitor.hpp"

#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

DoubleSamplingMonitor::DoubleSamplingMonitor(int word_bits,
                                             std::size_t window_ops)
    : word_bits_(word_bits), window_ops_(window_ops) {
  VOSIM_EXPECTS(word_bits >= 1 && word_bits <= 64);
  VOSIM_EXPECTS(window_ops >= 1);
}

void DoubleSamplingMonitor::observe(std::uint64_t sampled,
                                    std::uint64_t settled) {
  record_word(sampled ^ settled);
}

void DoubleSamplingMonitor::record_word(std::uint64_t diff) {
  const int flagged = popcount_u64(diff & mask_n(word_bits_));
  ++total_ops_;
  total_bit_errors_ += static_cast<std::uint64_t>(flagged);
  if (flagged > 0) ++total_err_ops_;

  window_.push_back(static_cast<std::uint8_t>(flagged));
  window_bit_errors_ += static_cast<std::uint64_t>(flagged);
  if (flagged > 0) ++window_err_ops_;
  if (window_.size() > window_ops_) {
    const std::uint8_t old = window_.front();
    window_.pop_front();
    window_bit_errors_ -= old;
    if (old > 0) --window_err_ops_;
  }
}

double DoubleSamplingMonitor::window_ber() const noexcept {
  if (window_.empty()) return 0.0;
  return static_cast<double>(window_bit_errors_) /
         (static_cast<double>(window_.size()) * word_bits_);
}

double DoubleSamplingMonitor::window_op_error_rate() const noexcept {
  if (window_.empty()) return 0.0;
  return static_cast<double>(window_err_ops_) /
         static_cast<double>(window_.size());
}

double DoubleSamplingMonitor::lifetime_ber() const noexcept {
  if (total_ops_ == 0) return 0.0;
  return static_cast<double>(total_bit_errors_) /
         (static_cast<double>(total_ops_) * word_bits_);
}

void DoubleSamplingMonitor::reset_window() {
  window_.clear();
  window_bit_errors_ = 0;
  window_err_ops_ = 0;
}

}  // namespace vosim
