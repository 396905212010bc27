// Error metrics for characterization: BER, per-bit error probability,
// MSE, SNR, Hamming distances (paper Sections IV-V definitions).
#ifndef VOSIM_CHARACTERIZE_METRICS_HPP
#define VOSIM_CHARACTERIZE_METRICS_HPP

#include <cstdint>
#include <vector>

namespace vosim {

/// Accumulates reference/actual word pairs and derives the paper's
/// statistics. `nbits` is the compared word width (adders: width+1,
/// including the carry-out — Fig. 5 plots 9 positions for 8-bit adders).
class ErrorAccumulator {
 public:
  explicit ErrorAccumulator(int nbits);

  void add(std::uint64_t reference, std::uint64_t actual);
  void merge(const ErrorAccumulator& other);

  int nbits() const noexcept { return nbits_; }
  std::uint64_t ops() const noexcept { return ops_; }

  /// Bit Error Rate: faulty output bits / total output bits.
  double ber() const noexcept;
  /// Per-position error probability (index 0 = LSB), size nbits.
  std::vector<double> bitwise_error_probability() const;
  /// Fraction of operations with at least one wrong bit.
  double op_error_rate() const noexcept;
  /// Mean squared numerical error.
  double mse() const noexcept;
  /// Signal-to-noise ratio treating the reference as signal:
  /// 10·log10(Σ ref² / Σ (ref-actual)²). Returns +infinity when
  /// error-free; callers cap for display.
  double snr_db() const noexcept;
  /// Mean Hamming distance per op.
  double mean_hamming() const noexcept;
  /// Mean Hamming distance normalized by word width (paper Fig. 7b).
  double normalized_hamming() const noexcept;
  /// Mean relative error distance: mean of |ref − actual| / max(ref, 1)
  /// — the approximate-multiplier literature's MRED, with the zero-
  /// reference convention that divides by one.
  double mred() const noexcept;

 private:
  int nbits_;
  std::uint64_t ops_ = 0;
  std::uint64_t bit_errors_ = 0;
  std::uint64_t err_ops_ = 0;
  std::vector<std::uint64_t> bit_err_count_;
  double sum_sq_err_ = 0.0;
  double sum_ref_sq_ = 0.0;
  double sum_rel_err_ = 0.0;
};

/// SNR display cap (dB) used by reports when a model is error-free.
inline constexpr double snr_display_cap_db = 60.0;

}  // namespace vosim

#endif  // VOSIM_CHARACTERIZE_METRICS_HPP
