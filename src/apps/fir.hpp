// Fixed-point FIR filtering with routed arithmetic — the signal-
// processing error-resilient workload (soft-DSP lineage, paper ref [4]).
#ifndef VOSIM_APPS_FIR_HPP
#define VOSIM_APPS_FIR_HPP

#include <cstdint>
#include <vector>

#include "src/apps/approx_arith.hpp"

namespace vosim {

/// Unsigned fixed-point samples (offset binary), `sample_bits` wide.
struct FixedSignal {
  int sample_bits = 12;
  std::vector<std::uint64_t> samples;
};

/// Two tones plus noise, centered at half scale. Deterministic per seed.
FixedSignal make_test_signal(std::size_t length, int sample_bits,
                             std::uint64_t seed);

/// Symmetric low-pass FIR (taps 1,4,6,4,1, /16) issued as six
/// whole-signal passes, one per tap term: pass k adds every sample's
/// k-th term into its 16-bit accumulator through `add`, so only the
/// six passes serialize. Edges clamp; the output is rescaled to the
/// input's sample width.
FixedSignal fir_lowpass5(const FixedSignal& input, const BatchAdderFn& add);

/// Signal-to-noise ratio of `test` against `reference` (dB, +inf when
/// identical): the reference signal is the "signal", their difference
/// the "noise".
double signal_snr_db(const FixedSignal& reference, const FixedSignal& test);

}  // namespace vosim

#endif  // VOSIM_APPS_FIR_HPP
