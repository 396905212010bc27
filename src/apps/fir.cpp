#include "src/apps/fir.hpp"

#include <cmath>
#include <limits>
#include <numbers>

#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {

FixedSignal make_test_signal(std::size_t length, int sample_bits,
                             std::uint64_t seed) {
  VOSIM_EXPECTS(length >= 8);
  VOSIM_EXPECTS(sample_bits >= 8 && sample_bits <= 16);
  FixedSignal sig;
  sig.sample_bits = sample_bits;
  sig.samples.reserve(length);
  Rng rng(seed);
  const double full = static_cast<double>(mask_n(sample_bits));
  const double mid = full / 2.0;
  for (std::size_t i = 0; i < length; ++i) {
    const double t = static_cast<double>(i);
    double v = mid;
    v += 0.30 * mid * std::sin(2.0 * std::numbers::pi * t / 64.0);
    v += 0.15 * mid * std::sin(2.0 * std::numbers::pi * t / 9.0);
    v += 0.02 * mid * rng.gaussian();
    v = std::min(std::max(v, 0.0), full);
    sig.samples.push_back(static_cast<std::uint64_t>(v));
  }
  return sig;
}

FixedSignal fir_lowpass5(const FixedSignal& input, const BatchAdderFn& add) {
  constexpr int acc_bits = 16;
  const std::uint64_t m = mask_n(acc_bits);
  FixedSignal out;
  out.sample_bits = input.sample_bits;
  const auto n = input.samples.size();
  out.samples.resize(n, 0);

  const auto sample = [&](long k) {
    const long idx =
        std::min<long>(std::max<long>(k, 0), static_cast<long>(n) - 1);
    return input.samples[static_cast<std::size_t>(idx)];
  };
  // One term vector per accumulation pass of the clamped-edge
  // convolution with taps {1,4,6,4,1}.
  std::vector<std::uint64_t> acc(n, 0);
  std::vector<std::uint64_t> term(n);
  const auto pass = [&](auto&& term_of) {
    for (std::size_t i = 0; i < n; ++i)
      term[i] = term_of(static_cast<long>(i)) & m;
    add(acc, term, acc);
    for (std::size_t i = 0; i < n; ++i) acc[i] &= m;
  };
  pass([&](long i) { return sample(i - 2); });
  pass([&](long i) { return sample(i + 2); });
  pass([&](long i) { return sample(i - 1) << 2; });
  pass([&](long i) { return sample(i + 1) << 2; });
  pass([&](long i) { return sample(i) << 2; });
  pass([&](long i) { return sample(i) << 1; });
  for (std::size_t i = 0; i < n; ++i)
    out.samples[i] = (acc[i] >> 4) & mask_n(input.sample_bits);
  return out;
}

double signal_snr_db(const FixedSignal& reference, const FixedSignal& test) {
  VOSIM_EXPECTS(reference.samples.size() == test.samples.size());
  double sig = 0.0;
  double noise = 0.0;
  for (std::size_t i = 0; i < reference.samples.size(); ++i) {
    const double r = static_cast<double>(reference.samples[i]);
    const double d = r - static_cast<double>(test.samples[i]);
    sig += r * r;
    noise += d * d;
  }
  if (noise == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(sig / noise);
}

}  // namespace vosim
