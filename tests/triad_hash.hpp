// One FNV-1a hash over every TriadResult field, for golden pins that
// must notice any change to a characterization sweep's results, energy
// bits included.
#ifndef VOSIM_TESTS_TRIAD_HASH_HPP
#define VOSIM_TESTS_TRIAD_HASH_HPP

#include <bit>
#include <cstdint>
#include <vector>

#include "src/characterize/characterizer.hpp"

namespace vosim {

/// FNV-1a over the bit patterns of every TriadResult field.
inline std::uint64_t hash_results(const std::vector<TriadResult>& res) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const TriadResult& r : res) {
    add(bits(r.triad.tclk_ns));
    add(bits(r.triad.vdd_v));
    add(bits(r.triad.vbb_v));
    add(bits(r.ber));
    add(r.bitwise_ber.size());
    for (const double b : r.bitwise_ber) add(bits(b));
    add(bits(r.op_error_rate));
    add(bits(r.mse));
    add(bits(r.mred));
    add(bits(r.energy_per_op_fj));
    add(bits(r.dynamic_energy_fj));
    add(bits(r.leakage_energy_fj));
    add(bits(r.mean_settle_ps));
    add(r.patterns);
  }
  return h;
}

}  // namespace vosim

#endif  // VOSIM_TESTS_TRIAD_HASH_HPP
