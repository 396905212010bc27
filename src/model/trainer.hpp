// Offline optimization constructing the probability table (paper
// Algorithm 1): for each training pair, find the carry window whose
// modified addition best matches the hardware output under the chosen
// distance metric, and histogram it against the theoretical chain.
#ifndef VOSIM_MODEL_TRAINER_HPP
#define VOSIM_MODEL_TRAINER_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <span>

#include "src/characterize/patterns.hpp"
#include "src/model/distance.hpp"
#include "src/model/prob_table.hpp"

namespace vosim {

/// An n-bit adder over equal-length operand vectors: out[i] = a[i] +
/// b[i], each sum (n+1) bits wide; the caller masks or saturates as it
/// needs. The additions happen in element order. `out` may alias `a`
/// or `b`. This is both the applications' pluggable adder
/// (src/apps/approx_arith.hpp) and the "hardware adder" of Algorithm 1,
/// which returns the sampled (width+1)-bit sums: usually
/// sim_batch_adder_fn() over a VosDutSim, but it can wrap a silicon
/// trace or another model.
using BatchAdderFn = std::function<void(
    std::span<const std::uint64_t>, std::span<const std::uint64_t>,
    std::span<std::uint64_t>)>;

/// Training knobs.
struct TrainerConfig {
  std::size_t num_patterns = 20000;
  DistanceMetric metric = DistanceMetric::kMse;
  std::uint64_t pattern_seed = 42;
};

/// Runs Algorithm 1 and returns the normalized probability table.
CarryChainProbTable train_carry_table(int width, const BatchAdderFn& oracle,
                                      const TrainerConfig& config = {});

/// Single-pair inner step of Algorithm 1 (exposed for tests): the
/// smallest window whose modified addition minimizes the distance to the
/// observed output.
int best_window(std::uint64_t a, std::uint64_t b, int width,
                std::uint64_t observed, DistanceMetric metric);

/// Patterns per oracle call when training or evaluating a model: whole
/// 64-lane words, so a gate-level oracle runs full levelized passes.
inline constexpr std::size_t kOracleChunk = 256;

/// Draws `count` patterns from `patterns`, sends them through `oracle`
/// one kOracleChunk-sized call at a time and calls visit(pattern,
/// observed) for each, in stream order.
template <typename Visit>
void observe_stream(PatternStream& patterns, std::size_t count,
                    const BatchAdderFn& oracle, Visit&& visit) {
  std::array<std::uint64_t, kOracleChunk> a{};
  std::array<std::uint64_t, kOracleChunk> b{};
  std::array<std::uint64_t, kOracleChunk> out{};
  for (std::size_t done = 0; done < count; done += kOracleChunk) {
    const std::size_t n = std::min(kOracleChunk, count - done);
    for (std::size_t i = 0; i < n; ++i) {
      const OperandPair pat = patterns.next();
      a[i] = pat.a;
      b[i] = pat.b;
    }
    oracle(std::span<const std::uint64_t>(a.data(), n),
           std::span<const std::uint64_t>(b.data(), n),
           std::span<std::uint64_t>(out.data(), n));
    for (std::size_t i = 0; i < n; ++i) visit(OperandPair{a[i], b[i]}, out[i]);
  }
}

}  // namespace vosim

#endif  // VOSIM_MODEL_TRAINER_HPP
