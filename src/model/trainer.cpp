#include "src/model/trainer.hpp"

#include "src/model/carry_chain.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

namespace {

struct WindowFit {
  int cth = 0;     ///< Cth_max of the pair
  int window = 0;  ///< best_window()
};

/// Algorithm 1 iterates C from Cth_max down to 0 and keeps the last
/// window with dist <= best, so ties resolve to the smallest window —
/// the most pessimistic chain truncation consistent with the output.
/// That is the first strict minimum of a scan from C = 0 upward, which
/// grows the windowed sum one carry word at a time (carry_chain.hpp).
WindowFit fit_window(std::uint64_t a, std::uint64_t b, int width,
                     std::uint64_t observed, DistanceMetric metric) {
  const std::uint64_t p = a ^ b;
  std::uint64_t carries = 0;
  WindowFit fit;
  double best = distance(observed, p, width + 1, metric);
  for (std::uint64_t y = first_carry_word(a, b); y != 0;
       y = next_carry_word(y, p)) {
    carries |= y;
    ++fit.cth;
    const double d = distance(observed, p ^ carries, width + 1, metric);
    if (d < best) {
      best = d;
      fit.window = fit.cth;
    }
  }
  return fit;
}

}  // namespace

int best_window(std::uint64_t a, std::uint64_t b, int width,
                std::uint64_t observed, DistanceMetric metric) {
  VOSIM_EXPECTS(width >= 1 && width <= max_word_bits);
  VOSIM_EXPECTS((a & ~mask_n(width)) == 0 && (b & ~mask_n(width)) == 0);
  return fit_window(a, b, width, observed, metric).window;
}

CarryChainProbTable train_carry_table(int width, const BatchAdderFn& oracle,
                                      const TrainerConfig& config) {
  VOSIM_EXPECTS(width >= 1 && width <= max_word_bits);
  VOSIM_EXPECTS(config.num_patterns > 0);
  const auto n = static_cast<std::size_t>(width) + 1;
  std::vector<std::vector<std::uint64_t>> counts(
      n, std::vector<std::uint64_t>(n, 0));

  PatternStream patterns(width, config.pattern_seed);
  observe_stream(patterns, config.num_patterns, oracle,
                 [&](const OperandPair& pat, std::uint64_t observed) {
                   const WindowFit fit = fit_window(pat.a, pat.b, width,
                                                    observed, config.metric);
                   ++counts[static_cast<std::size_t>(fit.cth)]
                           [static_cast<std::size_t>(fit.window)];
                 });
  return CarryChainProbTable::from_counts(width, counts);
}

}  // namespace vosim
