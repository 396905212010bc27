#include "src/model/evaluation.hpp"

#include <cmath>

#include "src/characterize/metrics.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

FidelityResult evaluate_fidelity(const VosAdderModel& model,
                                 const BatchAdderFn& oracle,
                                 const FidelityConfig& config) {
  VOSIM_EXPECTS(config.num_patterns > 0);
  const int width = model.width();
  PatternStream patterns(width, config.pattern_seed);
  constexpr std::uint64_t kModelRngSeed = 99;  // the model's window draws
  Rng model_rng(kModelRngSeed);

  ErrorAccumulator model_vs_oracle(width + 1);  // oracle as reference
  ErrorAccumulator model_vs_exact(width + 1);
  ErrorAccumulator oracle_vs_exact(width + 1);

  observe_stream(patterns, config.num_patterns, oracle,
                 [&](const OperandPair& pat, std::uint64_t hw) {
                   const std::uint64_t md =
                       model.add(pat.a, pat.b, model_rng);
                   const std::uint64_t gold =
                       exact_add(pat.a, pat.b, width);
                   model_vs_oracle.add(hw, md);
                   model_vs_exact.add(gold, md);
                   oracle_vs_exact.add(gold, hw);
                 });

  FidelityResult out;
  out.triad = model.triad();
  out.snr_db = model_vs_oracle.snr_db();
  out.normalized_hamming = model_vs_oracle.normalized_hamming();
  out.mse = model_vs_oracle.mse();
  out.model_ber = model_vs_exact.ber();
  out.oracle_ber = oracle_vs_exact.ber();
  out.exact_match = model_vs_oracle.ber() == 0.0;
  return out;
}

FidelitySummary summarize_fidelity(const std::vector<FidelityResult>& runs) {
  FidelitySummary s;
  for (const FidelityResult& r : runs) {
    // A triad where the hardware never errs and the model matches it
    // exactly says nothing about error modeling; Fig. 7 statistics are
    // over the informative triads.
    if (r.oracle_ber == 0.0 && r.exact_match) {
      ++s.error_free_triads;
      continue;
    }
    ++s.evaluated_triads;
    s.mean_snr_db += std::min(r.snr_db, snr_display_cap_db);
    s.mean_normalized_hamming += r.normalized_hamming;
  }
  if (s.evaluated_triads > 0) {
    s.mean_snr_db /= s.evaluated_triads;
    s.mean_normalized_hamming /= s.evaluated_triads;
  }
  return s;
}

}  // namespace vosim
