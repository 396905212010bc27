// Model-fidelity evaluation: how closely the statistical model tracks
// the (simulated) hardware operator on held-out patterns — the data
// behind the paper's Fig. 7.
#ifndef VOSIM_MODEL_EVALUATION_HPP
#define VOSIM_MODEL_EVALUATION_HPP

#include <vector>

#include "src/model/vos_model.hpp"

namespace vosim {

/// Fidelity of one model against one oracle.
struct FidelityResult {
  OperatingTriad triad;
  double snr_db = 0.0;            ///< +inf when the match is perfect
  double normalized_hamming = 0.0;
  double mse = 0.0;
  double model_ber = 0.0;   ///< model vs exact addition
  double oracle_ber = 0.0;  ///< oracle vs exact addition
  bool exact_match = false; ///< model output == oracle output everywhere
};

/// Evaluation knobs. Evaluation patterns must differ from training ones
/// (a different seed), as in any honest calibration study.
struct FidelityConfig {
  std::size_t num_patterns = 20000;
  std::uint64_t pattern_seed = 1729;  ///< held-out stimuli
};

/// Compares model and oracle outputs pattern by pattern; the *oracle*
/// output is the SNR reference (paper Section IV).
FidelityResult evaluate_fidelity(const VosAdderModel& model,
                                 const BatchAdderFn& oracle,
                                 const FidelityConfig& config = {});

/// Aggregate of per-triad fidelity over a sweep, as plotted in Fig. 7:
/// triads where both model and oracle are error-free carry no modeling
/// information and are excluded from the means.
struct FidelitySummary {
  double mean_snr_db = 0.0;
  double mean_normalized_hamming = 0.0;
  int evaluated_triads = 0;
  int error_free_triads = 0;
};

FidelitySummary summarize_fidelity(const std::vector<FidelityResult>& runs);

}  // namespace vosim

#endif  // VOSIM_MODEL_EVALUATION_HPP
