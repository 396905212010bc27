// Ablation (ours): the paper's carry-chain statistical model vs a naive
// uniform bit-flip error model with the same BER budget.
//
// Both models are fitted to the same simulated hardware at each triad;
// fidelity is measured on held-out patterns. The carry-chain model
// should win decisively because VOS errors are structured (long-chain
// truncation), not i.i.d. bit noise — this is the modelling insight of
// Section IV.
#include <algorithm>
#include <array>
#include <iostream>

#include "src/sim/vos_dut.hpp"
#include "src/util/stats.hpp"
#include "src/util/table.hpp"

#include "bench/bench_common.hpp"
#include "src/apps/approx_arith.hpp"
#include "src/characterize/metrics.hpp"
#include "src/model/evaluation.hpp"
#include "src/model/vos_model.hpp"
#include "src/util/parallel.hpp"

namespace {

using namespace vosim;

/// Naive baseline: flips each output bit independently with the
/// per-position probability measured on the training set.
class BitFlipModel {
 public:
  BitFlipModel(int width, std::vector<double> flip_prob)
      : width_(width), flip_prob_(std::move(flip_prob)) {}

  std::uint64_t add(std::uint64_t a, std::uint64_t b, Rng& rng) const {
    std::uint64_t out = a + b;
    for (int i = 0; i <= width_; ++i)
      if (rng.flip(flip_prob_[static_cast<std::size_t>(i)]))
        out ^= (1ULL << i);
    return out;
  }

 private:
  int width_;
  std::vector<double> flip_prob_;
};

}  // namespace

int main() {
  using namespace vosim::bench;
  print_header(
      "Ablation — carry-chain model vs naive uniform bit-flip model",
      "paper Section IV modelling rationale");

  const CellLibrary& lib = make_fdsoi28_lvt();
  const std::size_t budget = pattern_budget() / 2;

  TextTable t({"Adder", "chain SNR [dB]", "flip SNR [dB]",
               "chain nHamming", "flip nHamming", "triads"});
  for (const Benchmark& b : paper_benchmarks()) {
    RunningStats chain_snr;
    RunningStats flip_snr;
    RunningStats chain_h;
    RunningStats flip_h;
    std::vector<std::array<double, 4>> rows(b.triads.size(),
                                            {0, 0, 0, 0});
    std::vector<std::uint8_t> informative(b.triads.size(), 0);

    parallel_for(b.triads.size(), [&](std::size_t ti) {
      const OperatingTriad& triad = b.triads[ti];
      // --- fit both models on the training stream ---
      VosDutSim train_sim(b.dut, lib, triad);
      ErrorAccumulator train_acc(b.width + 1);
      PatternStream train_patterns(b.width, 42);
      // Shared pass: collect bitwise flip stats for the naive model.
      for (std::size_t i = 0; i < budget; ++i) {
        const OperandPair p = train_patterns.next();
        const std::uint64_t hw = train_sim.apply(p.a, p.b).sampled;
        train_acc.add(p.a + p.b, hw);
      }
      if (train_acc.ber() == 0.0) return;  // uninformative triad
      informative[ti] = 1;

      const BitFlipModel flip_model(b.width,
                                    train_acc.bitwise_error_probability());
      // Carry-chain model trained from a replay oracle over the same
      // stream (deterministic streaming semantics).
      VosDutSim replay_sim(b.dut, lib, triad);
      TrainerConfig tcfg;
      tcfg.num_patterns = budget;
      const VosAdderModel chain_model = train_vos_model(
          b.width, triad, sim_batch_adder_fn(replay_sim), tcfg);

      // --- evaluate both on held-out patterns ---
      VosDutSim eval_sim(b.dut, lib, triad);
      PatternStream eval_patterns(b.width, 1729);
      Rng chain_rng(99);
      Rng flip_rng(98);
      ErrorAccumulator chain_acc(b.width + 1);
      ErrorAccumulator flip_acc(b.width + 1);
      for (std::size_t i = 0; i < budget; ++i) {
        const OperandPair p = eval_patterns.next();
        const std::uint64_t hw = eval_sim.apply(p.a, p.b).sampled;
        chain_acc.add(hw, chain_model.add(p.a, p.b, chain_rng));
        flip_acc.add(hw, flip_model.add(p.a, p.b, flip_rng));
      }
      rows[ti] = {std::min(chain_acc.snr_db(), snr_display_cap_db),
                  std::min(flip_acc.snr_db(), snr_display_cap_db),
                  chain_acc.normalized_hamming(),
                  flip_acc.normalized_hamming()};
    });

    for (std::size_t ti = 0; ti < rows.size(); ++ti) {
      if (!informative[ti]) continue;
      chain_snr.add(rows[ti][0]);
      flip_snr.add(rows[ti][1]);
      chain_h.add(rows[ti][2]);
      flip_h.add(rows[ti][3]);
    }
    t.add_row({b.name, format_double(chain_snr.mean(), 1),
               format_double(flip_snr.mean(), 1),
               format_double(chain_h.mean(), 4),
               format_double(flip_h.mean(), 4),
               std::to_string(chain_snr.count())});
  }
  t.print(std::cout);
  write_csv(t, "ablation_errormodel.csv");
  std::cout << "\nreading: the carry-chain model should dominate the naive"
               " bit-flip model on SNR — VOS errors are structured by the"
               " input carry chains, not i.i.d.\n"
            << "CSV: ablation_errormodel.csv\n";
  return 0;
}
