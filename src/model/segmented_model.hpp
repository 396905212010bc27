// Segmented statistical model — an extension of the paper's Section IV
// model (its stated perspective: richer parameter sets Pi per operator).
//
// The base model truncates *all* carries with one sampled window, which
// fits the ripple adder's single serial chain but averages away the
// parallel-prefix adder's structure, where different output regions fail
// at different depths. The segmented model splits the output word into
// segments, learns one carry-window table per segment (conditioned on
// the longest carry *arriving in* that segment), and samples the
// segments independently at inference.
#ifndef VOSIM_MODEL_SEGMENTED_MODEL_HPP
#define VOSIM_MODEL_SEGMENTED_MODEL_HPP

#include <cstdint>
#include <vector>

#include "src/model/prob_table.hpp"
#include "src/model/trainer.hpp"
#include "src/tech/operating_point.hpp"

namespace vosim {

/// Windowed addition with a per-segment carry window: the carry into bit
/// i survives when its travel distance is at most windows[segment(i)].
/// Segment s covers bits [bounds[s], bounds[s+1]); the carry-out belongs
/// to the last segment. bounds must start at 0 and end at width+1.
std::uint64_t segmented_windowed_add(std::uint64_t a, std::uint64_t b,
                                     int width,
                                     const std::vector<int>& bounds,
                                     const std::vector<int>& windows);

/// Longest carry travel distance into bits [lo, hi) of a+b (0 when no
/// carry reaches the segment). hi may be width+1 to include the
/// carry-out.
int max_chain_into_segment(std::uint64_t a, std::uint64_t b, int width,
                           int lo, int hi);

/// Equal-width segment boundaries over width+1 output bits.
std::vector<int> equal_segments(int width, int num_segments);

/// Per-segment statistical VOS adder model.
class SegmentedVosModel {
 public:
  SegmentedVosModel(int width, OperatingTriad triad,
                    std::vector<int> bounds,
                    std::vector<CarryChainProbTable> tables);

  std::uint64_t add(std::uint64_t a, std::uint64_t b, Rng& rng) const;

  int width() const noexcept { return width_; }
  int num_segments() const noexcept {
    return static_cast<int>(tables_.size());
  }
  const OperatingTriad& triad() const noexcept { return triad_; }
  const std::vector<int>& bounds() const noexcept { return bounds_; }
  const CarryChainProbTable& table(int segment) const;

 private:
  int width_;
  OperatingTriad triad_;
  std::vector<int> bounds_;
  std::vector<CarryChainProbTable> tables_;
};

/// Algorithm-1-style training, one table per segment: for every pattern
/// the best window of each segment is chosen by minimizing the distance
/// restricted to that segment's bits.
SegmentedVosModel train_segmented_model(int width,
                                        const OperatingTriad& triad,
                                        const BatchAdderFn& oracle,
                                        int num_segments,
                                        const TrainerConfig& config = {});

}  // namespace vosim

#endif  // VOSIM_MODEL_SEGMENTED_MODEL_HPP
