// K-means clustering with routed arithmetic — the data-mining /
// machine-learning class of error-resilient applications from the
// paper's introduction. Distances are Manhattan (sums of absolute
// differences), so the whole inner loop is additions through the
// pluggable adder.
#ifndef VOSIM_APPS_KMEANS_HPP
#define VOSIM_APPS_KMEANS_HPP

#include <cstdint>
#include <vector>

#include "src/apps/approx_arith.hpp"

namespace vosim {

/// A 2-D point with unsigned 8-bit coordinates.
struct Point2D {
  std::uint8_t x = 0;
  std::uint8_t y = 0;
};

/// Labeled synthetic dataset: `k` Gaussian-ish blobs on the 8-bit grid.
struct ClusterDataset {
  std::vector<Point2D> points;
  std::vector<int> true_label;  ///< generating blob of each point
  std::vector<Point2D> true_center;
};

ClusterDataset make_cluster_dataset(int k, int points_per_cluster,
                                    std::uint64_t seed);

/// Result of a k-means run.
struct KmeansResult {
  std::vector<Point2D> centers;
  std::vector<int> assignment;
  int iterations = 0;
  bool converged = false;
};

/// Lloyd's algorithm with Manhattan distances computed through `add`
/// (16-bit accumulators). Each iteration's assignment step is five
/// passes over every (point, center) pair, point-major: |dx| (two
/// passes, at coordinate width), |dy| (two), then |dx| + |dy|.
/// Centroid updates use exact integer division (the control path the
/// paper leaves precise — only the datapath is approximate).
/// Deterministic: farthest-point seeding from the first point.
KmeansResult kmeans(const std::vector<Point2D>& points, int k,
                    const BatchAdderFn& add, int max_iterations = 32);

/// Fraction of points whose cluster matches the generating blob under
/// the best label permutation (brute-force over k! for k <= 5).
double clustering_accuracy(const ClusterDataset& data,
                           const std::vector<int>& assignment);

}  // namespace vosim

#endif  // VOSIM_APPS_KMEANS_HPP
