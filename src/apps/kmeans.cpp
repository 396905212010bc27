#include "src/apps/kmeans.hpp"

#include <algorithm>
#include <climits>
#include <numeric>

#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {

namespace {

constexpr int acc_bits = 16;

/// |p - q| per element through the routed adder at coordinate width
/// (8 bits): the larger value minus the smaller.
void abs_diff(const BatchAdderFn& add, std::vector<std::uint64_t>& p,
              std::vector<std::uint64_t>& q, std::vector<std::uint64_t>& d) {
  for (std::size_t i = 0; i < p.size(); ++i)
    if (p[i] < q[i]) std::swap(p[i], q[i]);
  d.resize(p.size());
  approx_sub(add, 8, p, q, d);
}

}  // namespace

ClusterDataset make_cluster_dataset(int k, int points_per_cluster,
                                    std::uint64_t seed) {
  VOSIM_EXPECTS(k >= 2 && k <= 8);
  VOSIM_EXPECTS(points_per_cluster >= 1);
  ClusterDataset data;
  Rng rng(seed);
  // Centers on a coarse grid, far apart.
  for (int c = 0; c < k; ++c) {
    Point2D center;
    center.x = static_cast<std::uint8_t>(40 + 170 * (c % 2) +
                                         static_cast<int>(rng.below(30)));
    center.y = static_cast<std::uint8_t>(40 + 80 * (c / 2) +
                                         static_cast<int>(rng.below(30)));
    data.true_center.push_back(center);
    for (int i = 0; i < points_per_cluster; ++i) {
      const double gx = 8.0 * rng.gaussian();
      const double gy = 8.0 * rng.gaussian();
      Point2D p;
      p.x = static_cast<std::uint8_t>(
          std::clamp(center.x + gx, 0.0, 255.0));
      p.y = static_cast<std::uint8_t>(
          std::clamp(center.y + gy, 0.0, 255.0));
      data.points.push_back(p);
      data.true_label.push_back(c);
    }
  }
  // Deterministic Fisher-Yates shuffle: consumers that seed centers from
  // the first k points must not start inside a single blob.
  for (std::size_t i = data.points.size(); i > 1; --i) {
    const std::size_t j = rng.below(i);
    std::swap(data.points[i - 1], data.points[j]);
    std::swap(data.true_label[i - 1], data.true_label[j]);
  }
  return data;
}

KmeansResult kmeans(const std::vector<Point2D>& points, int k,
                    const BatchAdderFn& add, int max_iterations) {
  VOSIM_EXPECTS(k >= 1);
  VOSIM_EXPECTS(points.size() >= static_cast<std::size_t>(k));
  KmeansResult res;
  // Farthest-point initialization (deterministic, exact arithmetic —
  // seeding is control logic, only the clustering loop is approximate).
  res.centers.push_back(points.front());
  while (static_cast<int>(res.centers.size()) < k) {
    std::size_t best_i = 0;
    long best_d = -1;
    for (std::size_t i = 0; i < points.size(); ++i) {
      long nearest = LONG_MAX;
      for (const Point2D& c : res.centers) {
        const long d = std::abs(static_cast<long>(points[i].x) - c.x) +
                       std::abs(static_cast<long>(points[i].y) - c.y);
        nearest = std::min(nearest, d);
      }
      if (nearest > best_d) {
        best_d = nearest;
        best_i = i;
      }
    }
    res.centers.push_back(points[best_i]);
  }
  res.assignment.assign(points.size(), 0);

  const auto uk = static_cast<std::size_t>(k);
  const std::size_t pairs = points.size() * uk;
  std::vector<std::uint64_t> p(pairs);
  std::vector<std::uint64_t> q(pairs);
  std::vector<std::uint64_t> dx;
  std::vector<std::uint64_t> dy;
  for (int iter = 0; iter < max_iterations; ++iter) {
    ++res.iterations;
    bool changed = false;
    // Assignment step: routed-arithmetic Manhattan distances of every
    // (point, center) pair, pair j = i * k + c.
    for (std::size_t j = 0; j < pairs; ++j) {
      p[j] = points[j / uk].x;
      q[j] = res.centers[j % uk].x;
    }
    abs_diff(add, p, q, dx);
    for (std::size_t j = 0; j < pairs; ++j) {
      p[j] = points[j / uk].y;
      q[j] = res.centers[j % uk].y;
    }
    abs_diff(add, p, q, dy);
    add(dx, dy, dx);
    for (std::size_t i = 0; i < points.size(); ++i) {
      int best = 0;
      std::uint64_t best_d = ~0ULL;
      for (std::size_t c = 0; c < uk; ++c) {
        const std::uint64_t d = dx[i * uk + c] & mask_n(acc_bits);
        if (d < best_d) {
          best_d = d;
          best = static_cast<int>(c);
        }
      }
      if (res.assignment[i] != best) {
        res.assignment[i] = best;
        changed = true;
      }
    }
    if (!changed && iter > 0) {
      res.converged = true;
      break;
    }
    // Update step (exact control arithmetic).
    std::vector<long> sx(static_cast<std::size_t>(k), 0);
    std::vector<long> sy(static_cast<std::size_t>(k), 0);
    std::vector<long> count(static_cast<std::size_t>(k), 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto c = static_cast<std::size_t>(res.assignment[i]);
      sx[c] += points[i].x;
      sy[c] += points[i].y;
      ++count[c];
    }
    for (int c = 0; c < k; ++c) {
      const auto uc = static_cast<std::size_t>(c);
      if (count[uc] == 0) continue;  // empty cluster keeps its center
      res.centers[uc].x =
          static_cast<std::uint8_t>(sx[uc] / count[uc]);
      res.centers[uc].y =
          static_cast<std::uint8_t>(sy[uc] / count[uc]);
    }
  }
  return res;
}

double clustering_accuracy(const ClusterDataset& data,
                           const std::vector<int>& assignment) {
  VOSIM_EXPECTS(assignment.size() == data.points.size());
  const int k = static_cast<int>(data.true_center.size());
  VOSIM_EXPECTS(k >= 1 && k <= 5);
  std::vector<int> perm(static_cast<std::size_t>(k));
  std::iota(perm.begin(), perm.end(), 0);
  double best = 0.0;
  do {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < assignment.size(); ++i) {
      const int mapped = perm[static_cast<std::size_t>(assignment[i])];
      if (mapped == data.true_label[i]) ++hits;
    }
    best = std::max(best,
                    static_cast<double>(hits) /
                        static_cast<double>(assignment.size()));
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

}  // namespace vosim
