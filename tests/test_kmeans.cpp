// K-means application tests with exact and degraded adders.
#include <gtest/gtest.h>

#include "src/apps/kmeans.hpp"
#include "src/model/prob_table.hpp"
#include "src/util/contracts.hpp"

namespace vosim {
namespace {

VosAdderModel truncating_model(int width, int window) {
  const auto n = static_cast<std::size_t>(width) + 1;
  std::vector<std::vector<std::uint64_t>> counts(
      n, std::vector<std::uint64_t>(n, 0));
  for (int l = 0; l <= width; ++l)
    counts[static_cast<std::size_t>(l)]
          [static_cast<std::size_t>(std::min(l, window))] = 1;
  return VosAdderModel(width, {0.3, 0.5, 0.0}, DistanceMetric::kMse,
                       CarryChainProbTable::from_counts(width, counts));
}

TEST(Kmeans, DatasetShape) {
  const ClusterDataset data = make_cluster_dataset(4, 50, 1);
  EXPECT_EQ(data.points.size(), 200u);
  EXPECT_EQ(data.true_label.size(), 200u);
  EXPECT_EQ(data.true_center.size(), 4u);
  // Deterministic per seed.
  const ClusterDataset again = make_cluster_dataset(4, 50, 1);
  EXPECT_EQ(data.points[17].x, again.points[17].x);
}

TEST(Kmeans, ExactAdderRecoversClusters) {
  const ClusterDataset data = make_cluster_dataset(4, 60, 2);
  const KmeansResult res = kmeans(data.points, 4, exact_adder_fn(16));
  EXPECT_TRUE(res.converged);
  EXPECT_GE(clustering_accuracy(data, res.assignment), 0.95);
}

TEST(Kmeans, PerfectAccuracyOnSelfLabels) {
  const ClusterDataset data = make_cluster_dataset(3, 20, 3);
  EXPECT_DOUBLE_EQ(clustering_accuracy(data, data.true_label), 1.0);
}

TEST(Kmeans, AccuracyHandlesPermutedLabels) {
  const ClusterDataset data = make_cluster_dataset(3, 20, 4);
  std::vector<int> permuted = data.true_label;
  for (int& l : permuted) l = (l + 1) % 3;
  EXPECT_DOUBLE_EQ(clustering_accuracy(data, permuted), 1.0);
}

TEST(Kmeans, MildVosBarelyHurtsClustering) {
  // Clustering is the paper's poster child for error resilience: with a
  // mild carry truncation the assignment accuracy stays high.
  const ClusterDataset data = make_cluster_dataset(4, 60, 5);
  const VosAdderModel model = truncating_model(16, 9);
  Rng rng(6);
  const BatchAdderFn add = model_adder_fn(model, rng);
  const KmeansResult res = kmeans(data.points, 4, add);
  EXPECT_GE(clustering_accuracy(data, res.assignment), 0.90);
}

TEST(Kmeans, DeepVosDegradesClustering) {
  const ClusterDataset data = make_cluster_dataset(4, 60, 7);
  const VosAdderModel model = truncating_model(16, 2);  // savage truncation
  Rng rng(8);
  const BatchAdderFn add = model_adder_fn(model, rng);
  const KmeansResult res = kmeans(data.points, 4, add, 16);
  const double acc = clustering_accuracy(data, res.assignment);
  const KmeansResult exact = kmeans(data.points, 4, exact_adder_fn(16));
  EXPECT_LT(acc, clustering_accuracy(data, exact.assignment) + 1e-12);
}

TEST(Kmeans, AssignmentIsFivePassesOverAllPairs) {
  // Each iteration: |dx| (two passes), |dy| (two), |dx| + |dy| (one),
  // every pass one batch over all (point, center) pairs.
  const ClusterDataset data = make_cluster_dataset(3, 20, 10);
  const BatchAdderFn exact = exact_adder_fn(16);
  std::vector<std::size_t> batches;
  const BatchAdderFn logged = [&](std::span<const std::uint64_t> a,
                                  std::span<const std::uint64_t> b,
                                  std::span<std::uint64_t> out) {
    batches.push_back(a.size());
    exact(a, b, out);
  };
  const KmeansResult res = kmeans(data.points, 3, logged);
  ASSERT_GE(res.iterations, 1);
  EXPECT_EQ(batches.size(), 5u * static_cast<std::size_t>(res.iterations));
  for (const std::size_t n : batches) EXPECT_EQ(n, data.points.size() * 3);
  const KmeansResult direct = kmeans(data.points, 3, exact);
  EXPECT_EQ(res.assignment, direct.assignment);
}

TEST(Kmeans, Validation) {
  const ClusterDataset data = make_cluster_dataset(2, 5, 9);
  EXPECT_THROW(kmeans(data.points, 100, exact_adder_fn(16)),
               ContractViolation);
  EXPECT_THROW(make_cluster_dataset(1, 5, 1), ContractViolation);
  std::vector<int> wrong(3, 0);
  EXPECT_THROW(clustering_accuracy(data, wrong), ContractViolation);
}

}  // namespace
}  // namespace vosim
