#include "src/campaign/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/apps/dot.hpp"
#include "src/apps/fir.hpp"
#include "src/apps/image.hpp"
#include "src/apps/kmeans.hpp"
#include "src/characterize/metrics.hpp"
#include "src/util/rng.hpp"

namespace vosim {

namespace {

/// Wraps an adder so the workload can report how many routed additions
/// it performed (the op count the energy join multiplies against).
BatchAdderFn counted(const BatchAdderFn& add, std::uint64_t& count) {
  return [&add, &count](std::span<const std::uint64_t> a,
                        std::span<const std::uint64_t> b,
                        std::span<std::uint64_t> out) {
    count += a.size();
    add(a, b, out);
  };
}

QualityResult quality(const std::string& metric, double value,
                      std::uint64_t adds) {
  // dB metrics are +infinity on error-free runs; store the display cap
  // instead so results stay finite through tables and the JSONL store.
  if (metric == "snr_db" || metric == "psnr_db")
    value = std::min(value, snr_display_cap_db);
  return {metric, value, normalized_quality(metric, value), adds};
}

QualityResult run_fir(const BatchAdderFn& add, std::uint64_t seed) {
  const FixedSignal signal = make_test_signal(768, 12, seed);
  const FixedSignal reference = fir_lowpass5(signal, exact_adder_fn(16));
  std::uint64_t adds = 0;
  const FixedSignal filtered = fir_lowpass5(signal, counted(add, adds));
  return quality("snr_db", signal_snr_db(reference, filtered), adds);
}

QualityResult run_blur(const BatchAdderFn& add, std::uint64_t seed) {
  const GrayImage scene = make_synthetic_scene(72, 72, seed);
  const GrayImage reference = gaussian_blur3(scene, exact_adder_fn(16));
  std::uint64_t adds = 0;
  const GrayImage blurred = gaussian_blur3(scene, counted(add, adds));
  return quality("psnr_db", psnr_db(reference, blurred), adds);
}

QualityResult run_sobel(const BatchAdderFn& add, std::uint64_t seed) {
  const GrayImage scene = make_synthetic_scene(72, 72, seed);
  const GrayImage reference = sobel_magnitude(scene, exact_adder_fn(16));
  std::uint64_t adds = 0;
  const GrayImage edges = sobel_magnitude(scene, counted(add, adds));
  return quality("psnr_db", psnr_db(reference, edges), adds);
}

QualityResult run_kmeans(const BatchAdderFn& add, std::uint64_t seed) {
  const ClusterDataset data = make_cluster_dataset(4, 90, seed);
  std::uint64_t adds = 0;
  const KmeansResult res = kmeans(data.points, 4, counted(add, adds));
  return quality("accuracy", clustering_accuracy(data, res.assignment),
                 adds);
}

QualityResult run_dot(const BatchAdderFn& add, std::uint64_t seed) {
  constexpr int acc_bits = 16;
  constexpr std::size_t pairs = 32;
  constexpr std::size_t length = 24;
  Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> x(pairs);
  std::vector<std::vector<std::uint8_t>> y(pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    x[p].resize(length);
    y[p].resize(length);
    for (auto& v : x[p]) v = static_cast<std::uint8_t>(rng.below(256));
    for (auto& v : y[p]) v = static_cast<std::uint8_t>(rng.below(256));
  }
  std::uint64_t adds = 0;
  const std::vector<std::uint64_t> ref =
      approx_dot(exact_adder_fn(acc_bits), x, y, acc_bits);
  const std::vector<std::uint64_t> out =
      approx_dot(counted(add, adds), x, y, acc_bits);
  double rel_err = 0.0;
  for (std::size_t p = 0; p < pairs; ++p) {
    const double diff = ref[p] >= out[p]
                            ? static_cast<double>(ref[p] - out[p])
                            : static_cast<double>(out[p] - ref[p]);
    rel_err +=
        diff / static_cast<double>(std::max<std::uint64_t>(ref[p], 1));
  }
  return quality("mred", rel_err / static_cast<double>(pairs), adds);
}

}  // namespace

const std::vector<Workload>& workload_registry() {
  static const std::vector<Workload> registry = {
      {"fir", "FIR low-pass filtering (signal processing)", "snr_db", 16,
       run_fir},
      {"blur", "Gaussian 3x3 image blur (image processing)", "psnr_db", 16,
       run_blur},
      {"sobel", "Sobel edge magnitude (image processing)", "psnr_db", 16,
       run_sobel},
      {"kmeans", "k-means clustering (machine learning)", "accuracy", 16,
       run_kmeans},
      {"dot", "u8 dot products (data mining)", "mred", 16, run_dot},
  };
  return registry;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workload_registry())
    if (w.name == name) return &w;
  return nullptr;
}

std::vector<Workload> resolve_workloads(
    const std::vector<std::string>& names) {
  std::vector<Workload> out;
  for (const std::string& name : names) {
    if (name == "all") {
      for (const Workload& w : workload_registry()) out.push_back(w);
      continue;
    }
    const Workload* w = find_workload(name);
    if (w == nullptr)
      throw std::invalid_argument("unknown workload '" + name + "'; " +
                                  known_workloads_help());
    out.push_back(*w);
  }
  if (out.empty()) throw std::invalid_argument("no workloads selected");
  return out;
}

std::string known_workloads_help() {
  std::string help = "workloads:";
  for (const Workload& w : workload_registry())
    help += " " + w.name + " (" + w.metric + ")";
  return help;
}

double normalized_quality(const std::string& metric, double value) {
  if (metric == "snr_db" || metric == "psnr_db") {
    const double capped = std::min(value, snr_display_cap_db);
    return std::clamp(capped / snr_display_cap_db, 0.0, 1.0);
  }
  if (metric == "accuracy") return std::clamp(value, 0.0, 1.0);
  if (metric == "mred") return std::clamp(1.0 - value, 0.0, 1.0);
  throw std::invalid_argument("unknown quality metric '" + metric + "'");
}

}  // namespace vosim
