// Campaign subsystem tests: workload registry, JSONL store round-trip,
// byte-exact number format and resume (kill -9 included), cache-hit
// identity across thread counts, Pareto extraction, model-vs-gate-level
// quality agreement, the determinism the content-keyed cache depends
// on, the prepared-circuit cache and the exact backend's one run per
// workload, the one operation schedule every backend runs, the
// error-free gate-level cells that copy the settled run, each shared
// run made once, and sim-seq provenance culprits.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/campaign/report.hpp"
#include "src/campaign/runner.hpp"
#include "src/campaign/store.hpp"
#include "src/campaign/workload.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/characterize/triads.hpp"
#include "src/model/prob_table.hpp"
#include "src/netlist/dut.hpp"
#include "src/netlist/eval.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_sim.hpp"
#include "src/sim/levelized_sim.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"

namespace vosim {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// A probabilistic table (chains may fall short by two) so the model's
/// Rng actually matters.
VosAdderModel lossy_model(int width) {
  const auto n = static_cast<std::size_t>(width) + 1;
  std::vector<std::vector<std::uint64_t>> counts(
      n, std::vector<std::uint64_t>(n, 0));
  for (int l = 0; l <= width; ++l) {
    counts[static_cast<std::size_t>(l)][static_cast<std::size_t>(l)] = 1;
    if (l >= 6)
      counts[static_cast<std::size_t>(l)][static_cast<std::size_t>(l - 2)] =
          1;
  }
  return VosAdderModel(16, {0.3, 0.5, 0.0}, DistanceMetric::kMse,
                       CarryChainProbTable::from_counts(width, counts));
}

// -------------------------------------------------------------- registry
TEST(WorkloadRegistry, KnowsTheFiveAppKernels) {
  const auto& reg = workload_registry();
  ASSERT_EQ(reg.size(), 5u);
  for (const char* name : {"fir", "blur", "sobel", "kmeans", "dot"}) {
    const Workload* w = find_workload(name);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_EQ(w->width, 16) << name;
    EXPECT_TRUE(static_cast<bool>(w->run)) << name;
  }
  EXPECT_EQ(find_workload("nope"), nullptr);
  EXPECT_EQ(resolve_workloads({"all"}).size(), reg.size());
  EXPECT_EQ(resolve_workloads({"fir", "dot"}).size(), 2u);
  EXPECT_THROW(resolve_workloads({"fir", "nope"}), std::invalid_argument);
  EXPECT_THROW(resolve_workloads({}), std::invalid_argument);
}

TEST(WorkloadRegistry, ExactAdderRunsAreDeterministicAndTopQuality) {
  for (const Workload& w : workload_registry()) {
    const QualityResult a = w.run(exact_adder_fn(w.width), 7);
    const QualityResult b = w.run(exact_adder_fn(w.width), 7);
    EXPECT_EQ(a.value, b.value) << w.name;
    EXPECT_EQ(a.adds, b.adds) << w.name;
    EXPECT_GT(a.adds, 0u) << w.name;
    EXPECT_GE(a.normalized, 0.0) << w.name;
    EXPECT_LE(a.normalized, 1.0) << w.name;
    EXPECT_EQ(a.metric, w.metric) << w.name;
    // Exact arithmetic: reference-equal output for the error-metric
    // workloads (kmeans scores against ground-truth labels instead,
    // so "exact" need not be perfect — only near it).
    if (w.name != "kmeans")
      EXPECT_DOUBLE_EQ(a.normalized, 1.0) << w.name;
    else
      EXPECT_GE(a.normalized, 0.8) << w.name;
  }
}

TEST(WorkloadRegistry, SeedChangesStimuli) {
  // Through a lossy adder the injected errors land on different data,
  // so the quality outcome must move with the seed (exact runs cannot
  // show this: their quality is reference-equal for every seed).
  const Workload* fir = find_workload("fir");
  ASSERT_NE(fir, nullptr);
  auto run_with_seed = [&](std::uint64_t seed) {
    const VosAdderModel model = lossy_model(16);
    Rng rng(99);
    return fir->run(model_adder_fn(model, rng), seed).value;
  };
  EXPECT_NE(run_with_seed(7), run_with_seed(8));
}

TEST(WorkloadRegistry, NormalizedQualityMapping) {
  EXPECT_DOUBLE_EQ(normalized_quality("snr_db", 30.0), 0.5);
  EXPECT_DOUBLE_EQ(normalized_quality("psnr_db", 1e9), 1.0);
  EXPECT_DOUBLE_EQ(normalized_quality("snr_db", -5.0), 0.0);
  EXPECT_DOUBLE_EQ(normalized_quality("accuracy", 0.42), 0.42);
  EXPECT_DOUBLE_EQ(normalized_quality("mred", 0.1), 0.9);
  EXPECT_DOUBLE_EQ(normalized_quality("mred", 2.0), 0.0);
  EXPECT_THROW(normalized_quality("watts", 1.0), std::invalid_argument);
}

// ---------------------------------------------------------------- backend
TEST(ArithBackends, ParseAndNameRoundTrip) {
  for (const ArithBackend b :
       {ArithBackend::kExact, ArithBackend::kModel, ArithBackend::kSimEvent,
        ArithBackend::kSimLevelized, ArithBackend::kSimSeq})
    EXPECT_EQ(parse_arith_backend(arith_backend_name(b)), b);
  EXPECT_EQ(parse_arith_backend("sim"), ArithBackend::kSimLevelized);
  EXPECT_THROW(parse_arith_backend("spice"), std::invalid_argument);
}

// ------------------------------------------------------------------ store
CampaignCell sample_cell() {
  CampaignCell cell;
  cell.key.workload = "fir";
  cell.key.circuit = "rca16";
  cell.key.backend = "model";
  cell.key.triad = {0.1 + 0.2, 0.7, 2.0};  // non-representable double
  cell.key.seed = 42;
  cell.key.train_patterns = 4000;
  cell.metric = "snr_db";
  cell.quality = 23.456789012345678;
  cell.normalized = 0.3909464835390946;
  cell.energy_per_op_fj = 12.25;
  cell.baseline_fj = 57.5;
  cell.ber = 1e-17;
  cell.adds = 4608;
  cell.elapsed_s = 0.25;
  return cell;
}

TEST(CampaignStore, JsonlRoundTripIsExact) {
  const CampaignCell cell = sample_cell();
  const auto parsed = CampaignStore::parse_jsonl(
      CampaignStore::to_jsonl(cell));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->key, cell.key);
  EXPECT_EQ(parsed->key.to_string(), cell.key.to_string());
  EXPECT_EQ(parsed->metric, cell.metric);
  EXPECT_EQ(parsed->quality, cell.quality);
  EXPECT_EQ(parsed->normalized, cell.normalized);
  EXPECT_EQ(parsed->energy_per_op_fj, cell.energy_per_op_fj);
  EXPECT_EQ(parsed->baseline_fj, cell.baseline_fj);
  EXPECT_EQ(parsed->ber, cell.ber);
  EXPECT_EQ(parsed->adds, cell.adds);
  EXPECT_EQ(parsed->elapsed_s, cell.elapsed_s);
  EXPECT_EQ(parsed->key.store_version,
            static_cast<std::uint64_t>(obs::kStoreVersion));
}

TEST(CampaignStore, RejectsMalformedLines) {
  EXPECT_FALSE(CampaignStore::parse_jsonl("").has_value());
  EXPECT_FALSE(CampaignStore::parse_jsonl("not json").has_value());
  EXPECT_FALSE(
      CampaignStore::parse_jsonl("{\"workload\":\"fir\"}").has_value());
  // A numeric field holding garbage.
  std::string line = CampaignStore::to_jsonl(sample_cell());
  const auto at = line.find("\"quality\":");
  line.replace(at, std::string("\"quality\":").size(), "\"quality\":x");
  EXPECT_FALSE(CampaignStore::parse_jsonl(line).has_value());
  // An unsigned field gone negative must not wrap through strtoull.
  std::string neg = CampaignStore::to_jsonl(sample_cell());
  const auto seed_at = neg.find("\"seed\":42");
  neg.replace(seed_at, std::string("\"seed\":42").size(), "\"seed\":-1");
  EXPECT_FALSE(CampaignStore::parse_jsonl(neg).has_value());
  // A present-but-garbled store version is corruption, not an old line.
  std::string bad = CampaignStore::to_jsonl(sample_cell());
  const auto v_at = bad.find("\"store_version\":");
  ASSERT_NE(v_at, std::string::npos);
  bad.insert(v_at + std::string("\"store_version\":").size(), "x");
  EXPECT_FALSE(CampaignStore::parse_jsonl(bad).has_value());
}

/// The number rule stored keys and lines were first written with:
/// printf "%.15g" when strtod reads it back as the same double, else
/// "%.17g".
std::string printf_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  if (std::strtod(buf, nullptr) != v)
    std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

TEST(CampaignStore, NumberFormatMatchesThePrintfRule) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double edges[] = {
      0.0, -0.0, 0.1, 1.0 / 3.0, 60.0, -2.5, 1e-300, 5e-324, DBL_MIN,
      DBL_MAX, -DBL_MAX, 1e15, 1e16, 1e21, 123456789012345.0,
      std::ldexp(1.0, 53) + 1.0,  // 2^53 + 1 rounds to 2^53
      std::ldexp(1.0, 53) + 2.0,  // 9007199254740994: 16 digits
      0.1 + 0.2,                  // 0.30000000000000004: 17 digits
      23.456789012345678, inf, -inf, nan, -nan};
  for (const double v : edges)
    EXPECT_EQ(jsonl::num(v), printf_num(v)) << std::hexfloat << v;
  std::mt19937_64 gen(15);
  for (int i = 0; i < 100000; ++i) {
    double v = 0.0;
    if (i % 2 == 0) {
      // Any bit pattern: every exponent, subnormals, infinities, NaNs.
      const std::uint64_t bits = gen();
      std::memcpy(&v, &bits, sizeof v);
    } else {
      // A short decimal at some scale, like most stored figures.
      v = static_cast<double>(gen() % 10000000) /
          std::pow(10.0, static_cast<double>(gen() % 16));
    }
    ASSERT_EQ(jsonl::num(v), printf_num(v)) << std::hexfloat << v;
  }
}

TEST(CampaignStore, KeyAndLineBytesAreGolden) {
  // The key string seeds model cells' Rng and picks each cell's shard,
  // and stores are compared byte for byte, so both forms must keep
  // exactly these bytes.
  CampaignCell cell = sample_cell();
  EXPECT_EQ(cell.key.to_string(),
            "fir|rca16|model|0.30000000000000004,0.7,2|42|4000|0|0|10");
  EXPECT_EQ(CampaignStore::to_jsonl(cell),
            "{\"workload\":\"fir\",\"circuit\":\"rca16\",\"backend\":"
            "\"model\",\"tclk_ns\":0.30000000000000004,\"vdd_v\":0.7,"
            "\"vbb_v\":2,\"seed\":42,\"train_patterns\":4000,"
            "\"characterize_patterns\":0,\"chip\":0,\"store_version\":10,"
            "\"metric\":\"snr_db\",\"quality\":23.456789012345677,"
            "\"normalized\":0.39094648353909461,\"energy_per_op_fj\":12.25,"
            "\"baseline_fj\":57.5,\"ber\":1e-17,\"adds\":4608,"
            "\"elapsed_s\":0.25}");
  cell.key.backend = "sim-seq";
  cell.key.chip = 7;
  cell.culprits = "s0:n12=40,s1:n3=2";
  EXPECT_EQ(cell.key.to_string(),
            "fir|rca16|sim-seq|0.30000000000000004,0.7,2|42|4000|0|7|10");
  const std::string line = CampaignStore::to_jsonl(cell);
  EXPECT_NE(line.find("\"chip\":7,"), std::string::npos);
  EXPECT_EQ(line.substr(line.find("\"elapsed_s\"")),
            "\"elapsed_s\":0.25,\"culprits\":\"s0:n12=40,s1:n3=2\"}");
}

TEST(CampaignStore, LoadOnStartSkipsGarbageAndKeepsLastWrite) {
  const std::string path = temp_path("store_roundtrip.jsonl");
  std::remove(path.c_str());
  {
    CampaignStore store(path);
    EXPECT_EQ(store.size(), 0u);
    CampaignCell cell = sample_cell();
    store.insert(cell);
    cell.key.backend = "exact";
    cell.quality = 60.0;
    store.insert(cell);
  }
  // Corrupt the file with a partial line and a rewrite of the first key.
  {
    std::ofstream f(path, std::ios::app);
    f << "{\"workload\":\"fir\",\"circu\n";
    CampaignCell updated = sample_cell();
    updated.quality = 99.0;
    f << CampaignStore::to_jsonl(updated) << "\n";
  }
  CampaignStore reopened(path);
  EXPECT_EQ(reopened.size(), 2u);
  const auto hit = reopened.find(sample_cell().key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->quality, 99.0);  // last occurrence wins
  std::remove(path.c_str());
}

TEST(CampaignStore, TornTailIsCutBeforeTheNextAppend) {
  const std::string path = temp_path("store_torn_tail.jsonl");
  std::remove(path.c_str());
  CampaignCell first = sample_cell();
  CampaignCell second = sample_cell();
  second.key.backend = "exact";
  CampaignCell sobel = sample_cell();
  sobel.key.workload = "sobel";
  sobel.quality = 31.5;
  CampaignCell blur = sample_cell();
  blur.key.workload = "blur";
  blur.quality = 44.25;
  {
    CampaignStore store(path);
    store.insert(first);
    store.insert(second);
  }
  // A kill -9 mid-append: sobel's line stops before "quality" and
  // never gets its newline.
  {
    const std::string line = CampaignStore::to_jsonl(sobel);
    std::ofstream f(path, std::ios::app);
    f << line.substr(0, line.find("\"quality\""));
  }
  {
    CampaignStore resumed(path);
    EXPECT_EQ(resumed.size(), 2u);
    resumed.insert(blur);
  }
  CampaignStore reopened(path);
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_FALSE(reopened.find(sobel.key).has_value());
  const auto hit = reopened.find(blur.key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->quality, blur.quality);
  // Every line on disk is whole again.
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- pareto
CampaignCell point(double energy, double norm) {
  CampaignCell cell;
  cell.key.workload = "fir";
  cell.key.backend = "model";
  cell.energy_per_op_fj = energy;
  cell.normalized = norm;
  return cell;
}

TEST(CampaignReport, ParetoFrontDropsDominatedCells) {
  const std::vector<CampaignCell> cells = {
      point(30.0, 1.0), point(15.0, 0.4), point(20.0, 0.9),
      point(10.0, 0.5), point(20.0, 0.8), point(25.0, 0.9)};
  const auto front = pareto_front(cells);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_DOUBLE_EQ(front[0].energy_per_op_fj, 10.0);
  EXPECT_DOUBLE_EQ(front[0].normalized, 0.5);
  EXPECT_DOUBLE_EQ(front[1].energy_per_op_fj, 20.0);
  EXPECT_DOUBLE_EQ(front[1].normalized, 0.9);
  EXPECT_DOUBLE_EQ(front[2].energy_per_op_fj, 30.0);
  EXPECT_DOUBLE_EQ(front[2].normalized, 1.0);
}

TEST(CampaignReport, MinEnergyAtFloor) {
  const std::vector<CampaignCell> cells = {
      point(30.0, 1.0), point(20.0, 0.9), point(10.0, 0.5)};
  const auto pick = min_energy_at_floor(cells, 0.85);
  ASSERT_TRUE(pick.has_value());
  EXPECT_DOUBLE_EQ(pick->energy_per_op_fj, 20.0);
  EXPECT_FALSE(min_energy_at_floor(cells, 1.0 + 1e-9).has_value());
}

// ----------------------------------------------------------------- triads
TEST(CampaignTriads, CircuitTriadsMatchPaperForExactAdders) {
  const DutNetlist rca = build_circuit("rca8");
  const auto triads = make_circuit_triads(rca, 1.0);
  const auto expect = make_paper_triads(AdderArch::kRipple, 8, 1.0);
  ASSERT_EQ(triads.size(), 43u);
  EXPECT_EQ(triads, expect);
  // Non-adder DUTs get the generic grid.
  const DutNetlist mul = build_circuit("mul8-array");
  EXPECT_EQ(make_circuit_triads(mul, 1.0), make_dut_triads(1.0));
}

// ------------------------------------------------------------ determinism
TEST(CampaignDeterminism, ModelAdderStreamReproducesPerSeed) {
  const VosAdderModel model = lossy_model(16);
  Rng data(5);
  std::vector<std::uint64_t> a(2000);
  std::vector<std::uint64_t> b(2000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = data.bits(16);
    b[i] = data.bits(16);
  }
  const auto stream = [&](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint64_t> out(a.size());
    model_adder_fn(model, rng)(a, b, out);
    return out;
  };
  const std::vector<std::uint64_t> first = stream(2024);
  EXPECT_EQ(stream(2024), first);  // identical injected-error stream
  // A different model seed must produce a different stream somewhere.
  EXPECT_NE(stream(2025), first);
  // The model draws in element order, so two half batches replay the
  // whole one.
  Rng rng(2024);
  const BatchAdderFn add = model_adder_fn(model, rng);
  std::vector<std::uint64_t> halves(a.size());
  const std::size_t h = a.size() / 2;
  add(std::span(a).first(h), std::span(b).first(h),
      std::span(halves).first(h));
  add(std::span(a).subspan(h), std::span(b).subspan(h),
      std::span(halves).subspan(h));
  EXPECT_EQ(halves, first);
}

// ----------------------------------------------------------- campaign runs
CampaignConfig small_campaign() {
  CampaignConfig cfg;
  cfg.workloads = {"fir"};
  cfg.circuits = {"rca16"};
  cfg.backends = {ArithBackend::kModel};
  // Nominal + one error-free FBB point + one stressed supply.
  cfg.triad_specs = {{1.0, 1.0, 0.0}, {1.0, 0.6, 2.0}, {1.0, 0.65, 0.0}};
  cfg.characterize_patterns = 300;
  cfg.train_patterns = 1500;
  return cfg;
}

TEST(CampaignRunner, ResumeRecomputesOnlyMissingCells) {
  const std::string path = temp_path("campaign_resume.jsonl");
  std::remove(path.c_str());
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();

  CampaignStore store(path);
  const CampaignOutcome first = run_campaign(lib, cfg, store);
  EXPECT_EQ(first.cells.size(), 3u);
  EXPECT_EQ(first.computed, 3u);
  EXPECT_EQ(first.reused, 0u);

  // Full resume: nothing recomputed, identical cells.
  CampaignStore reopened(path);
  const CampaignOutcome second = run_campaign(lib, cfg, reopened);
  EXPECT_EQ(second.computed, 0u);
  EXPECT_EQ(second.reused, 3u);
  ASSERT_EQ(second.cells.size(), first.cells.size());
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    EXPECT_EQ(second.cells[i].key.to_string(),
              first.cells[i].key.to_string());
    EXPECT_EQ(second.cells[i].quality, first.cells[i].quality);
    EXPECT_EQ(second.cells[i].energy_per_op_fj,
              first.cells[i].energy_per_op_fj);
  }

  // Partial resume: growing the grid recomputes only the new cells.
  cfg.triad_specs.push_back({1.0, 0.5, 2.0});
  CampaignStore grown(path);
  const CampaignOutcome third = run_campaign(lib, cfg, grown);
  EXPECT_EQ(third.cells.size(), 4u);
  EXPECT_EQ(third.reused, 3u);
  EXPECT_EQ(third.computed, 1u);
  std::remove(path.c_str());
}

TEST(CampaignStore, LinesWithoutAStoreVersionAreRecomputed) {
  // A line written before cells carried their store version reads as
  // version 9 — computed on an older operation schedule — so it must
  // not answer a current lookup: the resumed campaign recomputes it.
  const std::string path = temp_path("store_version_resume.jsonl");
  std::remove(path.c_str());
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  cfg.triad_specs = {{1.0, 1.0, 0.0}};
  {
    CampaignStore store(path);
    EXPECT_EQ(run_campaign(lib, cfg, store).computed, 1u);
  }
  std::string line;
  {
    std::ifstream in(path);
    std::getline(in, line);
  }
  const std::string field =
      ",\"store_version\":" + std::to_string(obs::kStoreVersion);
  const auto at = line.find(field);
  ASSERT_NE(at, std::string::npos);
  line.erase(at, field.size());
  const auto old = CampaignStore::parse_jsonl(line);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->key.store_version, 9u);
  {
    std::ofstream out(path, std::ios::trunc);
    out << line << '\n';
  }
  CampaignStore resumed(path);
  const CampaignOutcome second = run_campaign(lib, cfg, resumed);
  EXPECT_EQ(second.computed, 1u);
  EXPECT_EQ(second.reused, 0u);
  std::remove(path.c_str());
}

TEST(CampaignRunner, CacheKeyIdentityAcrossThreadCounts) {
  // The cache is only sound if a cell's value never depends on worker
  // scheduling: serial and 4-way runs must produce bit-identical cells.
  // 2 000 characterization patterns split the levelized sweep into
  // several segments (small_campaign's 300 are one).
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  cfg.workloads = {"fir", "kmeans"};
  cfg.characterize_patterns = 2000;

  cfg.jobs = 1;
  CampaignStore serial;
  const CampaignOutcome a = run_campaign(lib, cfg, serial);
  cfg.jobs = 4;
  CampaignStore parallel;
  const CampaignOutcome b = run_campaign(lib, cfg, parallel);

  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(CampaignStore::to_jsonl(a.cells[i]).substr(
                  0, CampaignStore::to_jsonl(a.cells[i]).find("elapsed")),
              CampaignStore::to_jsonl(b.cells[i]).substr(
                  0, CampaignStore::to_jsonl(b.cells[i]).find("elapsed")))
        << i;
  }
}

TEST(CampaignRunner, ModelTracksGateLevelOnReducedGrid) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg;
  cfg.workloads = {"fir", "kmeans"};
  cfg.circuits = {"rca16"};
  cfg.backends = {ArithBackend::kModel, ArithBackend::kSimLevelized};
  cfg.triad_specs = {{1.0, 1.0, 0.0}, {1.0, 0.9, 0.0}, {1.0, 0.7, 2.0},
                     {1.0, 0.6, 2.0}};
  cfg.characterize_patterns = 400;
  cfg.train_patterns = 2000;
  CampaignStore store;
  const CampaignOutcome outcome = run_campaign(lib, cfg, store);
  const QualityDeviation dev = model_quality_deviation(outcome.cells);
  EXPECT_EQ(dev.cells, 8u);  // 2 workloads x 4 triads
  // These triads are error-free or mildly stressed: the trained model
  // must track the gate-level replay closely.
  EXPECT_LE(dev.max_pp, 10.0);
  EXPECT_LE(dev.mean_pp, 5.0);
}

TEST(CampaignRunner, SimSeqBackendRunsAndChargesRegisterEnergy) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg;
  cfg.workloads = {"fir"};
  cfg.circuits = {"rca16"};
  cfg.backends = {ArithBackend::kSimLevelized, ArithBackend::kSimSeq};
  cfg.triad_specs = {{1.2, 1.0, 0.0}, {1.0, 0.8, 2.0}};
  cfg.characterize_patterns = 300;
  CampaignStore store;
  const CampaignOutcome outcome = run_campaign(lib, cfg, store);
  ASSERT_EQ(outcome.cells.size(), 4u);
  for (const CampaignCell& seq_cell : outcome.cells) {
    if (seq_cell.key.backend != "sim-seq") continue;
    // Its combinational sibling at the same triad.
    const CampaignCell* comb = nullptr;
    for (const CampaignCell& c : outcome.cells)
      if (c.key.backend == "sim-levelized" &&
          c.key.triad == seq_cell.key.triad)
        comb = &c;
    ASSERT_NE(comb, nullptr);
    // The registered adder pays the bank clock/latch energy on top of
    // the identical characterized combinational energy.
    const double expected_extra = seq_clock_energy_fj(
        wrap_as_pipeline(build_circuit("rca16")), lib,
        seq_cell.key.triad.vdd_v);
    EXPECT_NEAR(seq_cell.energy_per_op_fj - comb->energy_per_op_fj,
                expected_extra, 1e-9);
    // At a relaxed triad the clocked replay is quality-equivalent.
    if (seq_cell.key.triad.vdd_v == 1.0) {
      EXPECT_NEAR(seq_cell.normalized, comb->normalized, 1e-12);
    }
    // Savings baselines rebase per energy class: a registered cell's
    // baseline pays the flops (at the baseline triad's nominal Vdd), a
    // combinational cell's does not — the sim-seq register energy must
    // never leak into the combinational backends' savings.
    EXPECT_NEAR(seq_cell.baseline_fj - comb->baseline_fj,
                seq_clock_energy_fj(
                    wrap_as_pipeline(build_circuit("rca16")), lib, 1.0),
                1e-9);
  }
}

TEST(CampaignRunner, SimSeqProvenanceCellsKeepTheirTopCulprits) {
  // A sim-seq cell's culprits roll its stages up into one top-K list,
  // names prefixed "s<k>:". rca16's first 12 triads on fir: the three
  // erroneous sim-seq cells are the 0.61 ns clocks with no body bias.
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg;
  cfg.workloads = {"fir"};
  cfg.circuits = {"rca16"};
  cfg.backends = {ArithBackend::kSimLevelized, ArithBackend::kSimSeq};
  cfg.max_triads = 12;
  cfg.characterize_patterns = 300;
  cfg.provenance = true;
  cfg.top_culprits = 3;
  cfg.seed = 1;
  CampaignStore store;
  const CampaignOutcome outcome = run_campaign(lib, cfg, store);
  ASSERT_EQ(outcome.cells.size(), 12u * 2u);
  std::map<double, std::string> erroneous;  // by Vdd
  for (const CampaignCell& cell : outcome.cells) {
    if (cell.key.backend != "sim-seq" || cell.culprits.empty()) continue;
    EXPECT_NEAR(cell.key.triad.tclk_ns, 0.6099405, 1e-9);
    EXPECT_EQ(cell.key.triad.vbb_v, 0.0);
    erroneous[cell.key.triad.vdd_v] = cell.culprits;
    // At most 3 "s0:name=bits" entries, by bits descending, then name.
    std::vector<std::pair<std::uint64_t, std::string>> entries;
    std::size_t from = 0;
    while (from <= cell.culprits.size()) {
      std::size_t to = cell.culprits.find(',', from);
      if (to == std::string::npos) to = cell.culprits.size();
      const std::string entry = cell.culprits.substr(from, to - from);
      const std::size_t eq = entry.find('=');
      ASSERT_NE(eq, std::string::npos) << cell.culprits;
      EXPECT_EQ(entry.rfind("s0:", 0), 0u) << cell.culprits;
      entries.emplace_back(std::stoull(entry.substr(eq + 1)),
                           entry.substr(0, eq));
      from = to + 1;
    }
    EXPECT_LE(entries.size(), 3u) << cell.culprits;
    EXPECT_TRUE(std::is_sorted(entries.begin(), entries.end(),
                               [](const auto& a, const auto& b) {
                                 return a.first != b.first
                                            ? a.first > b.first
                                            : a.second < b.second;
                               }))
        << cell.culprits;
  }
  const std::map<double, std::string> expected = {
      {0.7, "s0:sum15=5,s0:sum12=4,s0:sum13=2"},
      {0.6, "s0:sum7=190,s0:sum8=189,s0:sum10=176"},
      {0.5, "s0:c5=1073,s0:c6=848,s0:c7=730"}};
  EXPECT_EQ(erroneous, expected);
}

TEST(CampaignRunner, RejectsCircuitsThatCannotBackTheWorkloads) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  cfg.circuits = {"mul8-array"};  // not a 16-bit adder
  CampaignStore store;
  EXPECT_THROW(run_campaign(lib, cfg, store), std::invalid_argument);
  cfg.circuits = {"rca8"};  // adder, wrong width
  EXPECT_THROW(run_campaign(lib, cfg, store), std::invalid_argument);
}

TEST(CampaignRunner, DuplicateAxisEntriesComputeOnce) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  cfg.workloads = {"fir", "fir"};
  cfg.backends = {ArithBackend::kModel, ArithBackend::kModel};
  CampaignStore store;
  const CampaignOutcome outcome = run_campaign(lib, cfg, store);
  EXPECT_EQ(outcome.cells.size(), 3u);  // one per triad, not four
  EXPECT_EQ(outcome.computed, 3u);
}

TEST(CampaignRunner, BaselineIsGridOrderInvariant) {
  // The savings baseline is chosen by triad content (most relaxed
  // point), not by grid position, so reordering the specs must not
  // change any cell's baseline.
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  CampaignStore a_store;
  const CampaignOutcome a = run_campaign(lib, cfg, a_store);
  std::reverse(cfg.triad_specs.begin(), cfg.triad_specs.end());
  CampaignStore b_store;
  const CampaignOutcome b = run_campaign(lib, cfg, b_store);
  ASSERT_FALSE(a.cells.empty());
  for (const CampaignCell& cell : b.cells)
    EXPECT_EQ(cell.baseline_fj, a.cells.front().baseline_fj);
}

TEST(CampaignRunner, ReusedCellsAreRebasedOnTheCurrentGrid) {
  // Cells persisted by a stressed-only grid carry that grid's baseline;
  // resuming with the relaxed-nominal triad added must rebase every
  // reported cell on the new most-relaxed energy, so one table never
  // mixes savings baselines.
  const std::string path = temp_path("campaign_rebase.jsonl");
  std::remove(path.c_str());
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  cfg.triad_specs = {{1.0, 0.8, 0.0}};  // stressed-only grid
  CampaignStore store(path);
  const CampaignOutcome first = run_campaign(lib, cfg, store);
  ASSERT_EQ(first.cells.size(), 1u);
  EXPECT_EQ(first.cells[0].baseline_fj, first.cells[0].energy_per_op_fj);

  cfg.triad_specs.push_back({1.5, 1.0, 0.0});  // add relaxed nominal
  CampaignStore grown(path);
  const CampaignOutcome second = run_campaign(lib, cfg, grown);
  ASSERT_EQ(second.cells.size(), 2u);
  EXPECT_EQ(second.reused, 1u);
  const CampaignCell& stressed = second.cells[0];
  const CampaignCell& nominal = second.cells[1];
  ASSERT_GT(nominal.energy_per_op_fj, stressed.energy_per_op_fj);
  EXPECT_EQ(stressed.baseline_fj, nominal.energy_per_op_fj);
  EXPECT_EQ(nominal.baseline_fj, nominal.energy_per_op_fj);
  std::remove(path.c_str());
}

TEST(CampaignRunner, FleetCellsRebaseOnTheirOwnChip) {
  // Every chip is its own die corner: each cell's savings baseline is
  // its own chip's relaxed-triad energy, per energy class, never
  // another chip's or the nominal die's.
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  cfg.backends = {ArithBackend::kExact, ArithBackend::kSimSeq};
  cfg.triad_specs = {{1.0, 0.7, 0.0}, {1.5, 1.0, 0.0}, {1.0, 0.8, 0.0}};
  cfg.fleet.num_chips = 3;
  CampaignStore store;
  const CampaignOutcome outcome = run_campaign(lib, cfg, store);
  ASSERT_EQ(outcome.cells.size(), 3u * 2u * 3u);
  std::set<double> baselines;
  for (const CampaignCell& cell : outcome.cells) {
    const CampaignCell* relaxed = nullptr;
    for (const CampaignCell& c : outcome.cells)
      if (c.key.chip == cell.key.chip && c.key.backend == cell.key.backend &&
          c.key.triad.vdd_v == 1.0)
        relaxed = &c;
    ASSERT_NE(relaxed, nullptr);
    EXPECT_EQ(cell.baseline_fj, relaxed->energy_per_op_fj)
        << cell.key.to_string();
    baselines.insert(cell.baseline_fj);
  }
  EXPECT_EQ(baselines.size(), 3u * 2u);  // chips × energy classes
}

// ------------------------------------------------- chip axis + merge
std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

TEST(CampaignStore, ChipFieldRoundTripsAndDefaultsToNominal) {
  CampaignCell cell = sample_cell();
  cell.key.chip = 5;
  const std::string line = CampaignStore::to_jsonl(cell);
  EXPECT_NE(line.find("\"chip\":5"), std::string::npos);
  const auto parsed = CampaignStore::parse_jsonl(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->key.chip, 5u);
  EXPECT_EQ(parsed->key, cell.key);

  // A pre-fleet line (no chip field) is the nominal die, not garbage.
  std::string legacy = line;
  const auto at = legacy.find(",\"chip\":5");
  ASSERT_NE(at, std::string::npos);
  legacy.erase(at, std::string(",\"chip\":5").size());
  const auto old = CampaignStore::parse_jsonl(legacy);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->key.chip, 0u);

  // Present-but-garbled chip must reject the line, not default it.
  std::string bad = line;
  bad.replace(bad.find("\"chip\":5"), std::string("\"chip\":5").size(),
              "\"chip\":x");
  EXPECT_FALSE(CampaignStore::parse_jsonl(bad).has_value());
}

TEST(CampaignStore, MergeKeepsLastWriteOnOverlappingKeys) {
  const std::string a = temp_path("merge_a.jsonl");
  const std::string b = temp_path("merge_b.jsonl");
  const std::string out = temp_path("merge_out.jsonl");
  {
    std::ofstream fa(a), fb(b);
    CampaignCell cell = sample_cell();
    cell.quality = 1.0;
    fa << CampaignStore::to_jsonl(cell) << "\n";
    CampaignCell other = sample_cell();
    other.key.workload = "dot";
    fa << CampaignStore::to_jsonl(other) << "\n";
    cell.quality = 2.0;  // same key, later file: must win
    fb << CampaignStore::to_jsonl(cell) << "\n";
  }
  const MergeStats stats = merge_stores({a, b}, out);
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.lines, 3u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(stats.cells, 2u);
  CampaignStore merged(out);
  const auto hit = merged.find(sample_cell().key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->quality, 2.0);
  for (const std::string& p : {a, b, out}) std::remove(p.c_str());
}

TEST(CampaignStore, MergeSkipsMalformedLinesAndThrowsOnMissingInput) {
  const std::string a = temp_path("merge_bad.jsonl");
  const std::string out = temp_path("merge_bad_out.jsonl");
  {
    std::ofstream fa(a);
    fa << "not json\n";
    fa << CampaignStore::to_jsonl(sample_cell()) << "\n";
    fa << "{\"workload\":\"fir\",\"circu\n";
  }
  const MergeStats stats = merge_stores({a}, out);
  EXPECT_EQ(stats.lines, 3u);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(stats.cells, 1u);
  EXPECT_THROW(merge_stores({temp_path("nope_missing.jsonl")}, out),
               std::runtime_error);
  for (const std::string& p : {a, out}) std::remove(p.c_str());
}

TEST(CampaignStore, ManifestHeaderWritesOnceAndSurvivesReload) {
  const std::string path = temp_path("store_manifest.jsonl");
  std::remove(path.c_str());
  obs::RunManifest m;
  m.tool = "campaign";
  m.config = "campaign --workloads=fir";
  {
    CampaignStore store(path);
    EXPECT_EQ(store.manifest_line(), "");
    store.write_header(m.to_jsonl());
    EXPECT_EQ(store.manifest_line(), m.to_jsonl());
    // Second writer (a resumed run) must not duplicate the header.
    obs::RunManifest other = m;
    other.config = "campaign --workloads=dot";
    store.write_header(other.to_jsonl());
    EXPECT_EQ(store.manifest_line(), m.to_jsonl());
    store.insert(sample_cell());
  }
  // Reload finds the header AND the cell: the manifest line is not a
  // cell and a cell line is not a manifest.
  CampaignStore reopened(path);
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.manifest_line(), m.to_jsonl());
  EXPECT_TRUE(reopened.find(sample_cell().key).has_value());
  // In-memory stores have nowhere to put a header.
  CampaignStore memory;
  memory.write_header(m.to_jsonl());
  EXPECT_EQ(memory.manifest_line(), "");
  std::remove(path.c_str());
}

TEST(CampaignStore, ResumeWorksAcrossManifestHeaderVersions) {
  // Store-format backward compatibility, both directions. A pre-manifest
  // store (what every store written before the telemetry layer looks
  // like: cells only, no header) must fully resume under the current
  // reader; and a store WITH a manifest header must resume identically,
  // because the header parses-as-absent to the cell loader.
  const std::string path = temp_path("store_old_format.jsonl");
  std::remove(path.c_str());
  const CellLibrary& lib = make_fdsoi28_lvt();
  const CampaignConfig cfg = small_campaign();

  // run_campaign writes no header itself — this file IS the old format.
  CampaignStore old_store(path);
  const CampaignOutcome first = run_campaign(lib, cfg, old_store);
  EXPECT_EQ(first.computed, 3u);
  {
    std::ifstream f(path);
    std::string contents((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents.find("vosim_manifest"), std::string::npos);
  }

  CampaignStore resumed(path);
  EXPECT_EQ(resumed.manifest_line(), "");
  const CampaignOutcome second = run_campaign(lib, cfg, resumed);
  EXPECT_EQ(second.reused, 3u);
  EXPECT_EQ(second.computed, 0u);

  // Upgrade the store in place (what the CLI does on its next run) and
  // resume again: the header changes nothing about cell identity.
  obs::RunManifest m;
  m.tool = "campaign";
  m.config = "campaign fir";
  CampaignStore upgraded(path);
  upgraded.write_header(m.to_jsonl());
  const CampaignOutcome third = run_campaign(lib, cfg, upgraded);
  EXPECT_EQ(third.reused, 3u);
  EXPECT_EQ(third.computed, 0u);

  CampaignStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 3u);
  EXPECT_EQ(reloaded.manifest_line(), m.to_jsonl());
  std::remove(path.c_str());
}

TEST(CampaignStore, MergeExcludesManifestHeaders) {
  // merge-store unifies shard stores that each carry their own manifest;
  // the merged output must contain cells only (the merge is a new run
  // context, and --strip-timing canonicalization must not be defeated
  // by per-shard headers).
  const std::string a = temp_path("merge_manifest_a.jsonl");
  const std::string b = temp_path("merge_manifest_b.jsonl");
  const std::string out = temp_path("merge_manifest_out.jsonl");
  obs::RunManifest m;
  m.tool = "campaign";
  m.shard = "0/2";
  m.config = "campaign --shard=0/2";
  {
    std::ofstream fa(a), fb(b);
    fa << m.to_jsonl() << "\n";
    fa << CampaignStore::to_jsonl(sample_cell()) << "\n";
    m.shard = "1/2";
    fb << m.to_jsonl() << "\n";
    CampaignCell other = sample_cell();
    other.key.workload = "dot";
    fb << CampaignStore::to_jsonl(other) << "\n";
  }
  const MergeStats stats = merge_stores({a, b}, out, /*strip_timing=*/true);
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.lines, 4u);
  EXPECT_EQ(stats.manifests, 2u);
  EXPECT_EQ(stats.skipped, 0u);  // manifests are headers, not garbage
  EXPECT_EQ(stats.cells, 2u);
  {
    std::ifstream f(out);
    std::string contents((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents.find("vosim_manifest"), std::string::npos);
    EXPECT_NE(contents.find("\"elapsed_s\":0"), std::string::npos);
  }
  for (const std::string& p : {a, b, out}) std::remove(p.c_str());
}

TEST(CampaignRunner, ShardedFleetCampaignMergesBitIdentical) {
  // The sharded-store contract end to end: an N-shard fleet campaign,
  // merged, must be byte-for-byte the canonicalized single-process
  // store (elapsed_s stripped — the only wall-clock field).
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  cfg.triad_specs = {{1.0, 1.0, 0.0}, {1.0, 0.65, 0.0}};
  cfg.fleet.num_chips = 6;
  cfg.jobs = 2;

  const std::string single = temp_path("shard_single.jsonl");
  const std::string canon = temp_path("shard_canon.jsonl");
  const std::string merged = temp_path("shard_merged.jsonl");
  std::vector<std::string> shard_paths;
  for (int i = 0; i < 3; ++i)
    shard_paths.push_back(temp_path("shard_" + std::to_string(i) +
                                    ".jsonl"));
  for (const std::string& p : shard_paths) std::remove(p.c_str());
  std::remove(single.c_str());

  CampaignStore whole(single);
  const CampaignOutcome all = run_campaign(lib, cfg, whole);
  EXPECT_EQ(all.cells.size(), 12u);  // 2 triads x 6 chips

  std::size_t shard_cells = 0;
  cfg.shard_count = 3;
  for (std::size_t i = 0; i < 3; ++i) {
    cfg.shard_index = i;
    CampaignStore shard(shard_paths[i]);
    shard_cells += run_campaign(lib, cfg, shard).computed;
  }
  EXPECT_EQ(shard_cells, all.cells.size());  // disjoint, exhaustive

  merge_stores(shard_paths, merged, /*strip_timing=*/true);
  merge_stores({single}, canon, /*strip_timing=*/true);
  const std::string merged_bytes = read_file(merged);
  EXPECT_FALSE(merged_bytes.empty());
  EXPECT_EQ(merged_bytes, read_file(canon));

  std::remove(single.c_str());
  std::remove(canon.c_str());
  std::remove(merged.c_str());
  for (const std::string& p : shard_paths) std::remove(p.c_str());
}

std::size_t count_lines(const std::string& path) {
  const std::string text = read_file(path);
  return static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
}

TEST(CampaignRunner, KilledCampaignResumesToTheUninterruptedStore) {
  // kill -9 mid-campaign, then resume: the canonical store must be
  // byte-identical to an uninterrupted run's. Model cells each run
  // their workload (exact cells share one run per workload and would
  // finish before the kill).
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg;
  cfg.backends = {ArithBackend::kModel};
  cfg.characterize_patterns = 300;
  cfg.train_patterns = 300;
  cfg.fleet.num_chips = 20;  // 5 workloads x 43 triads x 20 chips
  const std::string whole = temp_path("kill_whole.jsonl");
  const std::string killed = temp_path("kill_killed.jsonl");
  const std::string canon_whole = temp_path("kill_whole_canon.jsonl");
  const std::string canon_killed = temp_path("kill_killed_canon.jsonl");
  for (const std::string& p : {whole, killed, canon_whole, canon_killed})
    std::remove(p.c_str());
  {
    CampaignStore store(whole);
    EXPECT_EQ(run_campaign(lib, cfg, store).computed, 4300u);
  }

  // The child runs the campaign serially (jobs = 1 never touches the
  // pool, whose workers a forked child does not have) and is killed
  // once a few cells are on disk.
  cfg.jobs = 1;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      CampaignStore store(killed);
      run_campaign(lib, cfg, store);
    } catch (...) {
    }
    ::_exit(0);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (count_lines(killed) < 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ::kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "the campaign ended before the kill";

  cfg.jobs = 0;
  CampaignStore resumed(killed);
  const CampaignOutcome rest = run_campaign(lib, cfg, resumed);
  EXPECT_GE(rest.reused, 3u);  // the killed run's cells answer
  EXPECT_GT(rest.computed, 0u);
  EXPECT_EQ(rest.reused + rest.computed, 4300u);
  merge_stores({whole}, canon_whole, /*strip_timing=*/true);
  merge_stores({killed}, canon_killed, /*strip_timing=*/true);
  EXPECT_EQ(count_lines(canon_whole), 4300u);
  EXPECT_EQ(read_file(canon_killed), read_file(canon_whole));
  for (const std::string& p : {whole, killed, canon_whole, canon_killed})
    std::remove(p.c_str());
}

TEST(CampaignRunner, ShardValidation) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  CampaignStore store;
  cfg.shard_count = 0;
  EXPECT_THROW(run_campaign(lib, cfg, store), std::invalid_argument);
  cfg.shard_count = 2;
  cfg.shard_index = 2;
  EXPECT_THROW(run_campaign(lib, cfg, store), std::invalid_argument);
}

TEST(CampaignRunner, MaxTriadsTruncatesTheGrid) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  cfg.triad_specs.clear();  // full 43-triad Table-III grid...
  cfg.max_triads = 2;       // ...truncated
  CampaignStore store;
  const CampaignOutcome outcome = run_campaign(lib, cfg, store);
  EXPECT_EQ(outcome.cells.size(), 2u);
}

// ------------------------------------------------- prepared circuits
/// A cell's stored line without its wall-clock field.
std::string timeless(const CampaignCell& cell) {
  const std::string line = CampaignStore::to_jsonl(cell);
  return line.substr(0, line.find("\"elapsed_s\""));
}

TEST(CampaignRunner, PreparedCircuitsEvictTheLeastRecentlyUsed) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  auto& reg = obs::metrics();
  obs::Counter& characterized = reg.counter("campaign.characterize.calls");
  obs::Counter& trained = reg.counter("campaign.train.calls");
  obs::Counter& reused = reg.counter("campaign.prepared.reused");
  // Key k is a one-triad list at Vdd 1.0 - 0.01 k: cap + 1 distinct
  // lists. Each run gets a fresh store, so it always has cells to
  // compute and consults the cache.
  const auto key = [](std::size_t k) {
    CampaignConfig cfg = small_campaign();
    cfg.workloads = {"dot"};
    cfg.triad_specs = {{1.0, 1.0 - 0.01 * static_cast<double>(k), 0.0}};
    cfg.characterize_patterns = 200;
    cfg.train_patterns = 300;
    return cfg;
  };
  PreparedCircuits prepared;
  const auto run = [&](std::size_t k) {
    CampaignStore store;
    return run_campaign(lib, key(k), store, prepared);
  };

  const std::uint64_t char0 = characterized.value();
  const std::uint64_t train0 = trained.value();
  const CampaignOutcome first = run(0);
  for (std::size_t k = 1; k <= PreparedCircuits::kMaxEntries; ++k) run(k);
  EXPECT_EQ(characterized.value() - char0, PreparedCircuits::kMaxEntries + 1);
  EXPECT_EQ(trained.value() - train0, PreparedCircuits::kMaxEntries + 1);
  EXPECT_EQ(prepared.size(), PreparedCircuits::kMaxEntries);

  // The most recent key is answered from the cache...
  const std::uint64_t reused0 = reused.value();
  run(PreparedCircuits::kMaxEntries);
  EXPECT_EQ(characterized.value() - char0, PreparedCircuits::kMaxEntries + 1);
  EXPECT_EQ(reused.value() - reused0, 1u);
  // ...while the first was evicted: it is prepared again, to the cells
  // of its first run and of a cold run.
  const CampaignOutcome again = run(0);
  EXPECT_EQ(characterized.value() - char0, PreparedCircuits::kMaxEntries + 2);
  EXPECT_EQ(trained.value() - train0, PreparedCircuits::kMaxEntries + 2);
  EXPECT_EQ(reused.value() - reused0, 1u);
  EXPECT_EQ(prepared.size(), PreparedCircuits::kMaxEntries);
  CampaignStore cold_store;
  const CampaignOutcome cold = run_campaign(lib, key(0), cold_store);
  ASSERT_EQ(again.cells.size(), 1u);
  ASSERT_EQ(first.cells.size(), 1u);
  ASSERT_EQ(cold.cells.size(), 1u);
  EXPECT_EQ(timeless(again.cells[0]), timeless(cold.cells[0]));
  EXPECT_EQ(timeless(first.cells[0]), timeless(cold.cells[0]));
}

TEST(CampaignRunner, WarmPreparedCircuitsGiveTheColdCells) {
  // A grown triad list is a new entry (a triad's swept energy depends
  // on the whole list), and a second training budget retrains: every
  // cell of every run equals a cold run's.
  const CellLibrary& lib = make_fdsoi28_lvt();
  obs::Counter& characterized =
      obs::metrics().counter("campaign.characterize.calls");
  PreparedCircuits prepared;
  CampaignConfig cfg = small_campaign();
  cfg.backends = {ArithBackend::kExact, ArithBackend::kModel};
  cfg.train_patterns = 400;
  const auto check = [&](const CampaignConfig& c) {
    CampaignStore warm_store;
    const CampaignOutcome warm =
        run_campaign(lib, c, warm_store, prepared);
    CampaignStore cold_store;
    const CampaignOutcome cold = run_campaign(lib, c, cold_store);
    ASSERT_EQ(warm.cells.size(), cold.cells.size());
    for (std::size_t i = 0; i < warm.cells.size(); ++i)
      EXPECT_EQ(timeless(warm.cells[i]), timeless(cold.cells[i])) << i;
  };
  check(cfg);
  cfg.seed = 2;  // same entry, new cells
  const std::uint64_t char0 = characterized.value();
  check(cfg);
  EXPECT_EQ(characterized.value() - char0, 1u);  // the cold run only
  cfg.train_patterns = 500;
  check(cfg);
  cfg.triad_specs.push_back({1.0, 0.55, 0.0});
  check(cfg);
  EXPECT_EQ(prepared.size(), 2u);
}

TEST(CampaignRunner, ExactCellsShareOneRunPerWorkload) {
  // An exact cell's quality depends on (workload, seed) only: every
  // cell of a 3-triad x 2-chip grid carries the one exact run's
  // quality and add count, with its own key, energy and baseline.
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg = small_campaign();
  cfg.workloads = {"fir", "dot"};
  cfg.backends = {ArithBackend::kExact};
  cfg.fleet.num_chips = 2;
  cfg.seed = 9;
  CampaignStore store;
  const CampaignOutcome outcome = run_campaign(lib, cfg, store);
  ASSERT_EQ(outcome.cells.size(), 2u * 3u * 2u);
  ASSERT_EQ(outcome.stored_baseline_fj.size(), outcome.cells.size());
  std::set<double> energies;
  for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
    const CampaignCell& cell = outcome.cells[i];
    const Workload* wl = find_workload(cell.key.workload);
    ASSERT_NE(wl, nullptr);
    const QualityResult q = wl->run(
        exact_adder_fn(16), workload_data_seed(cfg.seed, wl->name));
    EXPECT_EQ(cell.metric, q.metric);
    EXPECT_EQ(cell.quality, q.value) << cell.key.to_string();
    EXPECT_EQ(cell.normalized, q.normalized) << cell.key.to_string();
    EXPECT_EQ(cell.adds, q.adds) << cell.key.to_string();
    energies.insert(cell.energy_per_op_fj);
    // The outcome keeps the stored baseline beside the rebased one.
    const auto stored = store.find(cell.key);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(outcome.stored_baseline_fj[i], stored->baseline_fj);
  }
  EXPECT_EQ(energies.size(), 3u * 2u);  // per (triad, chip)
}

// ------------------------------------------------------- one schedule
/// The one-operation references of the two simulator adapters: one
/// simulator call per addition (a one-lane batch underneath), in the
/// order the kernel issues them.
BatchAdderFn per_add(VosDutSim& sim) {
  return [&sim](std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b,
                std::span<std::uint64_t> out) {
    for (std::size_t i = 0; i < a.size(); ++i)
      out[i] = sim.apply(a[i], b[i]).sampled;
  };
}

BatchAdderFn per_cycle(SeqSim& sim) {
  return [&sim](std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b,
                std::span<std::uint64_t> out) {
    for (std::size_t i = 0; i < a.size(); ++i)
      out[i] = sim.step_cycle(a[i], b[i]).captured;
  };
}

CampaignConfig every_workload_on_rca16(std::vector<ArithBackend> backends,
                                       TriadSpec triad) {
  CampaignConfig cfg;
  cfg.workloads = {"all"};
  cfg.circuits = {"rca16"};
  cfg.backends = std::move(backends);
  cfg.triad_specs = {triad};
  cfg.characterize_patterns = 300;
  return cfg;
}

TEST(CampaignSchedule, RelaxedTriadIsBitIdenticalOnEveryBackend) {
  // Every backend runs each workload's one kernel, so with no timing
  // errors the gate-level backends reproduce the exact adder's cells.
  const CellLibrary& lib = make_fdsoi28_lvt();
  const CampaignConfig cfg = every_workload_on_rca16(
      {ArithBackend::kExact, ArithBackend::kSimEvent,
       ArithBackend::kSimLevelized, ArithBackend::kSimSeq},
      {1.2, 1.0, 0.0});
  CampaignStore store;
  const CampaignOutcome outcome = run_campaign(lib, cfg, store);
  ASSERT_EQ(outcome.cells.size(), 5u * 4u);
  for (const CampaignCell& cell : outcome.cells) {
    const auto exact = std::find_if(
        outcome.cells.begin(), outcome.cells.end(),
        [&cell](const CampaignCell& c) {
          return c.key.workload == cell.key.workload &&
                 c.key.backend == "exact";
        });
    ASSERT_NE(exact, outcome.cells.end());
    EXPECT_EQ(cell.quality, exact->quality) << cell.key.to_string();
    EXPECT_EQ(cell.normalized, exact->normalized) << cell.key.to_string();
    EXPECT_EQ(cell.adds, exact->adds) << cell.key.to_string();
  }
  // The levelized cells above copy the settled run, so the batch
  // adapters are driven here directly: at this triad they too compute
  // the exact adder's cells.
  const DutNetlist dut = build_circuit("rca16");
  const SeqDut seq = wrap_as_pipeline(dut);
  TimingSimConfig sim_cfg;
  sim_cfg.engine = EngineKind::kLevelized;
  const OperatingTriad triad = outcome.cells.front().key.triad;
  for (const CampaignCell& cell : outcome.cells) {
    if (cell.key.backend != "exact") continue;
    const Workload* wl = find_workload(cell.key.workload);
    ASSERT_NE(wl, nullptr);
    const std::uint64_t seed = workload_data_seed(cfg.seed, wl->name);
    VosDutSim sim(dut, lib, triad, sim_cfg);
    SeqSim seq_sim(seq, lib, triad, sim_cfg);
    for (const QualityResult& q :
         {wl->run(sim_batch_adder_fn(sim), seed),
          wl->run(seq_batch_adder_fn(seq_sim), seed)}) {
      EXPECT_EQ(q.value, cell.quality) << cell.key.workload;
      EXPECT_EQ(q.normalized, cell.normalized) << cell.key.workload;
      EXPECT_EQ(q.adds, cell.adds) << cell.key.workload;
    }
  }
}

TEST(CampaignSchedule, GateLevelCellsReplayTheirPerAddLoops) {
  // Under timing errors the result depends on the operation order. A
  // campaign's gate-level cell, whose adds reach the engines in
  // 64-lane batches, must equal the same kernel driven through one
  // apply() / step_cycle() per addition — one-lane calls — on the
  // event and the levelized engine.
  const CellLibrary& lib = make_fdsoi28_lvt();
  const CampaignConfig cfg = every_workload_on_rca16(
      {ArithBackend::kExact, ArithBackend::kSimEvent,
       ArithBackend::kSimLevelized, ArithBackend::kSimSeq},
      {0.6, 0.8, 0.0});
  CampaignStore store;
  const CampaignOutcome outcome = run_campaign(lib, cfg, store);
  ASSERT_EQ(outcome.cells.size(), 5u * 4u);
  const DutNetlist dut = build_circuit("rca16");
  const SeqDut seq = wrap_as_pipeline(dut);
  TimingSimConfig sim_cfg;
  sim_cfg.engine = EngineKind::kLevelized;
  std::map<std::string, double> exact_quality;
  for (const CampaignCell& cell : outcome.cells)
    if (cell.key.backend == "exact")
      exact_quality[cell.key.workload] = cell.quality;
  for (const CampaignCell& cell : outcome.cells) {
    if (cell.key.backend == "exact") continue;
    const Workload* wl = find_workload(cell.key.workload);
    ASSERT_NE(wl, nullptr);
    const std::uint64_t seed = workload_data_seed(cfg.seed, wl->name);
    QualityResult ref;
    if (cell.key.backend == "sim-event") {
      TimingSimConfig event_cfg;
      event_cfg.engine = EngineKind::kEvent;
      VosDutSim sim(dut, lib, cell.key.triad, event_cfg);
      ref = wl->run(per_add(sim), seed);
    } else if (cell.key.backend == "sim-levelized") {
      VosDutSim sim(dut, lib, cell.key.triad, sim_cfg);
      ref = wl->run(per_add(sim), seed);
    } else {
      SeqSim sim(seq, lib, cell.key.triad, sim_cfg);
      ref = wl->run(per_cycle(sim), seed);
    }
    EXPECT_EQ(cell.quality, ref.value) << cell.key.to_string();
    EXPECT_EQ(cell.adds, ref.adds) << cell.key.to_string();
    // The triad really is error-producing for this workload.
    EXPECT_NE(cell.quality, exact_quality.at(cell.key.workload))
        << cell.key.to_string();
  }
}

// ------------------------------------------------------ error-free cells
// A gate-level cell whose die static timing proves error-free copies
// its workload's run on the circuit's settled function (DESIGN.md §9).

TEST(SettledAdder, EqualsPerOperationLogicAndTheExactAdder) {
  // 1, 63, 64, 65 and 130 elements: one lane, a partial word, a full
  // word, a word plus one lane and a span past two words.
  Rng rng(0x5e771ed);
  const struct {
    const char* spec;
    bool exact;
  } circuits[] = {{"rca16", true},     {"bka16", true},
                  {"ksa12", true},     {"loa16-8", false},
                  {"trunc16-4", false}, {"cut8-4", false},
                  {"specw8-3", false}};
  for (const auto& [spec, exact] : circuits) {
    const DutNetlist dut = build_circuit(spec);
    const DutPinMap pins(dut);
    const int width = pins.operand_width(0);
    const BatchAdderFn settled = settled_adder_fn(dut);
    for (const std::size_t n : {1u, 63u, 64u, 65u, 130u}) {
      std::vector<std::uint64_t> a(n);
      std::vector<std::uint64_t> b(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Bits above the width must be ignored, as by every adder.
        a[i] = rng();
        b[i] = rng();
      }
      std::vector<std::uint64_t> sums(n);
      settled(a, b, sums);
      std::vector<std::uint64_t> exact_sums(n);
      exact_adder_fn(width)(a, b, exact_sums);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t ops[2] = {a[i] & mask_n(width),
                                      b[i] & mask_n(width)};
        std::vector<lanes::Word> pi(dut.netlist.primary_inputs().size());
        pins.scatter_lanes(ops, 1, pi);
        std::vector<std::uint8_t> inputs;
        lanes::unpack_lane(pi, 0, inputs);
        const std::vector<std::uint8_t> values =
            evaluate_logic(dut.netlist, inputs);
        const std::uint64_t expected = pins.gather_output(
            pack_word(values, dut.netlist.primary_outputs()));
        ASSERT_EQ(sums[i], expected) << spec << " n " << n << " i " << i;
        if (exact) {
          ASSERT_EQ(sums[i], exact_sums[i]) << spec << " n " << n;
        }
      }
    }
  }
}

/// Whether a gate-level cell's die is STA error-free at its triad, read
/// off its levelized engines: the critical path lands strictly before
/// the engine's clock period, on every stage for sim-seq.
bool sta_safe(const CampaignConfig& cfg, const CampaignCell& cell,
              const DutNetlist& dut, const SeqDut& seq) {
  TimingSimConfig sim_cfg;
  sim_cfg.engine = EngineKind::kLevelized;
  sim_cfg = apply_chip(sim_cfg, draw_chip_instance(cfg.fleet, cell.key.chip),
                       cfg.fleet.within_die_sigma);
  const auto engine_safe = [](const SimEngine& e, double period_ps) {
    return dynamic_cast<const LevelizedSimulator&>(e).critical_path_ps() <
           period_ps;
  };
  if (cell.key.backend == "sim-levelized") {
    const VosDutSim sim(dut, make_fdsoi28_lvt(), cell.key.triad, sim_cfg);
    return engine_safe(sim.engine(), cell.key.triad.tclk_ns * 1e3);
  }
  if (cell.key.backend == "sim-seq") {
    const SeqSim sim(seq, make_fdsoi28_lvt(), cell.key.triad, sim_cfg);
    for (std::size_t k = 0; k < sim.num_stages(); ++k)
      if (!engine_safe(sim.stage_engine(k), sim.capture_period_ps()))
        return false;
    return true;
  }
  return false;
}

/// Every stored field of two cells but elapsed_s and culprits.
std::string without_timing(CampaignCell cell) {
  cell.elapsed_s = 0.0;
  cell.culprits.clear();
  return CampaignStore::to_jsonl(cell);
}

/// Runs `cfg` as given and again with provenance on, which simulates
/// every gate-level cell: the two grids must agree in every field but
/// elapsed_s and culprits, each copied cell must equal its sim-event
/// twin, and campaign.cells.settled must count exactly the STA-safe
/// sim-levelized and sim-seq cells. Returns that count.
std::size_t expect_copies_match_simulation(const CampaignConfig& cfg) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  obs::Counter& settled = obs::metrics().counter("campaign.cells.settled");
  const std::uint64_t before = settled.value();
  CampaignStore store;
  const CampaignOutcome copied = run_campaign(lib, cfg, store);
  const std::uint64_t copies = settled.value() - before;
  CampaignConfig prov_cfg = cfg;
  prov_cfg.provenance = true;
  CampaignStore prov_store;
  const CampaignOutcome simulated = run_campaign(lib, prov_cfg, prov_store);
  EXPECT_EQ(settled.value() - before, copies);  // provenance copies none

  std::map<std::string, DutNetlist> duts;
  std::map<std::string, SeqDut> seqs;
  for (const std::string& spec : cfg.circuits) {
    duts.emplace(spec, build_circuit(spec));
    seqs.emplace(spec, wrap_as_pipeline(duts.at(spec)));
  }
  // The sim-event cell of each (workload, circuit, triad, chip).
  std::map<std::string, const CampaignCell*> event_twin;
  const auto twin_key = [](const CampaignCell& c) {
    CampaignCellKey k = c.key;
    k.backend = "sim-event";
    return k.to_string();
  };
  for (const CampaignCell& cell : copied.cells)
    if (cell.key.backend == "sim-event")
      event_twin[cell.key.to_string()] = &cell;

  EXPECT_EQ(copied.cells.size(), simulated.cells.size());
  std::size_t safe = 0;
  for (std::size_t i = 0;
       i < copied.cells.size() && i < simulated.cells.size(); ++i) {
    const CampaignCell& cell = copied.cells[i];
    EXPECT_EQ(without_timing(cell), without_timing(simulated.cells[i]));
    if (!sta_safe(cfg, cell, duts.at(cell.key.circuit),
                  seqs.at(cell.key.circuit)))
      continue;
    ++safe;
    const auto twin = event_twin.find(twin_key(cell));
    if (twin == event_twin.end()) {
      ADD_FAILURE() << "no sim-event twin for " << cell.key.to_string();
      continue;
    }
    EXPECT_EQ(cell.metric, twin->second->metric) << cell.key.to_string();
    EXPECT_EQ(cell.quality, twin->second->quality) << cell.key.to_string();
    EXPECT_EQ(cell.normalized, twin->second->normalized)
        << cell.key.to_string();
    EXPECT_EQ(cell.adds, twin->second->adds) << cell.key.to_string();
  }
  EXPECT_EQ(copies, safe);
  return safe;
}

/// The Table-III grid mixes over-scaled triads with relaxed and
/// forward-body-biased ones that still meet timing; two exact adders
/// and an approximate one, whose copies carry its own sums.
CampaignConfig table3_gate_level_grid() {
  CampaignConfig cfg;
  cfg.workloads = {"fir", "dot"};
  cfg.circuits = {"rca16", "bka16", "loa16-8"};
  cfg.backends = {ArithBackend::kSimEvent, ArithBackend::kSimLevelized,
                  ArithBackend::kSimSeq};
  cfg.characterize_patterns = 300;
  return cfg;
}

TEST(CampaignRunner, ErrorFreeCellsEqualTheirSimulatedTwins) {
  const CampaignConfig cfg = table3_gate_level_grid();
  const std::size_t copies = expect_copies_match_simulation(cfg);
  // Some cells copy, and sim-event cells and unsafe triads never do.
  EXPECT_GT(copies, 0u);
  EXPECT_LT(copies, 2u * (43u * 3u) * 2u);
}

TEST(CampaignRunner, ErrorFreeFleetCellsEqualTheirSimulatedTwins) {
  // Each die's own corner decides which cells copy (one workload, to
  // bound the test's time).
  CampaignConfig cfg = table3_gate_level_grid();
  cfg.workloads = {"dot"};
  cfg.fleet.num_chips = 4;
  const std::size_t copies = expect_copies_match_simulation(cfg);
  EXPECT_GT(copies, 0u);
  EXPECT_LT(copies, 4u * (43u * 3u) * 2u);
}

/// The perfbench campaign_ref slice of rca16's grid: the relaxed
/// baseline and every 9th triad after it.
std::vector<OperatingTriad> campaign_ref_triads() {
  const DutNetlist rca16 = build_circuit("rca16");
  const std::vector<OperatingTriad> all = make_circuit_triads(
      rca16,
      synthesize_report(rca16.netlist, make_fdsoi28_lvt()).critical_path_ns);
  std::vector<OperatingTriad> slice = {all[0]};
  for (std::size_t i = 1; i < all.size(); i += 9) slice.push_back(all[i]);
  return slice;
}

TEST(CampaignRunner, CampaignRefSliceCopiesHalfItsGateLevelCells) {
  // All five workloads on the campaign_ref slice: three of its six
  // triads are STA-safe on the nominal die.
  CampaignConfig cfg = table3_gate_level_grid();
  cfg.workloads = {"all"};
  cfg.circuits = {"rca16"};
  cfg.triads = campaign_ref_triads();
  EXPECT_EQ(expect_copies_match_simulation(cfg), 5u * 3u * 2u);
}

/// The (adder, workload) pair of every campaign.shared_run span in a
/// trace document.
std::multiset<std::pair<std::string, std::string>> shared_runs(
    const std::string& doc) {
  const auto arg = [&doc](std::size_t from, const std::string& key) {
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t at = doc.find(needle, from) + needle.size();
    return doc.substr(at, doc.find('"', at) - at);
  };
  std::multiset<std::pair<std::string, std::string>> runs;
  const std::string name = "\"name\":\"campaign.shared_run\"";
  for (std::size_t at = doc.find(name); at != std::string::npos;
       at = doc.find(name, at + 1))
    runs.emplace(arg(at, "adder"), arg(at, "workload"));
  return runs;
}

TEST(CampaignRunner, EachSharedRunIsMadeOnce) {
  // Exact cells and STA-safe gate-level cells copy one run per (adder,
  // workload), made lazily by the first cell that needs it: 4 workers
  // racing over the grid make each run once, and a resumed grid makes
  // none.
  const CellLibrary& lib = make_fdsoi28_lvt();
  CampaignConfig cfg;
  cfg.workloads = {"fir", "dot"};
  cfg.circuits = {"rca16", "bka16"};
  cfg.backends = {ArithBackend::kExact, ArithBackend::kSimLevelized,
                  ArithBackend::kSimSeq};
  cfg.triads = campaign_ref_triads();
  cfg.characterize_patterns = 300;
  cfg.jobs = 4;
  CampaignStore store;
  obs::start_trace();
  const CampaignOutcome outcome = run_campaign(lib, cfg, store);
  const std::string doc = obs::stop_trace_json();
  ASSERT_EQ(outcome.computed, 2u * 2u * 6u * 3u);

  std::set<std::pair<std::string, std::string>> expected;
  for (const std::string& w : cfg.workloads) expected.emplace("exact", w);
  for (const std::string& spec : cfg.circuits) {
    const DutNetlist dut = build_circuit(spec);
    const SeqDut seq = wrap_as_pipeline(dut);
    for (const CampaignCell& cell : outcome.cells)
      if (cell.key.circuit == spec && sta_safe(cfg, cell, dut, seq))
        expected.emplace(spec, cell.key.workload);
  }
  EXPECT_GT(expected.size(), cfg.workloads.size());  // settled runs too
  const auto runs = shared_runs(doc);
  EXPECT_EQ(std::set(runs.begin(), runs.end()), expected);
  EXPECT_EQ(runs.size(), expected.size());  // none made twice
  EXPECT_EQ(doc.find("\"name\":\"campaign.exact\""), std::string::npos);
  EXPECT_EQ(doc.find("\"name\":\"campaign.settled\""), std::string::npos);

  obs::start_trace();
  const CampaignOutcome resumed = run_campaign(lib, cfg, store);
  EXPECT_EQ(resumed.computed, 0u);
  EXPECT_TRUE(shared_runs(obs::stop_trace_json()).empty());
}

TEST(CampaignRunner, SlowDieSimulatesASafeTriad) {
  // A clock 2% past the nominal die's critical path: the nominal die
  // copies, while fleet dies whose corner slows them past the edge
  // simulate.
  const CellLibrary& lib = make_fdsoi28_lvt();
  const DutNetlist dut = build_circuit("rca16");
  TimingSimConfig sim_cfg;
  sim_cfg.engine = EngineKind::kLevelized;
  const OperatingTriad probe{1.0, 0.8, 0.0};
  const double cp_ns =
      LevelizedSimulator(dut.netlist, lib, probe, sim_cfg).critical_path_ps() *
      1e-3;
  CampaignConfig cfg;
  cfg.workloads = {"dot"};
  cfg.circuits = {"rca16"};
  cfg.backends = {ArithBackend::kSimEvent, ArithBackend::kSimLevelized};
  cfg.triads = {{cp_ns * 1.02, 0.8, 0.0}};
  cfg.characterize_patterns = 300;
  EXPECT_EQ(expect_copies_match_simulation(cfg), 1u);
  cfg.fleet.num_chips = 8;
  cfg.fleet.speed_sigma = 0.15;
  const std::size_t copies = expect_copies_match_simulation(cfg);
  EXPECT_GT(copies, 0u);
  EXPECT_LT(copies, 8u);
}

}  // namespace
}  // namespace vosim
