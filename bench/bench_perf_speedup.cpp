// Performance claims, measured: Section IV's "fast simulations at the
// algorithm level" (statistical model vs gate-level simulation) and the
// SimEngine acceptance target — the bit-parallel levelized backend must
// run the Table-3 triad sweep ≥ 10× faster than the event-driven
// reference at equal pattern count (it exceeds that by amortizing one
// normalized timing pass over the whole Vdd/Vbs/Tclk grid).
//
// google-benchmark comparison groups:
//   BM_NativeAdd / BM_WindowedAdd / BM_StatisticalModelAdd — model costs
//   BM_EventDrivenTimingSim / BM_LevelizedTimingSim — per-add engines
//   BM_LevelizedBatchAdd — 64-lane packed streaming
//   BM_CharacterizeOneTriad/0|1 — one-triad sweep, event|levelized
//   BM_Table3Sweep/0|1 — the full 43-triad grid, event|levelized
//   BM_DispatchSpawnThreads / BM_DispatchThreadPool — fork-join overhead
//     of spawning threads per sweep vs the shared persistent pool
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench/bench_common.hpp"
#include "src/apps/approx_arith.hpp"
#include "src/model/vos_model.hpp"
#include "src/model/windowed_add.hpp"
#include "src/netlist/dut.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/util/parallel.hpp"

namespace {

using namespace vosim;

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

const DutNetlist& rca8() {
  static const DutNetlist a = to_dut(build_rca(8));
  return a;
}

OperatingTriad stressed() {
  static const double cp =
      synthesize_report(rca8().netlist, lib()).critical_path_ns;
  return {cp, 0.7, 0.0};
}

const std::vector<OperatingTriad>& table3_triads() {
  static const std::vector<OperatingTriad> t = [] {
    const double cp =
        synthesize_report(rca8().netlist, lib()).critical_path_ns;
    return make_paper_triads(AdderArch::kRipple, 8, cp);
  }();
  return t;
}

const VosAdderModel& trained_model() {
  static const VosAdderModel model = [] {
    VosDutSim sim(rca8(), lib(), stressed());
    TrainerConfig cfg;
    cfg.num_patterns = 5000;
    return train_vos_model(8, stressed(), sim_batch_adder_fn(sim), cfg);
  }();
  return model;
}

void BM_NativeAdd(benchmark::State& state) {
  Rng rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    benchmark::DoNotOptimize(acc += a + b);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NativeAdd);

void BM_WindowedAdd(benchmark::State& state) {
  Rng rng(2);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    benchmark::DoNotOptimize(acc ^= windowed_add(a, b, 8, 4));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowedAdd);

void BM_StatisticalModelAdd(benchmark::State& state) {
  const VosAdderModel& model = trained_model();
  Rng rng(3);
  Rng model_rng(4);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    benchmark::DoNotOptimize(acc ^= model.add(a, b, model_rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatisticalModelAdd);

void BM_EventDrivenTimingSim(benchmark::State& state) {
  VosDutSim sim(rca8(), lib(), stressed());
  Rng rng(5);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    benchmark::DoNotOptimize(acc ^= sim.apply(a, b).sampled);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventDrivenTimingSim);

void BM_LevelizedTimingSim(benchmark::State& state) {
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kLevelized;
  VosDutSim sim(rca8(), lib(), stressed(), cfg);
  Rng rng(5);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    benchmark::DoNotOptimize(acc ^= sim.apply(a, b).sampled);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LevelizedTimingSim);

void BM_LevelizedBatchAdd(benchmark::State& state) {
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kLevelized;
  VosDutSim sim(rca8(), lib(), stressed(), cfg);
  Rng rng(6);
  constexpr std::size_t kBatch = 64;
  std::vector<std::uint64_t> a(kBatch);
  std::vector<std::uint64_t> b(kBatch);
  std::vector<VosOpResult> out(kBatch);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      a[i] = rng.bits(8);
      b[i] = rng.bits(8);
    }
    sim.apply_batch(a, b, out);
    benchmark::DoNotOptimize(acc ^= out[kBatch - 1].sampled);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(kBatch));
}
BENCHMARK(BM_LevelizedBatchAdd);

void BM_CharacterizeOneTriad(benchmark::State& state) {
  // End-to-end cost of characterizing one triad with N patterns;
  // arg 1 selects the backend (0 = event, 1 = levelized).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto engine =
      state.range(1) == 0 ? EngineKind::kEvent : EngineKind::kLevelized;
  for (auto _ : state) {
    CharacterizeConfig cfg;
    cfg.num_patterns = n;
    cfg.threads = 1;
    cfg.engine = engine;
    const std::vector<OperatingTriad> one{stressed()};
    benchmark::DoNotOptimize(
        characterize_dut(rca8(), lib(), one, cfg));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_CharacterizeOneTriad)->Args({1000, 0})->Args({1000, 1});

void BM_Table3Sweep(benchmark::State& state) {
  // The acceptance workload: all 43 Table-3 triads of the 8-bit RCA at
  // equal pattern count; arg selects the backend (0 = event,
  // 1 = levelized). The levelized grid fast path shares one normalized
  // timing pass across the whole grid and lands far beyond the 10×
  // target (see tools/run_benches.sh for the CI floor).
  const auto engine =
      state.range(0) == 0 ? EngineKind::kEvent : EngineKind::kLevelized;
  const std::size_t patterns = 1000;
  for (auto _ : state) {
    CharacterizeConfig cfg;
    cfg.num_patterns = patterns;
    cfg.engine = engine;
    benchmark::DoNotOptimize(
        characterize_dut(rca8(), lib(), table3_triads(), cfg));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(patterns * 43));
}
BENCHMARK(BM_Table3Sweep)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_DispatchSpawnThreads(benchmark::State& state) {
  // Fork-join dispatch cost when every sweep spawns fresh threads —
  // what characterize_dut paid per call before the shared pool.
  const unsigned n = std::max(2u, hardware_parallelism());
  for (auto _ : state) {
    std::vector<std::thread> pool;
    pool.reserve(n);
    std::atomic<std::size_t> next{0};
    for (unsigned t = 0; t < n; ++t)
      pool.emplace_back([&] {
        while (next.fetch_add(1) < 64) benchmark::ClobberMemory();
      });
    for (auto& th : pool) th.join();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchSpawnThreads);

void BM_DispatchThreadPool(benchmark::State& state) {
  // Same fork-join through the persistent shared pool.
  for (auto _ : state) {
    parallel_for(64, [](std::size_t) { benchmark::ClobberMemory(); });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchThreadPool);

/// Observers-off hot-path cost check (DESIGN.md §13). The SimObserver
/// support costs one `!observers_.empty()` branch per dispatch site; a
/// true A/B against a binary compiled without the branch cannot live
/// inside one binary, so this times the identical observers-off event
/// sweep as two interleaved legs (each the min of k samples) and
/// reports their relative deviation — the measurement noise floor that
/// any real branch regression would have to climb above. CI gates
/// PROVENANCE_OVERHEAD_PCT <= 2% (run_benches.sh), so a future change
/// that makes the observers-off path genuinely slower — a lock, an
/// allocation, a virtual call before the empty check — fails the gate
/// even though the branch itself is noise-level.
void report_provenance_overhead() {
  CharacterizeConfig cfg;
  cfg.num_patterns = 1000;
  cfg.threads = 1;
  cfg.engine = EngineKind::kEvent;  // per-transition dispatch sites
  const std::vector<OperatingTriad> one{stressed()};
  using clock = std::chrono::steady_clock;
  const auto run_once = [&] {
    const auto t0 = clock::now();
    benchmark::DoNotOptimize(characterize_dut(rca8(), lib(), one, cfg));
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  run_once();  // warm-up
  double min_a = 1e300;
  double min_b = 1e300;
  for (int k = 0; k < 5; ++k) {
    min_a = std::min(min_a, run_once());
    min_b = std::min(min_b, run_once());
  }
  const double overhead =
      100.0 * std::abs(min_a - min_b) / std::min(min_a, min_b);
  std::printf("PROVENANCE_LEG_A_MS %.2f\nPROVENANCE_LEG_B_MS %.2f\n",
              min_a * 1e3, min_b * 1e3);
  std::printf("PROVENANCE_OVERHEAD_PCT %.2f\n", overhead);
}

}  // namespace

int main(int argc, char** argv) {
  vosim::bench::emit_metrics_at_exit();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report_provenance_overhead();
  return 0;
}
