// perfbench: runs one named benchmark workload against the vosim
// library's public entry points, checks its outputs and prints every
// metric by name with its unit. The last stdout line is one JSON object:
//   {"correct":..., "attempted":N, "failed":F, "metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md in this directory for the workloads, the
// set-up boundaries and the layer map.
//
// A run repeats the workload's fixed work while another repetition fits
// in --seconds, after one warm-up repetition, and reports medians over
// the repetitions (memory: the lowest repetition peak, see run_workload),
// because host-time noise on the simulator code is far wider than the
// harness's own (in-process repeats of one campaign ranged ~20%). The
// measured phase is reported in process CPU seconds, which hypervisor
// steal does not inflate; its wall time is printed beside it. Reported
// times are scaled to a reference host speed read by a probe between
// repetitions (speed_probe.hpp).

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "speed_probe.hpp"
#include "src/campaign/runner.hpp"
#include "src/campaign/store.hpp"
#include "src/characterize/characterizer.hpp"
#include "src/characterize/triads.hpp"
#include "src/fleet/fleet.hpp"
#include "src/netlist/dut.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_report.hpp"
#include "src/serve/server.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/tech/library.hpp"

namespace fs = std::filesystem;
using namespace vosim;

namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 64;
/// Reference reading of perfbench::probe_ns(): time metrics are scaled
/// to a host where the probe reads this (a round figure near a shared
/// 4-vCPU Xeon VM's readings, 8-12 ns).
constexpr double kProbeRefNs = 10.0;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least `beyond` samples above it (the
/// maximum when there are too few samples).
double tail_percentile(std::vector<double> v, std::size_t beyond) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() > beyond ? v[v.size() - 1 - beyond] : v.back();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void bytes(std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
  void add(std::string_view s) {
    bytes(s);
    h ^= 0xff;
    h *= 1099511628211ULL;
  }
  /// Adds a store line without its wall-clock field, the one value that
  /// legitimately differs between two runs of the same cell.
  void add_cell_line(std::string_view line) {
    constexpr std::string_view needle = "\"elapsed_s\":";
    const std::size_t at = line.find(needle);
    if (at == std::string_view::npos) return add(line);
    std::size_t end = at + needle.size();
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    bytes(line.substr(0, at));
    add(line.substr(end));
  }
  void add(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    add(std::string_view(buf));
  }
};

/// Every input of a run derives from --seed and a tag; values stay below
/// 2^31 so they survive any JSON or CLI round trip.
std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag) {
  std::uint64_t h = splitmix64(seed);
  for (const char c : tag) h = splitmix64(h ^ static_cast<unsigned char>(c));
  return 1 + (h & 0x7ffffffeULL);
}

/// Process CPU seconds (user + system, all threads).
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// A point in wall time and in the process's CPU time.
struct Stamp {
  double wall = 0.0;
  double cpu = 0.0;
};

Stamp stamp() { return Stamp{now_s(), cpu_s()}; }

/// The CPUs this process may run on (its affinity mask; `nproc` prints
/// their number). Pool jobs never exceed it:
/// std::thread::hardware_concurrency() counts every online CPU, also
/// those a container's CPU set excludes.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (cpus.empty()) throw std::runtime_error("no CPU to run on");
  return cpus;
}

/// A "Vm...:" field of /proc/self/status in MB (0 when absent).
double proc_status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(field + ":", 0) == 0)
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
  return 0.0;
}

/// Lowers the peak resident set (VmHWM) to the current one, so the next
/// read covers what ran since (Linux 4.0+; elsewhere VmHWM stays the
/// process peak).
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       fs::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

// ------------------------------------------------------------ tracing
// The benchmark's own spans: one per call into a layer's public entry
// point, kept in memory and written as a Chrome trace when the run ends.

struct SpanEvent {
  std::string name;
  std::string layer;
  double t0 = 0.0;
  double t1 = 0.0;
  double child_s = 0.0;  ///< time covered by nested spans (same thread)
  std::size_t tid = 0;
};

class Tracer {
 public:
  void start() {
    std::lock_guard<std::mutex> lock(m_);
    enabled_ = true;
    origin_ = now_s();
    events_.clear();
  }
  void stop() {
    std::lock_guard<std::mutex> lock(m_);
    enabled_ = false;
  }
  /// Records again into an earlier recording's events.
  void resume(std::vector<SpanEvent> events, double origin) {
    std::lock_guard<std::mutex> lock(m_);
    events_ = std::move(events);
    origin_ = origin;
    enabled_ = true;
  }
  double origin() const { return origin_; }
  std::vector<SpanEvent> events() const {
    std::lock_guard<std::mutex> lock(m_);
    return events_;
  }

  class Scope {
   public:
    Scope(Tracer& tr, std::string name, std::string layer) : tr_(tr) {
      if (!tr_.enabled_) return;
      active_ = true;
      ev_.name = std::move(name);
      ev_.layer = std::move(layer);
      ev_.tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
      parent_ = current();
      current() = this;
      ev_.t0 = now_s();
    }
    ~Scope() {
      if (!active_) return;
      ev_.t1 = now_s();
      current() = parent_;
      if (parent_ != nullptr) parent_->ev_.child_s += ev_.t1 - ev_.t0;
      std::lock_guard<std::mutex> lock(tr_.m_);
      tr_.events_.push_back(ev_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    static Scope*& current() {
      thread_local Scope* top = nullptr;
      return top;
    }
    Tracer& tr_;
    bool active_ = false;
    Scope* parent_ = nullptr;
    SpanEvent ev_;
  };

 private:
  mutable std::mutex m_;
  std::atomic<bool> enabled_{false};
  double origin_ = 0.0;
  std::vector<SpanEvent> events_;
};

Tracer g_tracer;

#define PB_CAT2(a, b) a##b
#define PB_CAT(a, b) PB_CAT2(a, b)
/// Span around the rest of the enclosing block.
#define PB_SPAN(name, layer) \
  Tracer::Scope PB_CAT(pb_span_, __LINE__)(g_tracer, name, layer)

// ------------------------------------------------------------ results

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operation accounting plus named metrics.
struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;

  void fail(const std::string& what, std::size_t ops = 1) {
    failed += ops;
    if (failures.size() < 20) failures.push_back(what);
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// One repetition of a workload's measured work.
struct Rep {
  double setup_s = 0.0;  ///< wall seconds of the set-up
  double cpu_s = 0.0;    ///< process CPU seconds of the measured phase
  double wall_s = 0.0;   ///< wall seconds of the measured phase (printed)
  std::uint64_t digest = 0;
  double work = 0.0;  ///< routed additions (campaign_ref, informational)
  double peak_rss_mb = 0.0;  ///< peak resident set during the repetition
  double probe_ns = 0.0;  ///< host speed probe around the repetition

  /// Factor from this host's speed to the reference speed.
  double scale() const { return kProbeRefNs / probe_ns; }

  void measured(const Stamp& a, const Stamp& b) {
    wall_s = b.wall - a.wall;
    cpu_s = b.cpu - a.cpu;
  }
};

// ------------------------------------------------ per-layer metric list
// Every traced run prints all of these; a layer the workload does not
// call reads 0. `moves` names the end-to-end metric and workload the
// layer metric should move (README.md, "Layer map").

struct LayerMetricDef {
  std::string name;
  std::string unit;
  std::string moves;
};

const std::vector<std::string> kApps{"fir", "blur", "sobel", "kmeans",
                                     "dot"};
const std::vector<std::string> kCampaignBackends{"model", "sim-levelized",
                                                 "sim-seq"};
const std::vector<std::string> kCombCircuits{"rca16", "bka16", "mul8-array",
                                             "mul8-wallace", "mac4x8"};
const std::vector<std::string> kSeqCircuits{"pipe2-mul8", "fir4-pipe",
                                            "pipe3-mac4x8"};

std::vector<LayerMetricDef> layer_metric_defs() {
  std::vector<LayerMetricDef> d;
  const std::string cr = "campaign_ref ";
  d.push_back({"campaign.prepare_s", "s", cr + "setup_s"});
  for (const auto& b : kCampaignBackends)
    for (const auto& a : kApps)
      d.push_back({"campaign.cell_s." + b + "." + a, "s", cr + "cpu_ref_s"});
  for (const auto& b : kCampaignBackends)
    d.push_back({"campaign.ns_per_add." + b, "ns", cr + "cpu_ref_s"});
  d.push_back({"campaign.tail_idle_s", "s", cr + "wall (printed, not cpu_ref_s)"});
  for (const auto& a : kApps)
    d.push_back({"apps.kernel_s." + a, "s", cr + "cpu_ref_s (floor)"});
  d.push_back({"campaign.finalize_s", "s", "serve_fleet cpu_ref_s"});
  d.push_back({"campaign.cells_reused", "count", "serve_fleet cpu_ref_s"});
  d.push_back({"campaign.cells_computed", "count", "serve_fleet cpu_ref_s"});
  d.push_back({"store.load_s", "s", "serve_fleet setup_s"});
  d.push_back({"store.lines", "count", "serve_fleet peak_rss_mb"});
  d.push_back({"store.file_bytes", "bytes", "serve_fleet peak_rss_mb"});
  d.push_back({"serve.request_p50_s", "s", "serve_fleet cpu_ref_s"});
  d.push_back({"serve.request_p90_s", "s", "serve_fleet cpu_ref_s"});
  for (const char* k : {"repeat", "extend", "new"})
    d.push_back({std::string("serve.request_s.") + k, "s",
                 "serve_fleet cpu_ref_s"});
  d.push_back({"serve.stream_s", "s", "serve_fleet cpu_ref_s"});
  d.push_back({"serve.bytes", "bytes", "serve_fleet cpu_ref_s"});
  d.push_back({"serve.threads_after", "count", "serve_fleet peak_rss_mb"});
  d.push_back({"serve.vm_growth_mb", "MB", "serve_fleet peak_rss_mb"});
  d.push_back({"sta.synth_s", "s", "table3_sweep setup_s"});
  for (const auto& c : kCombCircuits)
    d.push_back({"characterize.comb_s." + c, "s", "table3_sweep cpu_ref_s"});
  for (const auto& c : kSeqCircuits)
    d.push_back({"characterize.seq_s." + c, "s", "table3_sweep cpu_ref_s"});
  d.push_back({"characterize.ber_dev_pp", "pp",
               "table3_sweep correctness (deterministic)"});
  for (const char* c : {"patterns", "lane_words", "cycles"})
    d.push_back({std::string("sim.levelized.") + c, "count",
                 "work count, not time"});
  d.push_back({"fleet.ladder_s", "s", "fleet_closed_loop setup_s"});
  d.push_back({"fleet.chip_s.p50", "s", "fleet_closed_loop cpu_ref_s"});
  d.push_back({"fleet.chip_s.p99", "s", "fleet_closed_loop cpu_ref_s"});
  d.push_back({"fleet.parallel_efficiency", "ratio",
               "fleet_closed_loop wall (printed, not cpu_ref_s)"});
  d.push_back({"runtime.switches", "count",
               "none: a speed-only change must not move it"});
  d.push_back({"runtime.flagged_cycles", "count",
               "none: a speed-only change must not move it"});
  d.push_back({"obs.trace_overhead_pct", "%", "reported, not a target"});
  return d;
}

// ------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".";
};

/// Shared per-run context.
struct Context {
  Options opt;
  const CellLibrary* lib = nullptr;
  std::vector<int> cpus;  ///< allowed CPUs; jobs = their number
  unsigned jobs = 1;
  RunResult result;
  /// Per-layer values gathered by the traced repetition.
  std::map<std::string, double> layer;
};

/// Repeats `rep` while another repetition fits in --seconds, at least
/// 1 + kMinReps times, and returns the repetitions. The first one is the
/// warm-up (the thread pool starts and lazy set-up finishes): its times
/// are not reported. Every repetition must reproduce the first's digest.
/// The speed probe runs before the first repetition and after each one;
/// a repetition's reading is the mean of the two around it.
std::vector<Rep> repeat_for(Context& ctx, const std::function<Rep()>& rep) {
  std::vector<Rep> reps;
  const double start = now_s();
  double probe_before = perfbench::probe_ns(ctx.cpus);
  while (reps.size() <= static_cast<std::size_t>(kMaxReps)) {
    const double spent = now_s() - start;
    const double per_rep = reps.empty() ? 0.0 : spent / reps.size();
    if (reps.size() > static_cast<std::size_t>(kMinReps) &&
        spent + per_rep > ctx.opt.seconds)
      break;
    // Each repetition starts from a heap with nothing freed left resident,
    // as a freshly started process has; the program then allocates as it
    // ships (no allocator setting is changed).
    malloc_trim(0);
    reset_peak_rss();
    Rep r = rep();
    r.peak_rss_mb = proc_status_mb("VmHWM");
    const double probe_after = perfbench::probe_ns(ctx.cpus);
    r.probe_ns = 0.5 * (probe_before + probe_after);
    probe_before = probe_after;
    if (!reps.empty() && r.digest != reps.front().digest)
      ctx.result.fail("repetition " + std::to_string(reps.size()) +
                      " changed the simulated results");
    reps.push_back(r);
  }
  return reps;
}

// ======================================================= campaign_ref

struct CampaignRef {
  Context& ctx;
  CampaignConfig cfg;
  std::size_t expected_cells = 0;
  /// Cells recorded by on_cell: completion time plus the cell.
  std::mutex m;
  std::vector<std::pair<double, CampaignCell>> done;
  std::vector<CampaignCell> last_cells;  ///< the latest timed grid

  explicit CampaignRef(Context& c) : ctx(c) {
    const std::uint64_t seed = derive_seed(ctx.opt.seed, "campaign");
    cfg.workloads = kApps;
    cfg.circuits = {"rca16"};
    cfg.backends = {ArithBackend::kModel, ArithBackend::kSimLevelized,
                    ArithBackend::kSimSeq};
    cfg.seed = seed;
    cfg.jobs = ctx.jobs;
    // A stratified slice of rca16's 43 Table-III triads: the relaxed
    // baseline plus every 9th point after it. The odd stride alternates
    // body bias and walks all three clock periods from nominal Vdd down
    // to deep VOS (1.0, 0.6, 0.8, 0.4, 0.6 V).
    const DutNetlist dut = build_circuit("rca16");
    const std::vector<OperatingTriad> all = make_circuit_triads(
        dut, synthesize_report(dut.netlist, *ctx.lib).critical_path_ns);
    cfg.triads.push_back(all[0]);
    const std::size_t stride = ctx.opt.tiny ? 14 : 9;
    for (std::size_t i = 1; i < all.size(); i += stride)
      cfg.triads.push_back(all[i]);
    if (ctx.opt.tiny) cfg.workloads = {"fir", "dot"};
    expected_cells =
        cfg.workloads.size() * cfg.triads.size() * cfg.backends.size();
  }

  /// One fresh-store campaign; fills `done` via on_cell and marks the
  /// first callback.
  CampaignOutcome run_once(CampaignConfig c, Stamp& first_cell,
                           double& last_cell) {
    done.clear();
    c.on_cell = [this, &first_cell](const CampaignCell& cell) {
      std::lock_guard<std::mutex> lock(m);
      if (done.empty()) first_cell = stamp();
      done.emplace_back(now_s(), cell);
    };
    const std::string path = "campaign_ref.jsonl";
    fs::remove(path);
    CampaignOutcome out;
    {
      PB_SPAN("CampaignStore", "campaign");
      CampaignStore store(path);
      PB_SPAN("run_campaign", "campaign");
      out = run_campaign(*ctx.lib, c, store);
    }
    last_cell = 0.0;
    for (const auto& [t, cell] : done) last_cell = std::max(last_cell, t);
    return out;
  }

  Rep rep() {
    Rep r;
    const double t0 = now_s();
    Stamp first;
    double last = 0.0;
    const CampaignOutcome out = run_once(cfg, first, last);
    const Stamp end = stamp();
    r.setup_s = first.wall - t0;
    r.measured(first, end);
    if (ctx.opt.trace) {
      ctx.layer["campaign.prepare_s"] = first.wall - t0;
      ctx.layer["campaign.finalize_s"] = end.wall - last;
      record_cells(end.wall);
    }
    Fnv fnv;
    if (out.cells.size() != expected_cells || out.computed != expected_cells)
      ctx.result.fail("campaign grid has " +
                      std::to_string(out.cells.size()) + " cells, " +
                      std::to_string(out.computed) + " computed; expected " +
                      std::to_string(expected_cells));
    for (CampaignCell cell : out.cells) {
      if (!std::isfinite(cell.quality) || !(cell.normalized >= 0.0) ||
          !(cell.normalized <= 1.0) || cell.adds == 0)
        ctx.result.fail("bad cell " + cell.key.to_string());
      r.work += static_cast<double>(cell.adds);
      cell.elapsed_s = 0.0;
      fnv.add(CampaignStore::to_jsonl(cell));
    }
    r.digest = fnv.h;
    last_cells = out.cells;
    return r;
  }

  /// Per-layer sums over the cells on_cell saw in a traced repetition.
  void record_cells(double end) {
    std::map<std::string, double> adds;
    double busy = 0.0;
    double phase_start = end;
    for (const auto& [t, cell] : done) {
      ctx.layer["campaign.cell_s." + cell.key.backend + "." +
                cell.key.workload] += cell.elapsed_s;
      ctx.layer["campaign.ns_per_add." + cell.key.backend] +=
          cell.elapsed_s;
      adds[cell.key.backend] += static_cast<double>(cell.adds);
      busy += cell.elapsed_s;
      phase_start = std::min(phase_start, t - cell.elapsed_s);
    }
    for (const auto& [backend, n] : adds)
      ctx.layer["campaign.ns_per_add." + backend] *= 1e9 / n;
    double last = phase_start;
    for (const auto& [t, cell] : done) last = std::max(last, t);
    ctx.layer["campaign.tail_idle_s"] =
        std::max(0.0, ctx.jobs * (last - phase_start) - busy);
    ctx.layer["campaign.cells_computed"] = static_cast<double>(done.size());
  }

  /// Reference check: at the relaxed triad every backend must reproduce
  /// the exact adder's quality (a 5-cell exact-backend slice).
  void check() {
    CampaignConfig ref = cfg;
    ref.backends = {ArithBackend::kExact};
    ref.triads = {cfg.triads.front()};
    Stamp first;
    double last = 0.0;
    CampaignOutcome exact;
    {
      PB_SPAN("run_campaign.exact_slice", "campaign");
      exact = run_once(ref, first, last);
    }
    ctx.result.attempted += exact.cells.size();
    std::size_t compared = 0;
    for (const CampaignCell& e : exact.cells)
      for (const CampaignCell& g : last_cells) {
        if (g.key.workload != e.key.workload ||
            !(g.key.triad == cfg.triads.front()))
          continue;
        ++compared;
        if (g.quality != e.quality || g.normalized != e.normalized)
          ctx.result.fail("relaxed " + g.key.backend + "/" + g.key.workload +
                          " quality " + std::to_string(g.quality) +
                          " != exact " + std::to_string(e.quality));
      }
    if (compared != cfg.workloads.size() * cfg.backends.size())
      ctx.result.fail("relaxed-triad slice has " + std::to_string(compared) +
                      " cells");
  }

  /// Traced run only: the same grid slice on the exact backend, the
  /// application-kernel floor no simulator speed-up removes.
  void kernel_floor() {
    CampaignConfig ex = cfg;
    ex.backends = {ArithBackend::kExact};
    Stamp first;
    double last = 0.0;
    run_once(ex, first, last);
    for (const auto& [t, cell] : done)
      ctx.layer["apps.kernel_s." + cell.key.workload] += cell.elapsed_s;
  }

  void prepare() { ctx.result.attempted += expected_cells; }

  void finish() {
    if (ctx.opt.trace) {
      PB_SPAN("run_campaign.exact_grid", "apps");
      kernel_floor();
    }
    check();
  }
};

// ======================================================= table3_sweep

struct Table3Sweep {
  Context& ctx;
  std::size_t patterns = 20000;
  std::size_t ref_patterns = 2000;
  std::uint64_t pattern_seed = 42;

  struct Comb {
    std::string spec;
    DutNetlist dut;
    std::vector<OperatingTriad> triads;
  };
  struct Seq {
    std::string spec;
    std::optional<SeqDut> seq;
    std::vector<OperatingTriad> triads;
  };
  std::vector<Comb> comb;
  std::vector<Seq> seqs;

  explicit Table3Sweep(Context& c) : ctx(c) {
    pattern_seed = derive_seed(ctx.opt.seed, "patterns");
    if (ctx.opt.tiny) {
      patterns = 512;
      ref_patterns = 256;
    }
  }

  CharacterizeConfig config(std::size_t n, EngineKind engine) const {
    CharacterizeConfig cc;
    cc.num_patterns = n;
    cc.pattern_seed = pattern_seed;
    cc.engine = engine;
    cc.threads = ctx.jobs;
    return cc;
  }

  /// Builds, synthesizes and derives the triad grid of all 8 circuits.
  void setup() {
    comb.clear();
    seqs.clear();
    PB_SPAN("setup", "sta");
    for (const std::string& spec : kCombCircuits) {
      Comb cc{spec, {}, {}};
      {
        PB_SPAN("build_circuit", "netlist");
        cc.dut = build_circuit(spec);
      }
      double cp = 0.0;
      {
        PB_SPAN("synthesize_report", "sta");
        cp = synthesize_report(cc.dut.netlist, *ctx.lib).critical_path_ns;
      }
      PB_SPAN("make_circuit_triads", "characterize");
      cc.triads = make_circuit_triads(cc.dut, cp);
      comb.push_back(std::move(cc));
    }
    for (const std::string& spec : kSeqCircuits) {
      Seq s{spec, std::nullopt, {}};
      {
        PB_SPAN("build_seq_circuit", "seq");
        s.seq = build_seq_circuit(spec);
      }
      double cp = 0.0;
      {
        PB_SPAN("seq_critical_path_ns", "seq");
        cp = seq_critical_path_ns(*s.seq, *ctx.lib);
      }
      PB_SPAN("make_dut_triads", "characterize");
      s.triads = make_dut_triads(cp);
      seqs.push_back(std::move(s));
    }
  }

  void check_results(const std::string& spec,
                     const std::vector<OperatingTriad>& triads,
                     const std::vector<TriadResult>& res, Fnv& fnv) {
    if (res.size() != triads.size()) {
      ctx.result.fail(spec + ": " + std::to_string(res.size()) +
                      " results for " + std::to_string(triads.size()) +
                      " triads");
      return;
    }
    if (res.front().ber != 0.0)
      ctx.result.fail(spec + ": relaxed-triad BER " +
                      std::to_string(res.front().ber) + " != 0");
    for (const TriadResult& tr : res) {
      if (!(tr.ber >= 0.0 && tr.ber <= 1.0) ||
          !std::isfinite(tr.energy_per_op_fj) || tr.patterns == 0)
        ctx.result.fail(spec + ": malformed triad result");
      fnv.add(tr.ber);
      fnv.add(tr.energy_per_op_fj);
      fnv.add(static_cast<double>(tr.patterns));
    }
  }

  Rep rep() {
    Rep r;
    // Set-up takes milliseconds, so one sample per repetition would be
    // mostly scheduler noise: take the median of several.
    std::vector<double> setups;
    for (int i = 0; i < 5; ++i) {
      const double t0 = now_s();
      setup();
      setups.push_back(now_s() - t0);
    }
    const Stamp start = stamp();
    Fnv fnv;
    const CharacterizeConfig cc = config(patterns, EngineKind::kLevelized);
    for (const Comb& c : comb) {
      const double a = now_s();
      std::vector<TriadResult> res;
      {
        PB_SPAN("characterize_dut", "characterize");
        res = characterize_dut(c.dut, *ctx.lib, c.triads, cc);
      }
      if (ctx.opt.trace)
        ctx.layer["characterize.comb_s." + c.spec] = now_s() - a;
      check_results(c.spec, c.triads, res, fnv);
    }
    for (const Seq& s : seqs) {
      const double a = now_s();
      std::vector<TriadResult> res;
      {
        PB_SPAN("characterize_seq_dut", "characterize");
        res = characterize_seq_dut(*s.seq, *ctx.lib, s.triads, cc);
      }
      if (ctx.opt.trace)
        ctx.layer["characterize.seq_s." + s.spec] = now_s() - a;
      check_results(s.spec, s.triads, res, fnv);
    }
    r.setup_s = median(setups);
    r.measured(start, stamp());
    if (ctx.opt.trace) ctx.layer["sta.synth_s"] = r.setup_s;
    r.digest = fnv.h;
    return r;
  }

  /// Reference spot check: the event engine over rca16 and mul8-array on
  /// the same stimuli; the levelized engine must agree within 2 pp.
  void check() {
    double dev_pp = 0.0;
    std::size_t bad = 0;
    for (const Comb& c : comb) {
      if (c.spec != "rca16" && c.spec != "mul8-array") continue;
      std::vector<TriadResult> lev, ev;
      {
        PB_SPAN("characterize_dut.reference", "characterize");
        lev = characterize_dut(c.dut, *ctx.lib, c.triads,
                               config(ref_patterns, EngineKind::kLevelized));
        ev = characterize_dut(c.dut, *ctx.lib, c.triads,
                              config(ref_patterns, EngineKind::kEvent));
      }
      ctx.result.attempted += c.triads.size();
      for (std::size_t t = 0; t < ev.size() && t < lev.size(); ++t) {
        const double d = 100.0 * std::fabs(lev[t].ber - ev[t].ber);
        dev_pp = std::max(dev_pp, d);
        if (d > 2.0) ++bad;
      }
    }
    if (bad > 0)
      ctx.result.fail("levelized vs event BER deviation " +
                          std::to_string(dev_pp) + " pp > 2 pp",
                      bad);
    ctx.layer["characterize.ber_dev_pp"] = dev_pp;
    std::cout << "perfbench: ber_dev_pp " << dev_pp << "\n";
  }

  void prepare() {
    setup();
    for (const Comb& c : comb) ctx.result.attempted += c.triads.size();
    for (const Seq& q : seqs) ctx.result.attempted += q.triads.size();
  }

  void finish() { check(); }
};

// ================================================== fleet_closed_loop

struct FleetClosedLoop {
  Context& ctx;
  FleetStudyConfig cfg;

  explicit FleetClosedLoop(Context& c) : ctx(c) {
    cfg.circuit = "pipe2-mul8";
    cfg.fleet.num_chips = ctx.opt.tiny ? 16 : 640;
    // CLI defaults apart from the die population: the shared ladder and
    // operand stream stay at the default pattern seed, because they steer
    // every chip at once and moved the study's CPU time by 16% between
    // seeds, while 640 dies drawn per seed average out.
    cfg.fleet.seed = derive_seed(ctx.opt.seed, "fleet");
    cfg.jobs = ctx.jobs;
    if (ctx.opt.tiny) cfg.ladder_patterns = 256;
  }

  Rep rep() {
    Rep r;
    const Stamp start = stamp();
    FleetOutcome out;
    {
      PB_SPAN("run_fleet_study", "fleet");
      out = run_fleet_study(*ctx.lib, cfg);
    }
    const Stamp end = stamp();
    // The serving phase is timed inside the call; CPU time can only be
    // read around the whole call, whose set-up (the ladder) is ~2% of it.
    r.setup_s = (end.wall - start.wall) - out.serve_seconds;
    r.measured(start, end);
    r.wall_s = out.serve_seconds;
    if (ctx.opt.trace) {
      ctx.layer["fleet.ladder_s"] = out.ladder_seconds;
      const obs::MetricsSnapshot snap = obs::metrics().snapshot();
      const auto it = snap.histograms.find("fleet.chip.seconds");
      if (it != snap.histograms.end()) {
        const obs::LatencyHisto::Snapshot& h = it->second;
        ctx.layer["fleet.chip_s.p50"] = h.p50;
        ctx.layer["fleet.chip_s.p99"] = h.p99;
        ctx.layer["fleet.parallel_efficiency"] =
            static_cast<double>(h.count) * h.mean /
            (out.serve_seconds * ctx.jobs);
      }
    }
    Fnv fnv;
    if (out.chips.size() != cfg.fleet.num_chips)
      ctx.result.fail("fleet returned " + std::to_string(out.chips.size()) +
                      " chip outcomes for " +
                      std::to_string(cfg.fleet.num_chips) + " chips");
    for (const ChipOutcome& oc : out.chips) {
      if (oc.final_rung >= out.ladder.size() ||
          !(oc.flagged_rate >= 0.0 && oc.flagged_rate <= 1.0) ||
          !(oc.error_rate >= 0.0 && oc.error_rate <= 1.0) ||
          !(oc.mean_energy_fj > 0.0) || !std::isfinite(oc.mean_energy_fj))
        ctx.result.fail("chip " + std::to_string(oc.chip.chip) +
                        " has an out-of-range outcome");
      fnv.add(static_cast<double>(oc.final_rung));
      fnv.add(oc.mean_energy_fj);
      fnv.add(oc.flagged_rate);
      fnv.add(oc.error_rate);
      fnv.add(static_cast<double>(oc.switches));
    }
    r.digest = fnv.h;
    return r;
  }

  void prepare() { ctx.result.attempted += cfg.fleet.num_chips; }
  void finish() {}
};

// ======================================================== serve_fleet

/// One client-observed request. The cell lines are folded into a digest
/// as they arrive, so the client holds no copy of the stream.
struct Response {
  std::size_t lines = 0;
  std::string footer;  ///< the last line
  std::uint64_t cells_digest = 0;  ///< every line but the footer
  double latency_s = 0.0;
  double stream_s = 0.0;  ///< first to last line
  std::uint64_t bytes = 0;
};

/// Wire-protocol client that timestamps the streamed lines.
Response timed_request(const std::string& socket_path,
                       const std::string& request) {
  Response r;
  const double t0 = now_s();
  sockaddr_un addr{};
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("client: socket() failed");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("client: cannot connect to " + socket_path);
  }
  const std::string line = request + "\n";
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::send(fd, line.data() + off, line.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string current, previous;
  Fnv cells;
  char buf[65536];
  double first = 0.0, last = 0.0;
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    r.bytes += static_cast<std::uint64_t>(n);
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] != '\n') {
        current.push_back(buf[i]);
        continue;
      }
      last = now_s();
      if (r.lines == 0) first = last;
      else cells.add_cell_line(previous);
      ++r.lines;
      previous.swap(current);
      current.clear();
    }
  }
  ::close(fd);
  r.latency_s = now_s() - t0;
  r.stream_s = last - first;
  r.footer = std::move(previous);
  r.cells_digest = cells.h;
  return r;
}

struct ServeFleet {
  Context& ctx;

  /// One campaign grid over rca16: fir and dot on the first `triads`
  /// Table-III triads, exact (+ model) backend, chips 1..chips.
  struct Grid {
    std::uint64_t seed = 0;
    std::size_t chips = 0;
    bool model = false;
    std::size_t triads = 4;

    std::size_t cells() const { return 2 * triads * (model ? 2 : 1) * chips; }
    bool operator==(const Grid&) const = default;
  };
  /// One scripted request with the footer it must produce.
  struct Request {
    std::string kind;  ///< "repeat" | "extend" | "new"
    Grid grid;
    std::size_t reused = 0;
    std::size_t computed = 0;
    int twin = -1;  ///< earlier request of the same grid (repeats)
  };

  std::vector<std::vector<Request>> scripts;  ///< one per client
  std::vector<Grid> preload_grids;
  std::string preload = "serve_preload.jsonl";
  std::string store_path = "serve_store.jsonl";
  std::string socket = "serve.sock";

  explicit ServeFleet(Context& c) : ctx(c) {
    const bool tiny = ctx.opt.tiny;
    // The daemon's history: one large exact grid both clients re-read
    // (every cell reused, so sharing it cannot race) ...
    const Grid big{derive_seed(ctx.opt.seed, "serve-big"), tiny ? 16u : 512u,
                   false, 10};
    preload_grids.push_back(big);
    const int rounds = tiny ? 2 : 14;
    for (int client = 0; client < 2; ++client) {
      // ... plus per-client grids. Each client owns its seeds, so the two
      // clients' computed cells never overlap and every footer's
      // reused/computed split is fixed by the script.
      const std::string tag = "serve" + std::to_string(client);
      const Grid warm{derive_seed(ctx.opt.seed, tag + "warm"),
                      tiny ? 4u : 64u, true, 4};
      Grid grow{derive_seed(ctx.opt.seed, tag + "grow"), tiny ? 4u : 120u,
                false, 4};
      preload_grids.push_back(warm);
      preload_grids.push_back(grow);
      std::vector<Request> s;
      const auto add = [&s](const std::string& kind, const Grid& g,
                            std::size_t reused) {
        Request r{kind, g, reused, g.cells() - reused, -1};
        for (int i = static_cast<int>(s.size()) - 1; i >= 0; --i)
          if (s[static_cast<std::size_t>(i)].grid == g) {
            r.twin = i;
            break;
          }
        s.push_back(r);
      };
      Grid fresh{};
      for (int k = 0; k < rounds; ++k) {
        add("repeat", warm, warm.cells());
        const std::size_t before = grow.cells();
        grow.chips += tiny ? 1 : 4;
        add("extend", grow, before);
        if (k % 2 == 0) {
          fresh = Grid{derive_seed(ctx.opt.seed,
                                   tag + "new" + std::to_string(k)),
                       tiny ? 2u : 16u, true, 4};
          add("new", fresh, 0);
        } else {
          add("repeat", fresh, fresh.cells());
        }
        // Large grids expose the chip rebase; the clients take turns so
        // their large outcomes are rarely in memory at once.
        if (k % 7 == 3 + 3 * client || (tiny && k == 1))
          add("repeat", big, big.cells());
      }
      scripts.push_back(std::move(s));
    }
  }

  static std::string request_line(const Grid& g) {
    return "{\"cmd\":\"campaign\",\"workloads\":\"fir,dot\","
           "\"circuits\":\"rca16\",\"backends\":\"" +
           std::string(g.model ? "exact,model" : "exact") +
           "\",\"seed\":" + std::to_string(g.seed) +
           ",\"max_triads\":" + std::to_string(g.triads) +
           ",\"chips\":" + std::to_string(g.chips) + "}";
  }

  CampaignConfig grid_config(const Grid& g) const {
    CampaignConfig cfg;
    cfg.workloads = {"fir", "dot"};
    cfg.circuits = {"rca16"};
    cfg.backends = {ArithBackend::kExact};
    if (g.model) cfg.backends.push_back(ArithBackend::kModel);
    cfg.seed = g.seed;
    cfg.max_triads = g.triads;
    cfg.fleet.num_chips = g.chips;
    cfg.jobs = ctx.jobs;
    return cfg;
  }

  /// Untimed: the daemon's warm store, computed by the library itself.
  void make_preload() {
    fs::remove(preload);
    CampaignStore store(preload);
    for (const Grid& g : preload_grids)
      run_campaign(*ctx.lib, grid_config(g), store);
  }

  std::vector<std::vector<Response>> responses;

  Rep rep() {
    Rep r;
    fs::copy_file(preload, store_path, fs::copy_options::overwrite_existing);
    responses.assign(scripts.size(), {});
    const double t0 = now_s();
    ServeConfig scfg;
    scfg.socket_path = socket;
    scfg.store_path = store_path;
    scfg.jobs = ctx.jobs;
    std::optional<CampaignServer> server;
    {
      PB_SPAN("CampaignServer", "serve");
      server.emplace(*ctx.lib, scfg);
      server->start();
    }
    std::vector<std::string> pong;
    {
      PB_SPAN("send_request.ping", "serve");
      pong = send_request(socket, "{\"cmd\":\"ping\"}");
    }
    const Stamp start = stamp();
    if (pong.size() != 1 || pong[0] != "{\"ok\":true,\"cmd\":\"ping\"}")
      ctx.result.fail("ping was not answered");
    const double vm_before = proc_status_mb("VmSize");
    std::vector<std::thread> clients;
    std::vector<std::string> errors(scripts.size());
    for (std::size_t c = 0; c < scripts.size(); ++c)
      clients.emplace_back([this, c, &errors] {
        try {
          for (const Request& q : scripts[c]) {
            PB_SPAN("request." + q.kind, "serve");
            responses[c].push_back(
                timed_request(socket, request_line(q.grid)));
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    for (std::thread& t : clients) t.join();
    r.setup_s = start.wall - t0;
    r.measured(start, stamp());
    if (ctx.opt.trace) {
      // Finished connection threads the daemon has not joined yet keep
      // their stacks mapped: they show in VmSize, not in /proc/self/task.
      ctx.layer["serve.threads_after"] = static_cast<double>(thread_count());
      ctx.layer["serve.vm_growth_mb"] = proc_status_mb("VmSize") - vm_before;
    }
    {
      PB_SPAN("CampaignServer.stop", "serve");
      server->stop();
      server.reset();
    }
    for (const std::string& e : errors)
      if (!e.empty()) ctx.result.fail("client failed: " + e);
    r.digest = check_responses();
    if (ctx.opt.trace) record_layers();
    return r;
  }

  /// Every request ends in a done footer with its scripted counts, and a
  /// repeat streams exactly the cells of the request it repeats.
  std::uint64_t check_responses() {
    Fnv fnv;
    for (std::size_t c = 0; c < scripts.size(); ++c) {
      for (std::size_t i = 0; i < scripts[c].size(); ++i) {
        const Request& q = scripts[c][i];
        if (i >= responses[c].size()) {
          ctx.result.fail("client " + std::to_string(c) + " request " +
                          std::to_string(i) + " has no response");
          continue;
        }
        const Response& resp = responses[c][i];
        std::uint64_t cells = 0, reused = 0, computed = 0;
        std::string done;
        const std::string& footer = resp.footer;
        if (!jsonl::raw_field(footer, "done", done) || done != "true" ||
            !jsonl::u64_field(footer, "cells", cells) ||
            !jsonl::u64_field(footer, "reused", reused) ||
            !jsonl::u64_field(footer, "computed", computed) ||
            reused != q.reused || computed != q.computed ||
            cells != q.reused + q.computed ||
            resp.lines != cells + 1) {
          ctx.result.fail("client " + std::to_string(c) + " request " +
                          std::to_string(i) + " (" + q.kind +
                          ") footer: " + footer);
          continue;
        }
        if (q.kind == "repeat" && q.twin >= 0) {
          const Response& twin = responses[c][static_cast<std::size_t>(q.twin)];
          if (twin.lines != resp.lines || twin.cells_digest != resp.cells_digest)
            ctx.result.fail("client " + std::to_string(c) + " request " +
                            std::to_string(i) +
                            " streamed other cells than its twin");
        }
        fnv.add(std::to_string(resp.cells_digest));
        fnv.add(footer);
      }
    }
    return fnv.h;
  }

  void record_layers() {
    std::vector<double> all;
    std::map<std::string, std::vector<double>> by_kind;
    double stream = 0.0, bytes = 0.0, reused = 0.0, computed = 0.0;
    for (std::size_t c = 0; c < scripts.size(); ++c)
      for (std::size_t i = 0; i < responses[c].size(); ++i) {
        const Response& resp = responses[c][i];
        all.push_back(resp.latency_s);
        by_kind[scripts[c][i].kind].push_back(resp.latency_s);
        stream += resp.stream_s;
        bytes += static_cast<double>(resp.bytes);
        reused += static_cast<double>(scripts[c][i].reused);
        computed += static_cast<double>(scripts[c][i].computed);
      }
    ctx.layer["serve.request_p50_s"] = median(all);
    ctx.layer["serve.request_p90_s"] = tail_percentile(all, 10);
    for (const auto& [kind, v] : by_kind)
      ctx.layer["serve.request_s." + kind] = median(v);
    ctx.layer["serve.stream_s"] = stream;
    ctx.layer["serve.bytes"] = bytes;
    ctx.layer["campaign.cells_reused"] = reused;
    ctx.layer["campaign.cells_computed"] = computed;
    std::ifstream in(store_path, std::ios::binary);
    std::size_t lines = 0, file_bytes = 0;
    std::string l;
    while (std::getline(in, l)) {
      ++lines;
      file_bytes += l.size() + 1;
    }
    ctx.layer["store.lines"] = static_cast<double>(lines);
    ctx.layer["store.file_bytes"] = static_cast<double>(file_bytes);
  }

  /// Traced run only: the store load alone, and the campaign layer's
  /// finalize (last cell to return: baseline rebase and outcome) on the
  /// extension requests, replayed offline against the preload.
  void traced_extras() {
    fs::copy_file(preload, store_path, fs::copy_options::overwrite_existing);
    {
      const double a = now_s();
      PB_SPAN("CampaignStore.load", "campaign");
      CampaignStore store(store_path);
      ctx.layer["store.load_s"] = now_s() - a;
    }
    CampaignStore store(store_path);
    double finalize = 0.0;
    for (const Request& q : scripts[0]) {
      if (q.kind != "extend") continue;
      CampaignConfig cfg = grid_config(q.grid);
      std::mutex m;
      double last = 0.0;
      cfg.on_cell = [&m, &last](const CampaignCell&) {
        const double t = now_s();
        std::lock_guard<std::mutex> lock(m);
        last = std::max(last, t);
      };
      PB_SPAN("run_campaign.extend", "campaign");
      run_campaign(*ctx.lib, cfg, store);
      if (last > 0.0) finalize += now_s() - last;
    }
    ctx.layer["campaign.finalize_s"] = finalize;
  }

  void prepare() {
    for (const auto& s : scripts) ctx.result.attempted += s.size();
    ctx.result.attempted += 1;  // the set-up ping
    make_preload();
  }

  void finish() {
    if (ctx.opt.trace) traced_extras();
  }
};

// ============================================================== main

void usage() {
  std::cerr << "usage: vosim_perfbench --workload "
               "campaign_ref|table3_sweep|fleet_closed_loop|serve_fleet\n"
               "         --seed N --seconds S --trace 0|1 [--tiny] "
               "[--out DIR]\n";
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--out") o.out_dir = value();
    else if (a == "--tiny") o.tiny = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

/// Chrome trace: the benchmark's spans spliced into the library's own
/// (obs) trace document of the same repetition.
void write_trace(const std::string& path, const std::string& lib_json,
                 const std::vector<SpanEvent>& events, double origin) {
  std::ostringstream mine;
  bool first = true;
  for (const SpanEvent& e : events) {
    if (!first) mine << ",";
    first = false;
    char ts[64], dur[64];
    std::snprintf(ts, sizeof ts, "%.3f", (e.t0 - origin) * 1e6);
    std::snprintf(dur, sizeof dur, "%.3f", (e.t1 - e.t0) * 1e6);
    mine << "{\"name\":\"" << e.name << "\",\"cat\":\"perfbench."
         << e.layer << "\",\"ph\":\"X\",\"ts\":" << ts << ",\"dur\":" << dur
         << ",\"pid\":1,\"tid\":" << (e.tid % 100000) << "}";
  }
  std::string doc = lib_json;
  const std::string key = "\"traceEvents\":[";
  const std::size_t at = doc.find(key);
  if (at == std::string::npos) {
    doc = "{\"traceEvents\":[" + mine.str() + "],\"displayTimeUnit\":\"ms\"}";
  } else {
    const std::size_t ins = at + key.size();
    const bool lib_empty = ins < doc.size() && doc[ins] == ']';
    doc.insert(ins, mine.str() + (lib_empty || first ? "" : ","));
  }
  std::ofstream(path) << doc << "\n";
}

/// Per-layer span table: count, total and self time per layer.
void print_layer_table(std::ostream& os, const std::vector<SpanEvent>& ev) {
  struct Row {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const SpanEvent& e : ev) {
    Row& r = rows[e.layer];
    ++r.count;
    r.total += e.t1 - e.t0;
    r.self += (e.t1 - e.t0) - e.child_s;
  }
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-14s %8s %12s %12s\n", "layer", "spans",
                "total_s", "self_s");
  os << buf;
  for (const auto& [layer, r] : rows) {
    std::snprintf(buf, sizeof buf, "%-14s %8zu %12.6f %12.6f\n",
                  layer.c_str(), r.count, r.total, r.self);
    os << buf;
  }
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const RunResult& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << fmt(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Runs the workload. An untraced run reports the end-to-end medians; a
/// traced run alternates untraced and traced repetitions (the overhead
/// base), takes the per-layer values from the first traced one and
/// reports those.
template <class W>
void run_workload(Context& ctx) {
  W w(ctx);
  w.prepare();
  if (!ctx.opt.trace) {
    const std::vector<Rep> reps = repeat_for(ctx, [&w] { return w.rep(); });
    w.finish();
    std::vector<double> setup, cpu, wall;
    for (const Rep& r : reps) {
      if (&r != &reps.front()) {
        setup.push_back(r.setup_s * r.scale());
        cpu.push_back(r.cpu_s * r.scale());
        wall.push_back(r.wall_s);
      }
      std::cout << "perfbench: rep setup_s " << fmt(r.setup_s) << " cpu_s "
                << fmt(r.cpu_s) << " wall_s " << fmt(r.wall_s)
                << " probe_ns " << fmt(r.probe_ns) << " peak_rss_mb "
                << fmt(r.peak_rss_mb) << " work " << fmt(r.work) << "\n";
    }
    // Times are scaled to the reference host speed (README.md, "Speed
    // scaling"). Wall time is printed, not reported: hypervisor steal
    // comes in bursts of tens of seconds that stretched whole runs' wall
    // medians by up to 1.9x while their CPU time moved 14%.
    ctx.result.set("setup_s", median(setup), "s");
    ctx.result.set("cpu_ref_s", median(cpu), "s");
    std::cout << "perfbench: wall_s median " << fmt(median(wall)) << "\n";
    // Memory is the lowest repetition peak, the warm-up's included, not
    // the process peak. In serve_fleet each connection thread draws a
    // malloc arena, and an arena that served a large grid keeps its freed
    // blocks resident while the daemon runs. The draws moved single
    // repetition peaks in ~7 MB steps (29.5-44.4 MB) and the process peak
    // of 5 runs between 46 and 54 MB. The first repetition draws fresh
    // arenas and is nearly always the lowest: without it the lowest of
    // 4-5 later peaks spread 17% over 5 runs.
    double peak = reps.front().peak_rss_mb;
    for (const Rep& r : reps) peak = std::min(peak, r.peak_rss_mb);
    ctx.result.set("peak_rss_mb", peak, "MB");
    std::cout << "perfbench: reps " << reps.size() << " (warm-up first) digest "
              << std::hex << reps.front().digest << std::dec << "\n";
    return;
  }

  const double start = now_s();
  std::vector<double> plain, traced;
  std::string lib_trace;
  std::vector<SpanEvent> events;
  double origin = 0.0;
  std::map<std::string, double> kept;
  obs::MetricsSnapshot snap;
  std::uint64_t digest = 0;
  for (std::size_t i = 0; i < 2 * static_cast<std::size_t>(kMaxReps); ++i) {
    if (i >= 5 && now_s() - start >= ctx.opt.seconds) break;
    const bool trace_this = i % 2 == 1;
    const bool keep = trace_this && traced.empty();
    ctx.opt.trace = trace_this;
    ctx.layer.clear();
    if (keep) obs::metrics().reset();
    if (trace_this) {
      obs::start_trace();
      g_tracer.start();
    }
    const double cpu0 = cpu_s();
    const Rep r = w.rep();
    // Repetition 0 is the warm-up; its CPU time is not compared.
    if (i > 0) (trace_this ? traced : plain).push_back(cpu_s() - cpu0);
    if (i == 0) digest = r.digest;
    if (r.digest != digest)
      ctx.result.fail("repetition changed the simulated results");
    if (!trace_this) continue;
    g_tracer.stop();
    std::string json = obs::stop_trace_json();
    if (!keep) continue;
    snap = obs::metrics().snapshot();
    lib_trace = std::move(json);
    events = g_tracer.events();
    origin = g_tracer.origin();
    kept = ctx.layer;
  }
  ctx.opt.trace = true;
  ctx.layer = kept;
  // The reference checks and traced-only extras join the same trace.
  g_tracer.resume(std::move(events), origin);
  w.finish();
  g_tracer.stop();
  events = g_tracer.events();

  // Exact work counts of the kept repetition (the registry was reset
  // just before it).
  const auto counter = [&snap](const std::string& name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0
                                     : static_cast<double>(it->second);
  };
  for (const char* c : {"patterns", "lane_words", "cycles"})
    ctx.layer[std::string("sim.levelized.") + c] =
        counter(std::string("sim.levelized.") + c);
  ctx.layer["runtime.switches"] = counter("fleet.controller.switches");
  ctx.layer["runtime.flagged_cycles"] = counter("fleet.cycles.flagged");
  ctx.layer["obs.trace_overhead_pct"] =
      100.0 * (median(traced) / median(plain) - 1.0);

  const std::string trace_path = ctx.opt.workload + ".trace.json";
  write_trace(trace_path, lib_trace, events, origin);
  std::ostringstream table;
  table << "perfbench: per-layer spans of one traced " << ctx.opt.workload
        << " repetition (trace: " << trace_path << ")\n";
  print_layer_table(table, events);
  table << "\n";
  char buf[240];
  for (const LayerMetricDef& d : layer_metric_defs()) {
    const auto it = ctx.layer.find(d.name);
    const double v = it == ctx.layer.end() ? 0.0 : it->second;
    ctx.result.set(d.name, v, d.unit);
    std::snprintf(buf, sizeof buf, "%-38s %16.6g %-6s moves: %s\n",
                  d.name.c_str(), v, d.unit.c_str(), d.moves.c_str());
    table << buf;
  }
  std::ofstream(ctx.opt.workload + ".layers.txt") << table.str();
  std::cout << table.str() << "perfbench: traced reps " << traced.size()
            << " untraced reps " << plain.size() << " digest " << std::hex
            << digest << std::dec << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  try {
    ctx.opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    usage();
    return 2;
  }
  try {
    ctx.cpus = allowed_cpus();
    ctx.jobs = static_cast<unsigned>(ctx.cpus.size());
    fs::create_directories(ctx.opt.out_dir);
    fs::current_path(ctx.opt.out_dir);
    ctx.lib = &make_fdsoi28_lvt();
    const std::string& w = ctx.opt.workload;
    std::cout << "perfbench: workload " << w << " seed " << ctx.opt.seed
              << " jobs " << ctx.jobs << (ctx.opt.tiny ? " (tiny)" : "")
              << (ctx.opt.trace ? " traced" : "") << "\n";
    if (w == "campaign_ref") run_workload<CampaignRef>(ctx);
    else if (w == "table3_sweep") run_workload<Table3Sweep>(ctx);
    else if (w == "fleet_closed_loop") run_workload<FleetClosedLoop>(ctx);
    else if (w == "serve_fleet") run_workload<ServeFleet>(ctx);
    else {
      std::cerr << "perfbench: unknown workload '" << w << "'\n";
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& f : ctx.result.failures)
    std::cout << "perfbench: FAILED " << f << "\n";
  print_result(ctx.result);
  return ctx.result.failed == 0 ? 0 : 1;
}
