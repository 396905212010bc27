#include "src/campaign/runner.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "src/characterize/characterizer.hpp"
#include "src/obs/probe.hpp"
#include "src/characterize/triads.hpp"
#include "src/fleet/fleet.hpp"
#include "src/model/vos_model.hpp"
#include "src/netlist/dut.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_sim.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/util/parallel.hpp"

namespace vosim {

/// A prepared circuit: what PreparedCircuits keeps between campaigns.
/// A campaign reads it under `m` only, and takes shared pointers to
/// results that never change once set, so its cells never read an
/// entry another campaign is filling.
struct PreparedCircuits::Entry {
  std::string spec;
  std::vector<OperatingTriad> triads;
  std::size_t characterize_patterns = 0;
  /// Held across a preparation, so a campaign that misses this entry
  /// while another prepares it waits and then reuses the result.
  std::mutex m;
  std::shared_ptr<const std::vector<TriadResult>> characterized;
  std::uint64_t train_patterns = 0;  ///< the budget of `models`
  std::vector<std::shared_ptr<const VosAdderModel>> models;  ///< per triad
};

namespace {

/// FNV-1a over the cell key, mixed with the campaign seed — a
/// schedule-independent per-cell seed (determinism across thread
/// counts depends on this never seeing worker identity).
std::uint64_t content_seed(std::uint64_t seed, const std::string& key) {
  std::uint64_t h = 14695981039346656037ULL ^ seed;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Bit-for-bit triad equality: the cache must never answer a list
/// that merely compares equal (0.0 vs -0.0).
bool same_bits(const OperatingTriad& a, const OperatingTriad& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(a.tclk_ns) == bits(b.tclk_ns) &&
         bits(a.vdd_v) == bits(b.vdd_v) && bits(a.vbb_v) == bits(b.vbb_v);
}

bool same_bits(const std::vector<OperatingTriad>& a,
               const std::vector<OperatingTriad>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const OperatingTriad& x, const OperatingTriad& y) {
                      return same_bits(x, y);
                    });
}

/// The first occurrence of every item `same` equates, in order: an axis
/// entry given twice names the same cells.
template <class T, class Same>
std::vector<T> first_occurrences(const std::vector<T>& items, Same same) {
  std::vector<T> kept;
  for (const T& item : items)
    if (std::none_of(kept.begin(), kept.end(),
                     [&](const T& k) { return same(k, item); }))
      kept.push_back(item);
  return kept;
}

/// Everything computed once per circuit and shared by its cells.
struct CircuitContext {
  DutNetlist dut;
  double critical_path_ns = 0.0;
  std::vector<OperatingTriad> triads;
  /// Energy/BER join, per triad.
  std::shared_ptr<const std::vector<TriadResult>> characterized;
  /// Model backend, per triad (null where no pending cell reads one).
  std::vector<std::shared_ptr<const VosAdderModel>> models;
  std::optional<SeqDut> seq;  ///< registered view, sim-seq backend only
};

bool is_adder_shaped(const DutNetlist& dut, int width) {
  return dut.num_operands() == 2 && dut.operand_width(0) == width &&
         dut.operand_width(1) == width &&
         dut.output_width() == width + 1;
}

/// Relaxation ranking of a triad: the most relaxed operating point
/// (highest Vdd, then longest clock, then least body-bias) is the
/// energy baseline — the relaxed-nominal triad on every
/// Table-III-shaped grid. Chosen by content, never by grid position,
/// so reordered or resumed grids agree on it.
std::tuple<double, double, double> relaxation_rank(
    const OperatingTriad& t) {
  return std::make_tuple(t.vdd_v, t.tclk_ns, -t.vbb_v);
}

std::size_t baseline_index(const std::vector<OperatingTriad>& triads) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < triads.size(); ++i)
    if (relaxation_rank(triads[i]) > relaxation_rank(triads[best]))
      best = i;
  return best;
}

CircuitContext make_context(const CellLibrary& lib,
                            const CampaignConfig& config,
                            const std::string& spec, int adder_width,
                            bool needs_model, bool needs_gate_level,
                            bool needs_seq) {
  CircuitContext ctx;
  ctx.dut = build_circuit(spec);
  ctx.critical_path_ns =
      synthesize_report(ctx.dut.netlist, lib).critical_path_ns;

  if ((needs_model || needs_gate_level) &&
      !is_adder_shaped(ctx.dut, adder_width))
    throw std::invalid_argument(
        "campaign: circuit '" + spec + "' cannot back the workloads' " +
        std::to_string(adder_width) + "-bit routed adder (needs a " +
        std::to_string(adder_width) + "-bit two-operand adder)");
  if (needs_seq)
    ctx.seq = wrap_as_pipeline(ctx.dut);  // one wrap per circuit

  if (!config.triads.empty()) {
    ctx.triads = config.triads;
  } else if (!config.triad_specs.empty()) {
    for (const TriadSpec& s : config.triad_specs)
      ctx.triads.push_back(OperatingTriad{
          s.tclk_scale * ctx.critical_path_ns, s.vdd_v, s.vbb_v});
  } else {
    ctx.triads = make_circuit_triads(ctx.dut, ctx.critical_path_ns);
  }
  if (config.max_triads != 0 && ctx.triads.size() > config.max_triads)
    ctx.triads.resize(config.max_triads);
  ctx.triads = first_occurrences(
      ctx.triads, [](const OperatingTriad& a, const OperatingTriad& b) {
        return same_bits(a, b);
      });
  return ctx;
}

/// Characterization and model training for one circuit — deferred
/// until the grid enumeration proves the circuit has missing cells, so
/// a fully-resumed campaign answers from the store without touching a
/// simulator. `model_triads[t]` marks the triads some pending cell
/// will actually read a model for; only those are trained (resuming a
/// finished model grid with a new cheap backend must not re-train 43
/// models nobody reads). What `prepared` already holds is reused.
void prepare_context(const CellLibrary& lib, const CampaignConfig& config,
                     const std::string& spec, CircuitContext& ctx,
                     const std::vector<char>& model_triads,
                     PreparedCircuits& prepared, std::ostream* progress) {
  const std::shared_ptr<PreparedCircuits::Entry> entry =
      prepared.entry(spec, ctx.triads, config.characterize_patterns);
  // Held across the sweep and the training, which run on the pool; no
  // pool body takes it.
  const std::lock_guard<std::mutex> lock(entry->m);
  if (entry->characterized != nullptr) {
    obs::metrics().counter("campaign.prepared.reused").add();
  } else {
    // Gate-level energy + BER for the join, once per (circuit, triad):
    // the levelized engine collapses the whole grid into one normalized
    // timing pass.
    CharacterizeConfig ccfg;
    ccfg.num_patterns = config.characterize_patterns;
    ccfg.engine = EngineKind::kLevelized;
    ccfg.threads = config.jobs;
    if (progress != nullptr)
      *progress << "campaign: characterizing " << ctx.dut.display_name
                << " over " << ctx.triads.size() << " triads\n";
    obs::ScopedSpan span("campaign.characterize", "campaign");
    span.arg("circuit", ctx.dut.display_name)
        .arg("triads", static_cast<std::uint64_t>(ctx.triads.size()));
    obs::metrics().counter("campaign.characterize.calls").add();
    entry->characterized = std::make_shared<const std::vector<TriadResult>>(
        characterize_dut(ctx.dut, lib, ctx.triads, ccfg));
  }
  ctx.characterized = entry->characterized;

  if (entry->train_patterns != config.train_patterns) {
    entry->models.assign(ctx.triads.size(), nullptr);
    entry->train_patterns = config.train_patterns;
  }
  std::vector<std::size_t> to_train;
  for (std::size_t t = 0; t < model_triads.size(); ++t)
    if (model_triads[t] != 0 && entry->models[t] == nullptr)
      to_train.push_back(t);
  if (!to_train.empty()) {
    if (progress != nullptr)
      *progress << "campaign: training " << to_train.size()
                << " models for " << ctx.dut.display_name << "\n";
    obs::ScopedSpan train_span("campaign.train", "campaign");
    train_span.arg("circuit", ctx.dut.display_name)
        .arg("models", static_cast<std::uint64_t>(to_train.size()));
    obs::metrics().counter("campaign.train.calls").add(to_train.size());
    auto& models = entry->models;
    parallel_for(
        to_train.size(),
        [&lib, &config, &ctx, &to_train, &models](std::size_t i) {
          const std::size_t t = to_train[i];
          TimingSimConfig sim_cfg;
          sim_cfg.engine = EngineKind::kLevelized;
          VosDutSim sim(ctx.dut, lib, ctx.triads[t], sim_cfg);
          TrainerConfig tcfg;
          tcfg.num_patterns = config.train_patterns;
          models[t] = std::make_shared<const VosAdderModel>(train_vos_model(
              ctx.dut.operand_width(0), ctx.triads[t],
              sim_batch_adder_fn(sim), tcfg));
        },
        config.jobs);
  }
  ctx.models = entry->models;
}

}  // namespace

std::size_t PreparedCircuits::size() const {
  const std::lock_guard<std::mutex> lock(m_);
  return entries_.size();
}

std::shared_ptr<PreparedCircuits::Entry> PreparedCircuits::entry(
    const std::string& spec, const std::vector<OperatingTriad>& triads,
    std::size_t characterize_patterns) {
  const std::lock_guard<std::mutex> lock(m_);
  const auto hit = std::find_if(
      entries_.begin(), entries_.end(), [&](const auto& e) {
        return e->spec == spec &&
               e->characterize_patterns == characterize_patterns &&
               same_bits(e->triads, triads);
      });
  if (hit != entries_.end()) {
    std::rotate(entries_.begin(), hit, hit + 1);
    return entries_.front();
  }
  auto fresh = std::make_shared<Entry>();
  fresh->spec = spec;
  fresh->triads = triads;
  fresh->characterize_patterns = characterize_patterns;
  fresh->models.resize(triads.size());
  if (entries_.size() == kMaxEntries) entries_.pop_back();
  entries_.insert(entries_.begin(), fresh);
  return fresh;
}

std::uint64_t workload_data_seed(std::uint64_t campaign_seed,
                                 const std::string& workload) {
  return content_seed(campaign_seed, "data|" + workload);
}

const char* arith_backend_name(ArithBackend backend) {
  switch (backend) {
    case ArithBackend::kExact: return "exact";
    case ArithBackend::kModel: return "model";
    case ArithBackend::kSimEvent: return "sim-event";
    case ArithBackend::kSimLevelized: return "sim-levelized";
    case ArithBackend::kSimSeq: return "sim-seq";
  }
  return "?";
}

ArithBackend parse_arith_backend(const std::string& name) {
  if (name == "exact") return ArithBackend::kExact;
  if (name == "model") return ArithBackend::kModel;
  if (name == "sim-event") return ArithBackend::kSimEvent;
  if (name == "sim-levelized" || name == "sim")
    return ArithBackend::kSimLevelized;
  if (name == "sim-seq") return ArithBackend::kSimSeq;
  throw std::invalid_argument(
      "unknown backend '" + name +
      "' (expected exact | model | sim-event | sim-levelized | sim-seq)");
}

CampaignOutcome run_campaign(const CellLibrary& lib,
                             const CampaignConfig& config,
                             CampaignStore& store) {
  PreparedCircuits prepared;
  return run_campaign(lib, config, store, prepared);
}

CampaignOutcome run_campaign(const CellLibrary& lib,
                             const CampaignConfig& config,
                             CampaignStore& store,
                             PreparedCircuits& prepared) {
  // Each axis keeps the first occurrence of a repeated entry
  // ("--workloads fir,fir", a backend or circuit listed twice, a triad
  // repeated bit for bit), so no cell is computed or reported twice and
  // the grid order does not change.
  const std::vector<Workload> workloads = first_occurrences(
      resolve_workloads(config.workloads),
      [](const Workload& a, const Workload& b) { return a.name == b.name; });
  const std::vector<std::string> circuits =
      first_occurrences(config.circuits, std::equal_to<>());
  const std::vector<ArithBackend> backends =
      first_occurrences(config.backends, std::equal_to<>());
  if (config.circuits.empty())
    throw std::invalid_argument("campaign: no circuits selected");
  if (config.backends.empty())
    throw std::invalid_argument("campaign: no backends selected");
  if (config.shard_count == 0 ||
      config.shard_index >= config.shard_count)
    throw std::invalid_argument(
        "campaign: bad shard (need index < count, count >= 1)");
  // Every built-in workload routes the same adder width; the circuit
  // must expose it for the model/gate-level backends.
  const int adder_width = workloads.front().width;
  for (const Workload& w : workloads)
    if (w.width != adder_width)
      throw std::invalid_argument(
          "campaign: workloads disagree on adder width");
  bool needs_model = false;
  bool needs_gate_level = false;
  bool needs_seq = false;
  for (const ArithBackend b : backends) {
    needs_model = needs_model || b == ArithBackend::kModel;
    needs_gate_level = needs_gate_level || b == ArithBackend::kSimEvent ||
                       b == ArithBackend::kSimLevelized ||
                       b == ArithBackend::kSimSeq;
    needs_seq = needs_seq || b == ArithBackend::kSimSeq;
  }

  // Phase 1 — per-circuit netlist, synthesis and triad grid (the cell
  // keys need these; characterization waits until the store has been
  // consulted).
  std::vector<CircuitContext> contexts;
  contexts.reserve(circuits.size());
  {
    obs::ScopedSpan span("campaign.synth", "campaign");
    span.arg("circuits", static_cast<std::uint64_t>(circuits.size()));
    for (const std::string& spec : circuits)
      contexts.push_back(make_context(lib, config, spec, adder_width,
                                      needs_model, needs_gate_level,
                                      needs_seq));
  }

  // Phase 2 — enumerate the grid, answer finished cells from the store
  // and queue the rest.
  struct PendingCell {
    std::size_t slot;      ///< position in the outcome grid
    std::size_t workload;
    std::size_t circuit;
    std::size_t triad;
    ArithBackend backend;
    CampaignCellKey key;
    std::string key_str;   ///< key.to_string(), built and hashed once
  };
  // The chip axis: the nominal die alone, or fleet members 1..N.
  std::vector<std::uint64_t> chip_ids;
  if (config.fleet.num_chips == 0) {
    chip_ids.push_back(0);
  } else {
    for (std::uint64_t i = 1; i <= config.fleet.num_chips; ++i)
      chip_ids.push_back(i);
  }

  CampaignOutcome outcome;
  std::vector<PendingCell> pending;
  // The grid size is known up front, so each container is allocated
  // once: a doubling outcome vector briefly holds its cells twice,
  // which set a daemon's peak memory on large fleet grids. (A shard
  // keeps an unknown ~1/N share, so its outcome still grows.)
  std::size_t grid_cells = 0;
  for (const CircuitContext& ctx : contexts) grid_cells += ctx.triads.size();
  grid_cells *= workloads.size() * backends.size() * chip_ids.size();
  if (config.shard_count == 1) outcome.cells.reserve(grid_cells);
  // Store-lookup accounting: these count per lookup in the loop below,
  // so a snapshot's hit/miss exactly equals reused/computed (test_obs).
  obs::Counter& hit_counter = obs::metrics().counter("campaign.cache.hit");
  obs::Counter& miss_counter =
      obs::metrics().counter("campaign.cache.miss");
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (std::size_t c = 0; c < contexts.size(); ++c) {
      for (std::size_t t = 0; t < contexts[c].triads.size(); ++t) {
        for (const ArithBackend backend : backends) {
          for (const std::uint64_t chip : chip_ids) {
            CampaignCellKey key;
            key.workload = workloads[w].name;
            key.circuit = circuits[c];
            key.backend = arith_backend_name(backend);
            key.triad = contexts[c].triads[t];
            key.seed = config.seed;
            key.train_patterns =
                backend == ArithBackend::kModel ? config.train_patterns
                                                : 0;
            // The joined energy/BER depend on the characterization
            // budget, so it is part of the cell's identity too.
            key.characterize_patterns = config.characterize_patterns;
            key.chip = chip;
            // The one string the shard hash, the store lookup and the
            // model cell's Rng seed all read.
            std::string key_str = key.to_string();
            // Shard partition by content hash of the key: every shard
            // enumerates the identical grid and claims a disjoint
            // subset, independent of enumeration order or fleet size
            // (fixed hash seed — all shards and merge must agree).
            if (config.shard_count > 1 &&
                fleet_content_hash(0, key_str) % config.shard_count !=
                    config.shard_index)
              continue;
            const std::size_t slot = outcome.cells.size();
            auto hit = store.find(key_str);
            if (hit.has_value()) {
              outcome.cells.push_back(std::move(*hit));
              ++outcome.reused;
              hit_counter.add();
            } else {
              outcome.cells.push_back(CampaignCell{});  // filled below
              pending.push_back({slot, w, c, t, backend, std::move(key),
                                 std::move(key_str)});
              miss_counter.add();
            }
          }
        }
      }
    }
  }
  if (config.progress != nullptr) {
    *config.progress << "campaign: grid " << outcome.cells.size()
                     << " cells";
    if (config.shard_count > 1)
      *config.progress << " (shard " << config.shard_index << "/"
                       << config.shard_count << ")";
    *config.progress << ", " << outcome.reused << " from store, "
                     << pending.size() << " to compute\n";
  }

  // Phase 2.5 — characterize only the circuits that still have missing
  // cells, and train only the (circuit, triad) models some pending
  // model-backend cell will read (characterization and training
  // parallelize internally over the shared pool), unless `prepared`
  // already holds them.
  std::vector<bool> circuit_pending(contexts.size(), false);
  std::vector<std::vector<char>> model_triads(contexts.size());
  for (std::size_t c = 0; c < contexts.size(); ++c)
    model_triads[c].assign(contexts[c].triads.size(), 0);
  for (const PendingCell& p : pending) {
    circuit_pending[p.circuit] = true;
    if (p.backend == ArithBackend::kModel)
      model_triads[p.circuit][p.triad] = 1;
  }
  for (std::size_t c = 0; c < contexts.size(); ++c)
    if (circuit_pending[c])
      prepare_context(lib, config, circuits[c], contexts[c],
                      model_triads[c], prepared, config.progress);

  // Shared runs. An exact cell's result depends on (workload, campaign
  // seed) only, and a gate-level cell whose die static timing proves
  // error-free at its triad samples the settled outputs in every
  // operation, so its result is the workload run on the circuit's
  // settled function. Each such run is made once per (adder, workload)
  // by the first cell that needs it, whose elapsed_s pays for it, and
  // copied by the rest. Adder 0 is the exact adder, adder 1 + c circuit
  // c's settled function.
  struct SharedRun {
    std::once_flag once;
    QualityResult q;
  };
  std::vector<SharedRun> shared((1 + contexts.size()) * workloads.size());
  obs::Counter& settled_counter =
      obs::metrics().counter("campaign.cells.settled");

  // Phase 3 — run the missing cells on the pool. Cells are coarse
  // (one full workload run), so index-claiming costs are negligible.
  obs::ScopedSpan execute_span("campaign.execute", "campaign");
  execute_span.arg("pending", static_cast<std::uint64_t>(pending.size()));
  auto& cells = outcome.cells;
  parallel_for(
      pending.size(),
      [&](std::size_t i) {
        const PendingCell& p = pending[i];
        const Workload& wl = workloads[p.workload];
        const CircuitContext& ctx = contexts[p.circuit];
        const TriadResult& tr = (*ctx.characterized)[p.triad];
        obs::ScopedSpan cell_span("campaign.cell", "campaign");
        cell_span.arg("workload", wl.name)
            .arg("circuit", p.key.circuit)
            .arg("backend", p.key.backend)
            .arg("chip", p.key.chip);
        const auto t0 = std::chrono::steady_clock::now();
        double wait_s = 0.0;  // blocked while another cell made a run

        QualityResult q;
        double register_energy_fj = 0.0;  // sim-seq: bank clock/latch
        std::string culprits;  // provenance mode, sim backends only
        const std::uint64_t dseed = workload_data_seed(config.seed, wl.name);
        // The chip's die corner — pure content, so any shard or
        // thread schedule reconstructs the same die. Chip 0 is the
        // nominal die and leaves every config untouched.
        const ChipInstance chip =
            draw_chip_instance(config.fleet, p.key.chip);
        // Copies the shared run on `adder`, making it if no cell has.
        // A cell that blocks while another makes it leaves the wait out
        // of its elapsed_s, so the run is counted once.
        const auto copy_shared = [&](std::size_t adder) {
          SharedRun& run = shared[adder * workloads.size() + p.workload];
          bool made = false;
          const auto w0 = std::chrono::steady_clock::now();
          std::call_once(run.once, [&] {
            obs::ScopedSpan span("campaign.shared_run", "campaign");
            span.arg("workload", wl.name)
                .arg("adder", adder == 0 ? std::string("exact")
                                         : p.key.circuit);
            run.q = wl.run(adder == 0 ? exact_adder_fn(wl.width)
                                      : settled_adder_fn(ctx.dut),
                           dseed);
            made = true;
          });
          if (!made)
            wait_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - w0)
                         .count();
          q = run.q;
        };
        // Answers the cell from the settled run when the engine it built
        // is STA error-free. sim-event cells keep simulating, as the
        // in-grid cross-check, and so does every cell of a provenance
        // campaign, whose culprits come from the engines.
        const auto copy_settled = [&](bool sta_error_free) {
          if (!sta_error_free || config.provenance ||
              p.backend == ArithBackend::kSimEvent)
            return false;
          copy_shared(1 + p.circuit);
          settled_counter.add();
          return true;
        };
        switch (p.backend) {
          case ArithBackend::kExact:
            copy_shared(0);
            break;
          case ArithBackend::kModel: {
            Rng rng(content_seed(config.seed, p.key_str));
            q = wl.run(model_adder_fn(*ctx.models[p.triad], rng), dseed);
            break;
          }
          case ArithBackend::kSimEvent:
          case ArithBackend::kSimLevelized: {
            TimingSimConfig sim_cfg;
            sim_cfg.engine = p.backend == ArithBackend::kSimEvent
                                 ? EngineKind::kEvent
                                 : EngineKind::kLevelized;
            sim_cfg = apply_chip(sim_cfg, chip,
                                 config.fleet.within_die_sigma);
            VosDutSim sim(ctx.dut, lib, ctx.triads[p.triad], sim_cfg);
            if (copy_settled(sim.sta_error_free())) break;
            std::unique_ptr<ErrorProvenance> prov;
            if (config.provenance) {
              prov = std::make_unique<ErrorProvenance>(ctx.dut);
              sim.engine().attach_observer(prov.get());
            }
            q = wl.run(sim_batch_adder_fn(sim), dseed);
            if (prov != nullptr) {
              culprits = prov->summary().top_culprits_string(
                  config.top_culprits);
              prov->publish("provenance.campaign", config.top_culprits);
            }
            break;
          }
          case ArithBackend::kSimSeq: {
            // The adder between real registers: truncating clocked
            // semantics on the levelized backend. The joined energy/op
            // additionally pays the bank's clock/latch energy.
            TimingSimConfig sim_cfg;
            sim_cfg.engine = EngineKind::kLevelized;
            sim_cfg = apply_chip(sim_cfg, chip,
                                 config.fleet.within_die_sigma);
            SeqSim sim(*ctx.seq, lib, ctx.triads[p.triad], sim_cfg);
            register_energy_fj = seq_clock_energy_fj(
                *ctx.seq, lib, ctx.triads[p.triad].vdd_v);
            if (copy_settled(sim.sta_error_free())) break;
            std::vector<std::unique_ptr<ErrorProvenance>> provs;
            if (config.provenance) {
              for (std::size_t k = 0; k < sim.num_stages(); ++k) {
                const DutPinMap spins(ctx.seq->stages[k]);
                provs.push_back(std::make_unique<ErrorProvenance>(
                    ctx.seq->stages[k].netlist, spins,
                    static_cast<int>(k)));
                sim.stage_engine(k).attach_observer(provs[k].get());
              }
            }
            q = wl.run(seq_batch_adder_fn(sim), dseed);
            if (!provs.empty()) {
              // Stage culprits share one top-K budget per cell; names
              // carry the "s<k>:" stage prefix.
              std::vector<ProvenanceSummary> stages;
              for (const auto& prov : provs) {
                stages.push_back(prov->summary());
                prov->publish("provenance.campaign",
                              config.top_culprits);
              }
              culprits =
                  combine_stage_summaries(stages, config.top_culprits)
                      .top_culprits_string(config.top_culprits);
            }
            break;
          }
        }

        CampaignCell cell;
        cell.key = p.key;
        cell.metric = q.metric;
        cell.quality = q.value;
        cell.normalized = q.normalized;
        // Cross-chip caching: characterization ran once on the nominal
        // die; a fleet member's energy rescales the characterized
        // leakage by its die corner analytically instead of
        // re-characterizing the grid per chip. Chip 0 keeps the exact
        // pre-fleet sum (no recomputed rounding).
        cell.energy_per_op_fj =
            p.key.chip == 0
                ? tr.energy_per_op_fj + register_energy_fj
                : tr.dynamic_energy_fj +
                      tr.leakage_energy_fj * chip.leakage_scale +
                      register_energy_fj;
        cell.baseline_fj =
            (*ctx.characterized)[baseline_index(ctx.triads)].energy_per_op_fj;
        cell.ber = tr.ber;
        cell.adds = q.adds;
        cell.culprits = culprits;
        cell.elapsed_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count() -
                         wait_s;
        obs::metrics()
            .histogram("campaign.cell.seconds." + cell.key.backend)
            .observe(cell.elapsed_s);
        store.insert(cell);  // append-on-complete
        cells[p.slot] = cell;
        if (config.on_cell) config.on_cell(cell);
      },
      config.jobs);
  outcome.computed = pending.size();

  outcome.stored_baseline_fj.reserve(cells.size());
  for (const CampaignCell& cell : cells)
    outcome.stored_baseline_fj.push_back(cell.baseline_fj);

  // Reused cells carry the baseline their original grid had; rebase
  // every cell of a circuit on the current grid's most relaxed triad
  // so one report never mixes savings baselines. Per-triad energy is
  // backend-independent within an energy class — but sim-seq charges
  // the register clock energy on top, so registered and combinational
  // cells rebase separately (a registered design's guard-banded
  // baseline pays its flops too). On a fleet grid each chip is its own
  // die corner, so savings compare against that chip's own
  // guard-banded baseline, not the nominal die's. One pass picks each
  // (circuit, class, chip) group's most relaxed cell (the first in
  // outcome order on ties) and a second assigns its energy, so the
  // cost grows with the grid, never with its square.
  using RebaseGroup = std::tuple<std::string_view, bool, std::uint64_t>;
  const auto group_of = [](const CampaignCell& cell) {
    return RebaseGroup(cell.key.circuit, cell.key.backend == "sim-seq",
                       cell.key.chip);
  };
  std::map<RebaseGroup, std::size_t> base;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto [it, fresh] = base.try_emplace(group_of(cells[i]), i);
    if (!fresh && relaxation_rank(cells[i].key.triad) >
                      relaxation_rank(cells[it->second].key.triad))
      it->second = i;
  }
  for (CampaignCell& cell : cells)
    cell.baseline_fj = cells[base.at(group_of(cell))].energy_per_op_fj;
  return outcome;
}

}  // namespace vosim
