// vosim command-line tool: synthesize, characterize, train models and
// export netlists without writing C++ — for any supported DUT circuit.
//
//   vosim_cli synth <circuit>
//   vosim_cli characterize <circuit> [--patterns N] [--csv out.csv]
//                          [--engine event|levelized]
//                          [--provenance] [--top-culprits N]
//   vosim_cli train <circuit> --tclk T --vdd V [--vbb B]
//                   [--metric mse|hamming|whamming] [--out model.txt]
//                   [--engine event|levelized]      (adders only)
//   vosim_cli verilog <circuit> [--prune]
//   vosim_cli triads <circuit>
//   vosim_cli variability <circuit> [--dies N] [--sigma S]
//                         [--tclk NS --vdd V --vbb V]
//                         [--engine event|levelized]
//   vosim_cli campaign [--workloads W1,W2|all] [--circuits C1,C2]
//                      [--backends exact|model|sim-event|sim-levelized]
//                      [--store campaign.jsonl] [--quality-floor F]
//                      [--patterns N] [--train-patterns N] [--seed S]
//                      [--max-triads N] [--jobs N] [--csv out.csv]
//                      [--chips N] [--fleet-seed S] [--shard i/N]
//                      [--provenance] [--top-culprits N]
//   vosim_cli merge-store <out.jsonl> <in1.jsonl> [in2.jsonl ...]
//                      [--strip-timing]
//   vosim_cli fleet [circuit] [--chips N] [--cycles N] [--patterns N]
//                      [--speed-sigma S] [--leakage-sigma S] [--jobs N]
//   vosim_cli serve --socket PATH [--store FILE] [--jobs N]
//   vosim_cli request --socket PATH --json '{"cmd":"..."}'
//
// Every subcommand additionally accepts the telemetry options
//   --trace out.json     write a Chrome-trace (Perfetto-loadable) span
//                        timeline of the run
//   --metrics-json FILE  write {"manifest":{...},"metrics":{...}} —
//                        the run manifest plus a counters/gauges/
//                        histograms snapshot (DESIGN.md §12). Written
//                        atomically (temp file + rename), so a watcher
//                        tailing FILE never reads a torn snapshot.
//
// --provenance (characterize, campaign) attaches ErrorProvenance
// observers (DESIGN.md §13): per-net culprit attribution, per-bit BER
// and slack-consumption histograms; --top-culprits N bounds the
// reported nets. Forces the generic per-triad sweep (the fast grid
// paths never dispatch observers), so expect the sweep itself to slow
// down — observers-off runs are unaffected.
//
// <circuit> is a registry spec — rca8, bka16, mul8-array,
// mul8-wallace, tree8x8, mac4x8, loa8-4, … (also accepted via
// --circuit SPEC).
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "src/util/args.hpp"
#include "src/vosim.hpp"

namespace {

using namespace vosim;

int usage(const std::string& program) {
  std::cerr
      << "usage: " << program
      << " <command> (<circuit> | --circuit SPEC) [options]\n"
      << "commands:\n"
      << "  synth         area / power / critical-path report\n"
      << "                (pipelines: per-stage report + slack)\n"
      << "  variability   Monte-Carlo die-to-die spread at one triad\n"
      << "  characterize  43-triad VOS sweep (BER + energy/op)\n"
      << "  train         fit a statistical model at one triad (adders)\n"
      << "  verilog       dump the structural netlist\n"
      << "  triads        list the Table-III operating triads\n"
      << "  campaign      resumable workload x circuit x triad x backend\n"
      << "                quality-energy sweep with Pareto fronts\n"
      << "  merge-store   content-keyed union of shard-local stores\n"
      << "  fleet         closed-loop rung/energy distribution across a\n"
      << "                population of process-corner chip instances\n"
      << "  serve         long-lived sweep daemon on a Unix socket\n"
      << "  request       send one JSON request to a serve daemon\n"
      << known_circuits_help() << "\n"
      << known_seq_circuits_help() << "\n"
      << known_workloads_help() << "\n"
      << "options: --patterns N --csv FILE --tclk NS --vdd V --vbb V\n"
      << "         --metric mse|hamming|whamming --out FILE\n"
      << "         --engine event|levelized (simulation backend;\n"
      << "           levelized = bit-parallel, ~10x+ faster sweeps)\n"
      << "         --list-circuits (print the whole circuit registry\n"
      << "           with operand widths and gate counts, then exit)\n"
      << "         --trace FILE (Chrome-trace span timeline; load in\n"
      << "           Perfetto / chrome://tracing)\n"
      << "         --metrics-json FILE (run manifest + metrics snapshot;\n"
      << "           atomic temp-file + rename write)\n"
      << "         --provenance (characterize/campaign: per-net culprit\n"
      << "           attribution + per-bit BER + slack histograms on the\n"
      << "           sim engines; forces the generic sweep paths)\n"
      << "         --top-culprits N (culprit nets reported per result)\n"
      << "campaign: --workloads L --circuits L --backends L (comma lists;\n"
      << "          backends: exact model sim-event sim-levelized sim-seq)\n"
      << "          --store FILE (JSONL; resumes finished cells)\n"
      << "          --quality-floor F --train-patterns N --seed S\n"
      << "          --max-triads N --jobs N\n"
      << "          --chips N (fleet chip axis) --fleet-seed S\n"
      << "          --shard i/N (this process computes the content-hashed\n"
      << "            1/N of the grid; merge-store unions shard stores)\n";
  return 2;
}

/// --list-circuits: builds every registry example and prints one row
/// per spec with its pinout and size — combinational and pipelined.
int list_circuits() {
  TextTable t({"spec", "display", "operands", "out bits", "gates",
               "stages"});
  for (const std::string& spec : circuit_registry_examples()) {
    const DutNetlist dut = build_circuit(spec);
    std::string widths;
    for (std::size_t i = 0; i < dut.num_operands(); ++i) {
      if (!widths.empty()) widths += ",";
      widths += std::to_string(dut.operand_width(i));
    }
    t.add_row({spec, dut.display_name,
               std::to_string(dut.num_operands()) + "x" + widths,
               std::to_string(dut.output_width()),
               std::to_string(dut.netlist.num_gates()), "-"});
  }
  for (const std::string& spec : seq_circuit_registry()) {
    const SeqDut seq = build_seq_circuit(spec);
    std::string widths;
    for (std::size_t i = 0; i < seq.num_operands(); ++i) {
      if (!widths.empty()) widths += ",";
      widths += std::to_string(seq.operand_width(i));
    }
    t.add_row({spec, seq.display_name,
               std::to_string(seq.num_operands()) + "x" + widths,
               std::to_string(seq.output_width()),
               std::to_string(seq.num_gates()),
               std::to_string(seq.num_stages())});
  }
  t.print(std::cout);
  return 0;
}

/// Per-triad provenance digest printed under the sweep table when
/// --provenance is on: error counts, worst-case slack consumption and
/// the top culprit nets of every triad that saw at least one operation
/// (triads the generic sweep skipped stay silent).
void print_provenance(const std::vector<TriadResult>& results,
                      std::size_t top_k) {
  TextTable t({"triad", "err ops", "attrib bits", "slack p95 (ps)",
               "slack max (ps)", "top culprits"});
  for (const TriadResult& r : results) {
    const ProvenanceSummary& p = r.provenance;
    if (p.ops == 0) continue;
    t.add_row({triad_label(r.triad), std::to_string(p.erroneous_ops),
               std::to_string(p.attributed_bits),
               format_double(p.slack_p95_ps, 1),
               format_double(p.slack_max_ps, 1),
               p.attributed_bits == 0 ? "-" : p.top_culprits_string(top_k)});
  }
  std::cout << "\n--- error provenance (per-net culprit attribution) ---\n";
  t.print(std::cout);
}

/// Pipelined circuits route synth/triads/characterize through the
/// sequential subsystem; the remaining commands are combinational-only.
int run_seq(const ArgParser& args, const std::string& command,
            const std::string& spec) {
  const CellLibrary& lib = make_fdsoi28_lvt();
  const SeqDut seq = build_seq_circuit(spec);
  const EngineKind engine = parse_engine_kind(args.get("engine", "event"));
  const double cp_ns = seq_critical_path_ns(seq, lib);

  if (command == "synth") {
    const std::vector<SynthesisReport> reports =
        seq_stage_reports(seq, lib);
    TextTable t({"stage", "gates", "area (um2)", "power (uW)", "CP (ns)",
                 "slack @CP (ps)"});
    const OperatingTriad nominal{cp_ns, 1.0, 0.0};
    const std::vector<StageSlack> slacks =
        seq_stage_slacks(seq, lib, nominal);
    for (std::size_t k = 0; k < reports.size(); ++k) {
      const SynthesisReport& r = reports[k];
      t.add_row({std::to_string(k), std::to_string(r.num_gates),
                 format_double(r.area_um2, 1),
                 format_double(r.total_power_uw, 1),
                 format_double(r.critical_path_ns, 3),
                 format_double(slacks[k].slack_ps, 1)});
    }
    t.print(std::cout);
    std::cout << seq.display_name << ": " << seq.num_stages()
              << " stages, " << seq.num_gates() << " gates, "
              << seq.num_flops() << " flops, pipeline CP "
              << format_double(cp_ns, 3) << " ns\n";
    return 0;
  }

  const auto triads = make_dut_triads(cp_ns);

  if (command == "triads") {
    TextTable t({"#", "triad"});
    for (std::size_t i = 0; i < triads.size(); ++i)
      t.add_row({std::to_string(i), triad_label(triads[i])});
    t.print(std::cout);
    return 0;
  }

  if (command == "characterize") {
    CharacterizeConfig cfg;
    cfg.num_patterns = args.get_uint("patterns", 20000);
    cfg.engine = engine;
    cfg.provenance = args.has("provenance");
    cfg.top_culprits = args.get_uint("top-culprits", cfg.top_culprits);
    std::cerr << "pipeline: " << seq.display_name
              << ", engine: " << engine_kind_name(engine) << "\n";
    const auto results = characterize_seq_dut(seq, lib, triads, cfg);
    const double baseline = results[0].energy_per_op_fj;
    const TextTable t = fig8_table(sort_for_fig8(results), baseline);
    t.print(std::cout);
    if (args.has("csv"))
      std::cout << "CSV: " << write_csv(t, args.get("csv", "sweep.csv"))
                << "\n";
    if (cfg.provenance)
      print_provenance(sort_for_fig8(results), cfg.top_culprits);
    return 0;
  }

  throw std::invalid_argument(
      "command '" + command + "' supports combinational circuits only; "
      "pipelines support synth | triads | characterize");
}

/// The circuit spec from --circuit or the one positional ("rca8").
std::string circuit_spec(const ArgParser& args) {
  if (args.has("circuit")) return args.get("circuit", "");
  if (args.positional().size() >= 2) return args.positional()[1];
  throw std::invalid_argument("missing circuit spec");
}

DistanceMetric parse_metric(const std::string& name) {
  if (name == "mse") return DistanceMetric::kMse;
  if (name == "hamming") return DistanceMetric::kHamming;
  if (name == "whamming") return DistanceMetric::kWeightedHamming;
  throw std::invalid_argument("unknown metric: " + name);
}

/// Parses "--shard i/N" into the config's shard fields.
void parse_shard(const ArgParser& args, CampaignConfig& cfg) {
  if (!args.has("shard")) return;
  const std::string spec = args.get("shard", "0/1");
  const std::size_t slash = spec.find('/');
  if (slash == std::string::npos)
    throw std::invalid_argument("bad --shard (expected i/N)");
  cfg.shard_index = parse_uint(spec.substr(0, slash), "--shard index");
  cfg.shard_count = parse_uint(spec.substr(slash + 1), "--shard count");
}

/// The run manifest stamped into campaign stores and --metrics-json
/// files: what produced this data, with which engine/shard, hashed
/// over the full canonical invocation.
obs::RunManifest make_manifest(const ArgParser& args,
                               const std::string& command) {
  obs::RunManifest m;
  m.tool = command;
  // campaign/fleet/serve run the bit-parallel engine internally; the
  // per-circuit commands default to the event engine unless asked.
  const bool levelized_tool = command == "campaign" ||
                              command == "fleet" || command == "serve";
  m.engine = args.get("engine", levelized_tool ? "levelized" : "event");
  m.shard = args.get("shard", "0/1");
  m.config = args.canonical();
  return m;
}

/// The campaign subcommand: a resumable quality-energy sweep over the
/// workload x circuit x triad x backend grid with Pareto aggregation.
int run_campaign_command(const ArgParser& args) {
  CampaignConfig cfg;
  cfg.workloads = args.get_list("workloads", cfg.workloads);
  cfg.circuits = args.get_list("circuits", cfg.circuits);
  cfg.backends.clear();
  for (const std::string& name : args.get_list("backends", {"model"}))
    cfg.backends.push_back(parse_arith_backend(name));
  cfg.seed = args.get_uint("seed", 1);
  cfg.characterize_patterns = args.get_uint("patterns", 2000);
  cfg.train_patterns = args.get_uint("train-patterns", 4000);
  cfg.max_triads = args.get_uint("max-triads", 0);
  cfg.jobs = static_cast<unsigned>(args.get_uint("jobs", 0));
  cfg.fleet.num_chips = args.get_uint("chips", 0);
  cfg.fleet.seed = args.get_uint("fleet-seed", 7);
  cfg.fleet.speed_sigma =
      args.get_double("chip-speed-sigma", cfg.fleet.speed_sigma);
  cfg.fleet.leakage_sigma =
      args.get_double("chip-leakage-sigma", cfg.fleet.leakage_sigma);
  cfg.provenance = args.has("provenance");
  cfg.top_culprits = args.get_uint("top-culprits", cfg.top_culprits);
  parse_shard(args, cfg);
  cfg.progress = &std::cerr;
  const double floor = args.get_double("quality-floor", 0.9);

  CampaignStore store(args.get("store", ""));
  // Stamp a fresh file-backed store with this run's manifest (no-op on
  // stores that already carry one — the first producer wins).
  store.write_header(make_manifest(args, "campaign").to_jsonl());
  const CampaignOutcome outcome =
      run_campaign(make_fdsoi28_lvt(), cfg, store);
  std::cout << "campaign: " << outcome.cells.size() << " cells ("
            << outcome.reused << " reused, " << outcome.computed
            << " computed)";
  if (!store.path().empty()) std::cout << ", store: " << store.path();
  std::cout << "\n\n";

  const TextTable grid = campaign_table(outcome.cells);
  grid.print(std::cout);
  if (args.has("csv"))
    std::cout << "CSV: " << write_csv(grid, args.get("csv", "campaign.csv"))
              << "\n";

  if (cfg.provenance) {
    // Culprit nets of every gate-level sim cell (model/exact cells
    // carry none — provenance needs an engine to observe).
    TextTable pt({"workload", "circuit", "backend", "triad", "chip",
                  "culprits"});
    for (const CampaignCell& cell : outcome.cells)
      if (!cell.culprits.empty())
        pt.add_row({cell.key.workload, cell.key.circuit, cell.key.backend,
                    triad_label(cell.key.triad),
                    std::to_string(cell.key.chip), cell.culprits});
    std::cout << "\n--- culprit nets (per sim cell) ---\n";
    pt.print(std::cout);
  }

  // Resolve again so the "all" alias expands to real workload names
  // (cell keys never contain the alias).
  for (const Workload& workload_entry : resolve_workloads(cfg.workloads)) {
    const std::string& workload = workload_entry.name;
    for (const ArithBackend backend : cfg.backends) {
      if (backend == ArithBackend::kExact) continue;  // flat quality
      const auto group = select_cells(outcome.cells, workload,
                                      arith_backend_name(backend));
      if (group.empty()) continue;
      std::cout << "\n--- Pareto front: " << workload << " / "
                << arith_backend_name(backend) << " ---\n";
      pareto_table(pareto_front(group)).print(std::cout);
      const auto pick = min_energy_at_floor(group, floor);
      std::cout << "quality floor " << format_double(floor, 2) << ": ";
      if (pick.has_value())
        std::cout << "min energy " << format_double(pick->energy_per_op_fj, 2)
                  << " fJ/op at " << triad_label(pick->key.triad) << " ("
                  << pick->metric << " "
                  << format_double(pick->quality, 3) << ")\n";
      else
        std::cout << "unreachable on this grid\n";
    }
  }

  const QualityDeviation dev = model_quality_deviation(outcome.cells);
  if (dev.cells > 0)
    std::cout << "\nMODEL_QUALITY_DEV " << format_double(dev.max_pp, 3)
              << "\nmodel vs gate-level quality deviation over "
              << dev.cells << " cells: mean "
              << format_double(dev.mean_pp, 2) << " pp, max "
              << format_double(dev.max_pp, 2) << " pp\n";
  return 0;
}

/// merge-store <out> <in...>: content-keyed last-write-wins union of
/// shard-local stores, written in canonical key order (also a
/// canonicalizer for a single store — see merge_stores()).
int run_merge_store(const ArgParser& args) {
  const auto& pos = args.positional();
  if (pos.size() < 3)
    throw std::invalid_argument(
        "merge-store needs <out.jsonl> <in1.jsonl> [in2.jsonl ...]");
  const std::vector<std::string> inputs(pos.begin() + 2, pos.end());
  const MergeStats stats =
      merge_stores(inputs, pos[1], args.has("strip-timing"));
  std::cout << "merged " << stats.files << " stores: " << stats.lines
            << " lines, " << stats.skipped << " skipped, "
            << stats.manifests << " manifests excluded, "
            << stats.cells << " cells -> " << pos[1] << "\n";
  return 0;
}

/// fleet [circuit]: the closed-loop rung/energy distribution across a
/// population of content-hashed process-corner chip instances.
int run_fleet_command(const ArgParser& args) {
  FleetStudyConfig cfg;
  if (args.has("circuit")) cfg.circuit = args.get("circuit", cfg.circuit);
  else if (args.positional().size() >= 2) cfg.circuit = args.positional()[1];
  cfg.fleet.num_chips = args.get_uint("chips", 25);
  cfg.fleet.seed = args.get_uint("fleet-seed", 7);
  cfg.fleet.speed_sigma =
      args.get_double("speed-sigma", cfg.fleet.speed_sigma);
  cfg.fleet.leakage_sigma =
      args.get_double("leakage-sigma", cfg.fleet.leakage_sigma);
  cfg.fleet.within_die_sigma =
      args.get_double("within-sigma", cfg.fleet.within_die_sigma);
  cfg.ladder_patterns = args.get_uint("patterns", 2000);
  cfg.cycles = args.get_uint("cycles", 4096);
  cfg.jobs = static_cast<unsigned>(args.get_uint("jobs", 0));

  const FleetOutcome out = run_fleet_study(make_fdsoi28_lvt(), cfg);
  std::cout << "fleet: " << cfg.circuit << ", "
            << cfg.fleet.num_chips << " chips, " << cfg.cycles
            << " cycles each, " << out.ladder.size()
            << "-rung ladder\n\n";
  TextTable ladder_t({"rung", "triad", "E/cycle [fJ]", "char. BER [%]",
                      "chips ending here"});
  for (std::size_t r = 0; r < out.ladder.size(); ++r)
    ladder_t.add_row({std::to_string(r), triad_label(out.ladder[r].triad),
                      format_double(out.ladder[r].energy_per_op_fj, 1),
                      format_double(out.ladder[r].expected_ber * 100.0, 2),
                      std::to_string(out.rung_histogram[r])});
  ladder_t.print(std::cout);

  TextTable spread_t({"metric", "mean", "stddev", "min", "median", "max"});
  spread_t.add_row({"E/cycle [fJ]", format_double(out.energy_fj.mean, 2),
                    format_double(out.energy_fj.stddev, 2),
                    format_double(out.energy_fj.min, 2),
                    format_double(out.energy_fj.median, 2),
                    format_double(out.energy_fj.max, 2)});
  spread_t.add_row({"final rung", format_double(out.final_rung.mean, 2),
                    format_double(out.final_rung.stddev, 2),
                    format_double(out.final_rung.min, 0),
                    format_double(out.final_rung.median, 0),
                    format_double(out.final_rung.max, 0)});
  spread_t.print(std::cout);
  return 0;
}

/// serve: the long-lived sweep daemon. Runs until a client sends
/// {"cmd":"shutdown"}.
int run_serve_command(const ArgParser& args) {
  ServeConfig cfg;
  cfg.socket_path = args.get("socket", "");
  if (cfg.socket_path.empty())
    throw std::invalid_argument("serve needs --socket PATH");
  cfg.store_path = args.get("store", "");
  cfg.jobs = static_cast<unsigned>(args.get_uint("jobs", 0));
  CampaignServer server(make_fdsoi28_lvt(), cfg);
  server.start();
  std::cout << "serving on " << server.socket_path()
            << (cfg.store_path.empty() ? ""
                                       : " (store: " + cfg.store_path + ")")
            << "\n"
            << std::flush;
  server.wait();
  server.stop();
  std::cout << "served " << server.requests_served()
            << " requests, shutting down\n";
  return 0;
}

/// request: one-shot client for the serve daemon; prints every
/// streamed response line.
int run_request_command(const ArgParser& args) {
  const std::string socket = args.get("socket", "");
  if (socket.empty())
    throw std::invalid_argument("request needs --socket PATH");
  const std::string json = args.get("json", "{\"cmd\":\"ping\"}");
  for (const std::string& line : send_request(socket, json))
    std::cout << line << "\n";
  return 0;
}

int run_command(const ArgParser& args) {
  if (args.has("list-circuits")) return list_circuits();
  if (args.positional().empty()) return usage(args.program());
  const std::string command = args.positional()[0];
  if (command == "campaign") return run_campaign_command(args);
  if (command == "merge-store") return run_merge_store(args);
  if (command == "fleet") return run_fleet_command(args);
  if (command == "serve") return run_serve_command(args);
  if (command == "request") return run_request_command(args);
  std::string spec;
  try {
    spec = circuit_spec(args);
  } catch (const std::invalid_argument&) {
    return usage(args.program());
  }
  if (is_seq_circuit_spec(spec)) return run_seq(args, command, spec);

  const CellLibrary& lib = make_fdsoi28_lvt();
  DutNetlist dut;
  try {
    dut = build_circuit(spec);
  } catch (const std::invalid_argument&) {
    // Re-diagnose across both registries so a pipeline typo that fell
    // through the combinational parser still suggests the pipeline.
    throw std::invalid_argument(unknown_circuit_message(spec));
  }
  const SynthesisReport rep = synthesize_report(dut.netlist, lib);
  const EngineKind engine = parse_engine_kind(args.get("engine", "event"));

  if (command == "synth") {
    TextTable t({"design", "gates", "flops", "area (um2)", "power (uW)",
                 "CP (ns)", "TT CP (ns)"});
    t.add_row({rep.design, std::to_string(rep.num_gates),
               std::to_string(rep.num_flops),
               format_double(rep.area_um2, 1),
               format_double(rep.total_power_uw, 1),
               format_double(rep.critical_path_ns, 3),
               format_double(rep.tt_critical_path_ns, 3)});
    t.print(std::cout);
    return 0;
  }

  if (command == "verilog") {
    if (args.has("prune")) {
      PruneStats stats;
      const Netlist pruned = prune_dead_gates(dut.netlist, &stats);
      std::cerr << "pruned " << (stats.gates_before - stats.gates_after)
                << " dead gates\n";
      write_verilog(pruned, std::cout);
    } else {
      write_verilog(dut.netlist, std::cout);
    }
    return 0;
  }

  if (command == "variability") {
    VariabilityConfig vcfg;
    vcfg.num_dies = static_cast<int>(args.get_uint("dies", 25));
    vcfg.variation_sigma = args.get_double("sigma", 0.05);
    vcfg.num_patterns = args.get_uint("patterns", 3000);
    vcfg.jobs = static_cast<unsigned>(args.get_uint("jobs", 0));
    vcfg.engine = engine;
    const OperatingTriad triad{
        args.get_double("tclk", rep.critical_path_ns),
        args.get_double("vdd", 0.5), args.get_double("vbb", 2.0)};
    const auto study = variability_study(dut, lib, {triad}, vcfg);
    const VariabilityResult& r = study[0];
    TextTable t({"triad", "dies", "clean [%]", "BER med [%]",
                 "BER max [%]", "E/op med [fJ]"});
    t.add_row({triad_label(r.triad), std::to_string(r.dies),
               format_double(r.error_free_die_fraction * 100.0, 0),
               format_double(r.ber.median * 100.0, 2),
               format_double(r.ber.max * 100.0, 2),
               format_double(r.energy_fj.median, 2)});
    t.print(std::cout);
    return 0;
  }

  const auto triads = make_circuit_triads(dut, rep.critical_path_ns);

  if (command == "triads") {
    table3_rows(rep.design, triads).print(std::cout);
    TextTable t({"#", "triad"});
    for (std::size_t i = 0; i < triads.size(); ++i)
      t.add_row({std::to_string(i), triad_label(triads[i])});
    t.print(std::cout);
    return 0;
  }

  if (command == "characterize") {
    CharacterizeConfig cfg;
    cfg.num_patterns = args.get_uint("patterns", 20000);
    cfg.engine = engine;
    cfg.provenance = args.has("provenance");
    cfg.top_culprits = args.get_uint("top-culprits", cfg.top_culprits);
    std::cerr << "circuit: " << dut.display_name
              << ", engine: " << engine_kind_name(engine) << "\n";
    const auto results = characterize_dut(dut, lib, triads, cfg);
    const double baseline = results[0].energy_per_op_fj;
    const TextTable t = fig8_table(sort_for_fig8(results), baseline);
    t.print(std::cout);
    if (args.has("csv"))
      std::cout << "CSV: " << write_csv(t, args.get("csv", "sweep.csv"))
                << "\n";
    if (cfg.provenance)
      print_provenance(sort_for_fig8(results), cfg.top_culprits);
    return 0;
  }

  if (command == "train") {
    // The carry-chain model is an adder model: two equal operands and
    // a (width+1)-bit sum word.
    if (dut.num_operands() != 2 ||
        dut.operand_width(0) != dut.operand_width(1) ||
        dut.output_width() != dut.operand_width(0) + 1)
      throw std::invalid_argument(
          "train fits the carry-chain adder model; circuit '" + spec +
          "' is not an adder");
    const int width = dut.operand_width(0);
    const OperatingTriad triad{
        args.get_double("tclk", rep.critical_path_ns),
        args.get_double("vdd", 0.7), args.get_double("vbb", 0.0)};
    TrainerConfig cfg;
    cfg.num_patterns = args.get_uint("patterns", 20000);
    cfg.metric = parse_metric(args.get("metric", "mse"));
    TimingSimConfig sim_cfg;
    sim_cfg.engine = engine;
    VosDutSim sim(dut, lib, triad, sim_cfg);
    const VosAdderModel model =
        train_vos_model(width, triad, sim_batch_adder_fn(sim), cfg);
    std::cout << "trained model at " << triad_label(triad) << " ("
              << distance_metric_name(cfg.metric) << ", "
              << engine_kind_name(engine) << " engine)\n";
    model.table().to_table(3).print(std::cout);
    // Held-out fidelity check against a fresh simulator.
    VosDutSim eval_sim(dut, lib, triad, sim_cfg);
    FidelityConfig fcfg;
    fcfg.num_patterns = cfg.num_patterns;
    const FidelityResult fr =
        evaluate_fidelity(model, sim_batch_adder_fn(eval_sim), fcfg);
    std::cout << "held-out fidelity: SNR "
              << format_double(std::min(fr.snr_db, snr_display_cap_db), 1)
              << " dB, normalized Hamming "
              << format_double(fr.normalized_hamming, 4) << ", hardware BER "
              << format_double(fr.oracle_ber * 100.0, 2) << "%\n";
    if (args.has("out")) {
      const std::string path = args.get("out", "model.txt");
      std::ofstream f(path);
      if (!f) throw std::runtime_error("cannot open " + path);
      model.save(f);
      std::cout << "saved: " << path << "\n";
    }
    return 0;
  }

  return usage(args.program());
}

/// Telemetry envelope around the dispatch: an optional trace session
/// and a manifest + metrics-snapshot dump. Both files are written even
/// when the command throws, so a failed run still leaves its telemetry
/// behind.
int run(const ArgParser& args) {
  const std::string trace_path = args.get("trace", "");
  const std::string metrics_path = args.get("metrics-json", "");
  if (!trace_path.empty()) obs::start_trace();
  const auto flush_telemetry = [&] {
    if (!trace_path.empty()) {
      if (obs::write_trace_file(trace_path))
        std::cerr << "trace: " << trace_path << "\n";
      else
        std::cerr << "error: cannot write trace " << trace_path << "\n";
    }
    if (metrics_path.empty()) return;
    const std::string command =
        args.positional().empty() ? "vosim" : args.positional()[0];
    // Atomic publish: write a sibling temp file, then rename() over the
    // target — a reader tailing the file (or a crash mid-write) never
    // sees a torn half-snapshot. rename() is atomic within a
    // filesystem, and the temp name keeps it on the target's.
    const std::string tmp_path = metrics_path + ".tmp";
    {
      std::ofstream out(tmp_path);
      if (!out) {
        std::cerr << "error: cannot write metrics " << tmp_path << "\n";
        return;
      }
      out << "{\"manifest\":" << make_manifest(args, command).to_jsonl()
          << ",\"metrics\":" << obs::metrics().snapshot().to_json()
          << "}\n";
      out.flush();
      if (!out) {
        std::cerr << "error: cannot write metrics " << tmp_path << "\n";
        std::remove(tmp_path.c_str());
        return;
      }
    }
    if (std::rename(tmp_path.c_str(), metrics_path.c_str()) != 0) {
      std::cerr << "error: cannot rename " << tmp_path << " to "
                << metrics_path << "\n";
      std::remove(tmp_path.c_str());
      return;
    }
    std::cerr << "metrics: " << metrics_path << "\n";
  };
  try {
    const int rc = run_command(args);
    flush_telemetry();
    return rc;
  } catch (...) {
    flush_telemetry();
    throw;
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(ArgParser(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
