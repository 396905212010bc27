#!/usr/bin/env bash
# Runs the vosim benchmark binaries and emits one machine-readable
# BENCH_<name>.json per bench with wall-clock time, pattern budget and
# exit status — the start of the repo's perf trajectory.
#
# Usage:
#   tools/run_benches.sh [BUILD_DIR] [BENCH_NAME...]
#
#   BUILD_DIR     directory containing the bench_* binaries (default: build)
#   BENCH_NAME    optional subset, e.g. "bench_fig5_ber_bitpos"; default is
#                 every bench_* binary found in BUILD_DIR.
#
# Environment:
#   VOSIM_PATTERNS   patterns per triad (default 200 here; the binaries
#                    themselves default to the paper's 20000).
#   VOSIM_BENCH_OUT  output directory for BENCH_*.json and bench CSVs
#                    (default: BUILD_DIR). When set, the repo root is
#                    left alone.
#   VOSIM_MIN_ENGINE_SPEEDUP
#                    floor for the levelized-vs-event speedup printed by
#                    bench_fig8_ber_energy (adders) and
#                    bench_table3_multiplier (mul8 array/Wallace)
#                    (default 5; the run fails if a measured
#                    LEVELIZED_SPEEDUP drops below it).
#   VOSIM_MAX_BER_DEV_PP
#                    ceiling for the BER deviation between engines
#                    (RCA8 for fig8, mul8 for table3_multiplier), in
#                    percentage points (default 2.0).
#   VOSIM_MAX_MODEL_QUALITY_DEV_PP
#                    ceiling for the model-vs-gate-level application
#                    quality deviation printed by bench_ext_app_pareto
#                    (normalized quality percentage points, default 35).
#   VOSIM_MIN_CLOSED_LOOP_SAVINGS_PCT
#                    floor for the closed-loop-vs-safest-rung energy
#                    saving printed by bench_pipeline (default 10; the
#                    run fails if CLOSED_LOOP_SAVINGS_PCT drops below
#                    it). bench_pipeline's SEQ_BER_DEV_PP (cross-engine
#                    step_cycle BER deviation over the error-onset
#                    band) is gated by VOSIM_MAX_BER_DEV_PP too.
#   VOSIM_MIN_FLEET_TPS
#                    floor for FLEET_THROUGHPUT (chips/sec of the fleet
#                    serving phase) printed by bench_fleet (default 20
#                    at the default 200-pattern budget — a regression
#                    tripwire for the per-chip closed-loop path).
#   VOSIM_MIN_SHARD_EFFICIENCY
#                    floor for the 4-shard parallel efficiency measured
#                    by the fleet_shard pseudo-bench (default 0.7).
#                    Enforced only when nproc >= 4: on fewer cores the
#                    four concurrent shard processes time-share one
#                    machine, so the figure is reported, not gated.
#   VOSIM_MIN_CACHE_HIT_RATE
#                    floor for CACHE_HIT_RATE (resumed/total cells of
#                    the campaign_smoke second pass, default 0 — the
#                    line and the BENCH field are the tripwire; the
#                    resume check above it already demands 1.0).
#   VOSIM_MAX_PROVENANCE_OVERHEAD_PCT
#                    ceiling for PROVENANCE_OVERHEAD_PCT printed by
#                    bench_perf_speedup (event engine) and
#                    bench_pipeline (clocked levelized path): the
#                    relative deviation of two interleaved observers-off
#                    sweep legs (default 2 — the SimObserver dispatch
#                    guard is one branch; anything a real regression
#                    adds to the observers-off path must climb above
#                    this noise floor; DESIGN.md §13).
#   VOSIM_MAX_FIG5_PROV_DEV_PP
#                    ceiling for FIG5_PROV_DEV_PP printed by
#                    bench_fig5_ber_bitpos: max per-bit deviation
#                    between attribution-derived BER (ErrorProvenance)
#                    and the output-diff BER table, in percentage
#                    points (default 0.5; attribution is bit-exact by
#                    construction, so this is effectively an equality
#                    gate with float-print slack).
#
# Every bench binary prints one BENCH_METRICS_JSON line at exit (the
# process-wide telemetry snapshot, src/obs); it is folded into the
# bench's BENCH_*.json as a "metrics" object. The campaign_smoke
# second pass also runs with --trace/--metrics-json and both files are
# validated as JSON (python3, when available) and kept for CI upload.
#
# After the bench set, a tiny smoke campaign (2 workloads x 1 circuit x
# 4 triads on the model backend) runs twice through vosim_cli: the
# second pass must resume every cell from the JSONL store. Emits
# BENCH_campaign_smoke.json; the store is kept as campaign_smoke.jsonl
# for CI artifact upload.
#
# Two more pseudo-benches ride along (DESIGN.md §11):
#   fleet_shard  runs a 1000-chip fleet campaign once single-process
#                and once as 4 concurrent shard processes, merges the
#                shard stores (content-keyed, last-write-wins) and
#                fails unless the merged store is bit-identical to the
#                canonicalized single-process one. The merged store is
#                kept as fleet_shard_merged.jsonl for CI upload.
#   serve_smoke  starts the vosim_cli daemon on a Unix socket, issues
#                two concurrent campaign requests, then a third on the
#                same circuit, triads and budgets with a new seed and
#                the exact and model backends (answered from the
#                daemon's prepared circuits, with one exact run per
#                workload), and fails unless the streamed cells are
#                bit-identical to the same grids run offline.
#
# Each BENCH_*.json the run writes is also copied to the repo root so
# the perf trajectory is tracked in-tree.
set -u

build_dir="${1:-build}"
shift 2>/dev/null || true

if [ ! -d "${build_dir}" ]; then
  echo "error: build dir '${build_dir}' not found (run cmake first)" >&2
  exit 2
fi

build_dir="$(cd "${build_dir}" && pwd)"
export VOSIM_PATTERNS="${VOSIM_PATTERNS:-200}"
out_dir="${VOSIM_BENCH_OUT:-${build_dir}}"
mkdir -p "${out_dir}"
out_dir="$(cd "${out_dir}" && pwd)"

# Track the perf trajectory in-tree: every BENCH_*.json this run writes
# is copied to the repo root (the canonical committed set), unless
# VOSIM_BENCH_OUT sends the run's output elsewhere.
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
publish() {
  if [ -z "${VOSIM_BENCH_OUT:-}" ] && [ "${out_dir}" != "${repo_root}" ]; then
    cp -f "$1" "${repo_root}/"
  fi
}

# "campaign_smoke", "fleet_shard" and "serve_smoke" are pseudo-benches:
# they select the vosim_cli-driven checks below instead of a bench_*
# binary. With no arguments the full bench set and every pseudo-bench
# run.
run_smoke=0
run_fleet_shard=0
run_serve=0
if [ "$#" -gt 0 ]; then
  benches=()
  for name in "$@"; do
    case "${name}" in
      campaign_smoke) run_smoke=1 ;;
      fleet_shard) run_fleet_shard=1 ;;
      serve_smoke) run_serve=1 ;;
      *) benches+=("${name}") ;;
    esac
  done
else
  run_smoke=1
  run_fleet_shard=1
  run_serve=1
  benches=()
  for f in "${build_dir}"/bench_*; do
    [ -x "$f" ] && [ ! -d "$f" ] && benches+=("$(basename "$f")")
  done
fi

if [ "${#benches[@]}" -eq 0 ] && [ "${run_smoke}" -eq 0 ] && \
   [ "${run_fleet_shard}" -eq 0 ] && [ "${run_serve}" -eq 0 ]; then
  echo "error: no bench_* binaries in '${build_dir}'" >&2
  exit 2
fi

echo "running ${#benches[@]} benches with VOSIM_PATTERNS=${VOSIM_PATTERNS}"
failures=0
for name in ${benches[@]+"${benches[@]}"}; do
  bin="${build_dir}/${name}"
  if [ ! -x "${bin}" ]; then
    echo "error: missing bench binary '${bin}'" >&2
    failures=$((failures + 1))
    continue
  fi
  log="${out_dir}/${name}.log"
  start_ns=$(date +%s%N)
  (cd "${out_dir}" && "${build_dir}/${name}" >"${name}.log" 2>&1)
  status=$?
  end_ns=$(date +%s%N)
  wall_s=$(awk -v a="${start_ns}" -v b="${end_ns}" 'BEGIN{printf "%.3f", (b-a)/1e9}')
  json="${out_dir}/BENCH_${name#bench_}.json"
  # bench_fig8_ber_energy (adders) and bench_table3_multiplier (mul8)
  # run their sweeps on both engines and print machine-readable
  # comparison lines; carry them into the JSON and enforce the speedup
  # floor / BER-deviation ceiling.
  engine_fields=""
  if { [ "${name}" = "bench_fig8_ber_energy" ] || \
       [ "${name}" = "bench_table3_multiplier" ]; } && \
     [ "${status}" -eq 0 ]; then
    speedup=$(sed -n 's/^LEVELIZED_SPEEDUP //p' "${log}" | tail -n 1)
    ber_dev=$(sed -n 's/^LEVELIZED_BER_DEV_PP //p' "${log}" | tail -n 1)
    if [ -n "${speedup}" ] && [ -n "${ber_dev}" ]; then
      engine_fields=",
  \"levelized_speedup\": ${speedup},
  \"levelized_ber_dev_pp\": ${ber_dev}"
      min_speedup="${VOSIM_MIN_ENGINE_SPEEDUP:-5}"
      max_dev="${VOSIM_MAX_BER_DEV_PP:-2.0}"
      if ! awk -v s="${speedup}" -v m="${min_speedup}" \
           'BEGIN{exit !(s >= m)}'; then
        echo "FAIL ${name}: levelized speedup ${speedup}x < ${min_speedup}x floor" >&2
        status=1
      fi
      if ! awk -v d="${ber_dev}" -v m="${max_dev}" \
           'BEGIN{exit !(d <= m)}'; then
        echo "FAIL ${name}: BER deviation ${ber_dev}pp > ${max_dev}pp ceiling" >&2
        status=1
      fi
    else
      echo "FAIL ${name}: missing LEVELIZED_SPEEDUP/LEVELIZED_BER_DEV_PP in log" >&2
      status=1
    fi
  fi
  # bench_pipeline sweeps the pipelined circuits on both engines'
  # clocked step_cycle paths and runs the closed-loop controller; gate
  # the cross-engine BER deviation (error-onset band), the closed-loop
  # energy saving vs the safest rung, and the batched levelized
  # clocked sweep's speedup over the event engine.
  if [ "${name}" = "bench_pipeline" ] && [ "${status}" -eq 0 ]; then
    seq_dev=$(sed -n 's/^SEQ_BER_DEV_PP //p' "${log}" | tail -n 1)
    cl_savings=$(sed -n 's/^CLOSED_LOOP_SAVINGS_PCT //p' "${log}" | tail -n 1)
    seq_speedup=$(sed -n 's/^SEQ_LEVELIZED_SPEEDUP //p' "${log}" | tail -n 1)
    if [ -n "${seq_dev}" ] && [ -n "${cl_savings}" ] && \
       [ -n "${seq_speedup}" ]; then
      engine_fields=",
  \"seq_levelized_speedup\": ${seq_speedup},
  \"seq_ber_dev_pp\": ${seq_dev},
  \"closed_loop_savings_pct\": ${cl_savings}"
      max_dev="${VOSIM_MAX_BER_DEV_PP:-2.0}"
      min_savings="${VOSIM_MIN_CLOSED_LOOP_SAVINGS_PCT:-10}"
      min_seq_speedup="${VOSIM_MIN_SEQ_ENGINE_SPEEDUP:-10}"
      if ! awk -v d="${seq_dev}" -v m="${max_dev}" \
           'BEGIN{exit !(d <= m)}'; then
        echo "FAIL ${name}: sequential BER deviation ${seq_dev}pp > ${max_dev}pp ceiling" >&2
        status=1
      fi
      if ! awk -v s="${cl_savings}" -v m="${min_savings}" \
           'BEGIN{exit !(s >= m)}'; then
        echo "FAIL ${name}: closed-loop savings ${cl_savings}% < ${min_savings}% floor" >&2
        status=1
      fi
      if ! awk -v s="${seq_speedup}" -v m="${min_seq_speedup}" \
           'BEGIN{exit !(s >= m)}'; then
        echo "FAIL ${name}: sequential levelized speedup ${seq_speedup}x < ${min_seq_speedup}x floor" >&2
        status=1
      fi
    else
      echo "FAIL ${name}: missing SEQ_BER_DEV_PP/CLOSED_LOOP_SAVINGS_PCT/SEQ_LEVELIZED_SPEEDUP in log" >&2
      status=1
    fi
    # Same observers-off noise-floor gate on the clocked batched path.
    prov_oh=$(sed -n 's/^PROVENANCE_OVERHEAD_PCT //p' "${log}" | tail -n 1)
    if [ -n "${prov_oh}" ]; then
      engine_fields="${engine_fields},
  \"provenance_overhead_pct\": ${prov_oh}"
      max_oh="${VOSIM_MAX_PROVENANCE_OVERHEAD_PCT:-2}"
      if ! awk -v o="${prov_oh}" -v m="${max_oh}" \
           'BEGIN{exit !(o <= m)}'; then
        echo "FAIL ${name}: observers-off overhead ${prov_oh}% > ${max_oh}% ceiling" >&2
        status=1
      fi
    else
      echo "FAIL ${name}: missing PROVENANCE_OVERHEAD_PCT in log" >&2
      status=1
    fi
  fi
  # bench_fig5_ber_bitpos reruns its VOS sweep with ErrorProvenance
  # observers attached and derives the per-bit BER from culprit
  # attribution; the attributed table must reproduce the output-diff
  # table (the PO net is in its own fan-in cone, so attribution is
  # exact by construction — DESIGN.md §13).
  if [ "${name}" = "bench_fig5_ber_bitpos" ] && [ "${status}" -eq 0 ]; then
    prov_dev=$(sed -n 's/^FIG5_PROV_DEV_PP //p' "${log}" | tail -n 1)
    if [ -n "${prov_dev}" ]; then
      engine_fields=",
  \"fig5_prov_dev_pp\": ${prov_dev}"
      max_prov_dev="${VOSIM_MAX_FIG5_PROV_DEV_PP:-0.5}"
      if ! awk -v d="${prov_dev}" -v m="${max_prov_dev}" \
           'BEGIN{exit !(d <= m)}'; then
        echo "FAIL ${name}: provenance per-bit BER deviation ${prov_dev}pp > ${max_prov_dev}pp ceiling" >&2
        status=1
      fi
    else
      echo "FAIL ${name}: missing FIG5_PROV_DEV_PP in log" >&2
      status=1
    fi
  fi
  # bench_ext_app_pareto replays workloads through the statistical
  # model and the gate-level simulator; gate the application-level
  # quality deviation between the two.
  if [ "${name}" = "bench_ext_app_pareto" ] && [ "${status}" -eq 0 ]; then
    q_dev=$(sed -n 's/^MODEL_QUALITY_DEV //p' "${log}" | tail -n 1)
    q_dev_mean=$(sed -n 's/^MODEL_QUALITY_DEV_MEAN //p' "${log}" | tail -n 1)
    if [ -n "${q_dev}" ] && [ -n "${q_dev_mean}" ]; then
      engine_fields=",
  \"model_quality_dev_pp\": ${q_dev},
  \"model_quality_dev_mean_pp\": ${q_dev_mean}"
      max_q_dev="${VOSIM_MAX_MODEL_QUALITY_DEV_PP:-35}"
      if ! awk -v d="${q_dev}" -v m="${max_q_dev}" \
           'BEGIN{exit !(d <= m)}'; then
        echo "FAIL ${name}: model quality deviation ${q_dev}pp > ${max_q_dev}pp ceiling" >&2
        status=1
      fi
    else
      echo "FAIL ${name}: missing MODEL_QUALITY_DEV in log" >&2
      status=1
    fi
  fi
  # bench_perf_speedup ends with the observers-off noise-floor probe:
  # the SimObserver dispatch guard must stay a single branch (DESIGN.md
  # §13).
  if [ "${name}" = "bench_perf_speedup" ] && [ "${status}" -eq 0 ]; then
    prov_oh=$(sed -n 's/^PROVENANCE_OVERHEAD_PCT //p' "${log}" | tail -n 1)
    if [ -n "${prov_oh}" ]; then
      engine_fields=",
  \"provenance_overhead_pct\": ${prov_oh}"
      max_oh="${VOSIM_MAX_PROVENANCE_OVERHEAD_PCT:-2}"
      if ! awk -v o="${prov_oh}" -v m="${max_oh}" \
           'BEGIN{exit !(o <= m)}'; then
        echo "FAIL ${name}: observers-off overhead ${prov_oh}% > ${max_oh}% ceiling" >&2
        status=1
      fi
    else
      echo "FAIL ${name}: missing PROVENANCE_OVERHEAD_PCT in log" >&2
      status=1
    fi
  fi
  # bench_fleet characterizes the pipe2-mul8 ladder once and serves it
  # to a chip-instance Monte-Carlo population; gate the serving-phase
  # throughput (chips/sec — a regression tripwire for the per-chip
  # closed-loop path) and carry the in-process parallel efficiency and
  # fleet-wide energy spread into the JSON.
  if [ "${name}" = "bench_fleet" ] && [ "${status}" -eq 0 ]; then
    fleet_tps=$(sed -n 's/^FLEET_THROUGHPUT //p' "${log}" | tail -n 1)
    fleet_eff=$(sed -n 's/^FLEET_PARALLEL_EFFICIENCY //p' "${log}" | tail -n 1)
    fleet_spread=$(sed -n 's/^FLEET_ENERGY_SPREAD_PCT //p' "${log}" | tail -n 1)
    if [ -n "${fleet_tps}" ]; then
      engine_fields=",
  \"fleet_throughput_cps\": ${fleet_tps},
  \"fleet_parallel_efficiency\": ${fleet_eff:-0},
  \"fleet_energy_spread_pct\": ${fleet_spread:-0}"
      min_tps="${VOSIM_MIN_FLEET_TPS:-20}"
      if ! awk -v s="${fleet_tps}" -v m="${min_tps}" \
           'BEGIN{exit !(s >= m)}'; then
        echo "FAIL ${name}: fleet throughput ${fleet_tps} chips/s < ${min_tps} floor" >&2
        status=1
      fi
    else
      echo "FAIL ${name}: missing FLEET_THROUGHPUT in log" >&2
      status=1
    fi
  fi
  # The exit-time telemetry snapshot every bench prints (src/obs):
  # carried into the JSON so a perf regression comes with its own
  # counters (patterns simulated, lane words, cache traffic).
  metrics_field=""
  metrics_json=$(sed -n 's/^BENCH_METRICS_JSON //p' "${log}" | tail -n 1)
  if [ -n "${metrics_json}" ]; then
    metrics_field=",
  \"metrics\": ${metrics_json}"
  fi
  cat >"${json}" <<EOF
{
  "bench": "${name}",
  "patterns_per_triad": ${VOSIM_PATTERNS},
  "wall_seconds": ${wall_s},
  "exit_code": ${status},
  "timestamp_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "log": "$(basename "${log}")"${engine_fields}${metrics_field}
}
EOF
  publish "${json}"
  if [ "${status}" -ne 0 ]; then
    echo "FAIL ${name} (exit ${status}, ${wall_s}s) -> ${json}"
    failures=$((failures + 1))
  else
    echo "ok   ${name} (${wall_s}s) -> ${json}"
  fi
done

# ---- smoke campaign: tiny grid + resume check through vosim_cli ----
total="${#benches[@]}"
if [ "${run_smoke}" -eq 1 ]; then
  total=$((total + 1))
  cli="${build_dir}/vosim_cli"
  smoke_status=0
  store="${out_dir}/campaign_smoke.jsonl"
  log="${out_dir}/campaign_smoke.log"
  smoke_patterns=300
  smoke_args=(campaign --workloads fir,kmeans --circuits rca16
              --backends model --max-triads 4 --patterns "${smoke_patterns}"
              --train-patterns 1000 --store "${store}")
  trace_file="${out_dir}/campaign_smoke_trace.json"
  metrics_file="${out_dir}/campaign_smoke_metrics.json"
  rm -f "${store}" "${trace_file}" "${metrics_file}"
  hit_rate=0
  start_ns=$(date +%s%N)
  if [ -x "${cli}" ]; then
    # Pass 1 computes the 2x1x4 grid; pass 2 must answer every cell
    # from the JSONL store (resume semantics, DESIGN.md §9). The
    # second pass doubles as the telemetry smoke: --trace must produce
    # a Perfetto-loadable trace and --metrics-json a parseable
    # snapshot (DESIGN.md §12).
    (cd "${out_dir}" && "${cli}" "${smoke_args[@]}" >"${log}" 2>&1) || smoke_status=1
    cells=$(sed -n 's/^campaign: \([0-9]*\) cells.*/\1/p' "${log}" | tail -n 1)
    (cd "${out_dir}" && "${cli}" "${smoke_args[@]}" \
       --trace "${trace_file}" --metrics-json "${metrics_file}" \
       >>"${log}" 2>&1) || smoke_status=1
    reused=$(sed -n 's/^campaign: [0-9]* cells (\([0-9]*\) reused.*/\1/p' "${log}" | tail -n 1)
    if [ "${smoke_status}" -eq 0 ] && { [ -z "${cells}" ] || \
         [ "${cells}" -eq 0 ] || [ "${reused:-0}" != "${cells}" ]; }; then
      echo "FAIL campaign_smoke: resume reused ${reused:-?} of ${cells:-?} cells" >&2
      smoke_status=1
    fi
    # Provenance artifact (DESIGN.md §13): a tiny gate-level campaign
    # with ErrorProvenance on. The metrics snapshot must carry the
    # provenance.campaign counters — proof the observers attached and
    # published — and both files ride the CI artifact upload.
    prov_store="${out_dir}/campaign_smoke_prov.jsonl"
    prov_metrics="${out_dir}/campaign_smoke_prov_metrics.json"
    rm -f "${prov_store}" "${prov_metrics}"
    (cd "${out_dir}" && "${cli}" campaign --workloads fir --circuits rca16 \
       --backends sim-levelized --max-triads 3 --patterns 200 \
       --provenance --top-culprits 3 --store "${prov_store}" \
       --metrics-json "${prov_metrics}" >>"${log}" 2>&1) || smoke_status=1
    if ! grep -q '"provenance.campaign' "${prov_metrics}" 2>/dev/null; then
      echo "FAIL campaign_smoke: provenance counters missing from $(basename "${prov_metrics}")" >&2
      smoke_status=1
    fi
    for f in "${trace_file}" "${metrics_file}" "${prov_metrics}"; do
      if [ ! -s "${f}" ]; then
        echo "FAIL campaign_smoke: telemetry file $(basename "${f}") missing or empty" >&2
        smoke_status=1
      elif command -v python3 >/dev/null 2>&1; then
        if ! python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
             "${f}" 2>>"${log}"; then
          echo "FAIL campaign_smoke: $(basename "${f}") is not valid JSON" >&2
          smoke_status=1
        fi
      fi
    done
    hit_rate=$(awk -v r="${reused:-0}" -v c="${cells:-0}" \
               'BEGIN{printf "%.3f", (c > 0) ? r / c : 0}')
    echo "CACHE_HIT_RATE ${hit_rate}"
    min_hit="${VOSIM_MIN_CACHE_HIT_RATE:-0}"
    if ! awk -v h="${hit_rate}" -v m="${min_hit}" 'BEGIN{exit !(h >= m)}'; then
      echo "FAIL campaign_smoke: cache hit rate ${hit_rate} < ${min_hit} floor" >&2
      smoke_status=1
    fi
  else
    echo "FAIL campaign_smoke: missing ${cli}" >&2
    smoke_status=1
    cells=0
    reused=0
  fi
  end_ns=$(date +%s%N)
  wall_s=$(awk -v a="${start_ns}" -v b="${end_ns}" 'BEGIN{printf "%.3f", (b-a)/1e9}')
  # The pass-2 snapshot file is one JSON object per line; embed it so
  # the committed BENCH json carries the campaign's own counters.
  telemetry_field=""
  if [ -s "${metrics_file}" ]; then
    telemetry_field=",
  \"telemetry\": $(tail -n 1 "${metrics_file}")"
  fi
  cat >"${out_dir}/BENCH_campaign_smoke.json" <<EOF
{
  "bench": "campaign_smoke",
  "patterns_per_triad": ${smoke_patterns},
  "wall_seconds": ${wall_s},
  "exit_code": ${smoke_status},
  "timestamp_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "log": "campaign_smoke.log",
  "grid_cells": ${cells:-0},
  "resumed_cells": ${reused:-0},
  "cache_hit_rate": ${hit_rate},
  "trace": "campaign_smoke_trace.json",
  "store": "campaign_smoke.jsonl",
  "provenance_store": "campaign_smoke_prov.jsonl",
  "provenance_metrics": "campaign_smoke_prov_metrics.json"${telemetry_field}
}
EOF
  publish "${out_dir}/BENCH_campaign_smoke.json"
  if [ "${smoke_status}" -ne 0 ]; then
    echo "FAIL campaign_smoke (${wall_s}s) -> BENCH_campaign_smoke.json"
    failures=$((failures + 1))
  else
    echo "ok   campaign_smoke (${wall_s}s, ${reused}/${cells} cells resumed, hit rate ${hit_rate}) -> BENCH_campaign_smoke.json"
  fi
fi

# ---- fleet_shard: sharded fleet campaign, merge bit-identity ----
# A 1000-chip Monte-Carlo grid (fir on rca16, per-chip gate-level
# levelized sim) runs once in a single process and once as 4 shard
# processes. Chip corners and the shard partition are content-hashed
# (DESIGN.md §11), so the merged shard stores must be bit-identical to
# the canonicalized single-process store; elapsed_s is the only
# legitimately differing field and --strip-timing zeroes it.
if [ "${run_fleet_shard}" -eq 1 ]; then
  total=$((total + 1))
  cli="${build_dir}/vosim_cli"
  fs_status=0
  fs_dir="${out_dir}/fleet_shard"
  log="${out_dir}/fleet_shard.log"
  fs_chips=1000
  fs_shards=4
  fs_args=(campaign --workloads fir --circuits rca16
           --backends sim-levelized --max-triads 1
           --chips "${fs_chips}" --patterns 300 --jobs 1)
  rm -rf "${fs_dir}"
  mkdir -p "${fs_dir}"
  : >"${log}"
  cells=0
  single_s=0
  shard_s=0
  eff=0
  start_ns=$(date +%s%N)
  if [ -x "${cli}" ]; then
    t0=$(date +%s%N)
    (cd "${fs_dir}" && "${cli}" "${fs_args[@]}" --store single.jsonl \
       >>"${log}" 2>&1) || fs_status=1
    t1=$(date +%s%N)
    # The shard processes run concurrently: shard wall time vs the
    # single-process time is the parallel-efficiency measurement.
    pids=()
    for i in $(seq 0 $((fs_shards - 1))); do
      (cd "${fs_dir}" && "${cli}" "${fs_args[@]}" \
         --shard "${i}/${fs_shards}" --store "shard${i}.jsonl" \
         >>"${log}" 2>&1) &
      pids+=($!)
    done
    for pid in "${pids[@]}"; do
      wait "${pid}" || fs_status=1
    done
    t2=$(date +%s%N)
    single_s=$(awk -v a="${t0}" -v b="${t1}" 'BEGIN{printf "%.3f", (b-a)/1e9}')
    shard_s=$(awk -v a="${t1}" -v b="${t2}" 'BEGIN{printf "%.3f", (b-a)/1e9}')
    shard_files=()
    for i in $(seq 0 $((fs_shards - 1))); do
      shard_files+=("shard${i}.jsonl")
    done
    (cd "${fs_dir}" && "${cli}" merge-store merged.jsonl \
       "${shard_files[@]}" --strip-timing >>"${log}" 2>&1) || fs_status=1
    (cd "${fs_dir}" && "${cli}" merge-store canonical.jsonl single.jsonl \
       --strip-timing >>"${log}" 2>&1) || fs_status=1
    if ! cmp -s "${fs_dir}/merged.jsonl" "${fs_dir}/canonical.jsonl"; then
      echo "FAIL fleet_shard: ${fs_shards}-shard merge differs from the single-process store" >&2
      fs_status=1
    fi
    cells=$(wc -l <"${fs_dir}/canonical.jsonl" 2>/dev/null || echo 0)
    if [ "${cells:-0}" -lt "${fs_chips}" ]; then
      echo "FAIL fleet_shard: ${cells} cells < ${fs_chips} chip instances" >&2
      fs_status=1
    fi
    eff=$(awk -v s="${single_s}" -v p="${shard_s}" -v n="${fs_shards}" \
          'BEGIN{printf "%.3f", (p > 0) ? s / (n * p) : 0}')
    min_eff="${VOSIM_MIN_SHARD_EFFICIENCY:-0.7}"
    cores=$(nproc 2>/dev/null || echo 1)
    if [ "${cores}" -ge "${fs_shards}" ]; then
      if ! awk -v e="${eff}" -v m="${min_eff}" 'BEGIN{exit !(e >= m)}'; then
        echo "FAIL fleet_shard: shard efficiency ${eff} < ${min_eff} floor on ${cores} cores" >&2
        fs_status=1
      fi
    else
      echo "note fleet_shard: efficiency ${eff} reported, gate skipped (${cores} < ${fs_shards} cores)"
    fi
    cp -f "${fs_dir}/merged.jsonl" "${out_dir}/fleet_shard_merged.jsonl"
  else
    echo "FAIL fleet_shard: missing ${cli}" >&2
    fs_status=1
  fi
  end_ns=$(date +%s%N)
  wall_s=$(awk -v a="${start_ns}" -v b="${end_ns}" 'BEGIN{printf "%.3f", (b-a)/1e9}')
  cat >"${out_dir}/BENCH_fleet_shard.json" <<EOF
{
  "bench": "fleet_shard",
  "chips": ${fs_chips},
  "shards": ${fs_shards},
  "grid_cells": ${cells:-0},
  "single_process_seconds": ${single_s},
  "sharded_wall_seconds": ${shard_s},
  "shard_efficiency": ${eff},
  "wall_seconds": ${wall_s},
  "exit_code": ${fs_status},
  "timestamp_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "log": "fleet_shard.log",
  "store": "fleet_shard_merged.jsonl"
}
EOF
  publish "${out_dir}/BENCH_fleet_shard.json"
  if [ "${fs_status}" -ne 0 ]; then
    echo "FAIL fleet_shard (${wall_s}s) -> BENCH_fleet_shard.json"
    failures=$((failures + 1))
  else
    echo "ok   fleet_shard (${wall_s}s, ${cells} cells, efficiency ${eff}) -> BENCH_fleet_shard.json"
  fi
fi

# ---- serve_smoke: the daemon answers concurrent requests exactly ----
# Starts vosim_cli serve on a Unix socket, issues two campaign
# requests concurrently, then a third that reuses their prepared
# circuit (same circuit, triads and budgets; new seed, exact and model
# backends), and proves the streamed cells are bit-identical to the
# same grids run offline (after canonicalization; elapsed_s is wall
# clock and gets stripped on both sides).
if [ "${run_serve}" -eq 1 ]; then
  total=$((total + 1))
  cli="${build_dir}/vosim_cli"
  sv_status=0
  sv_dir="${out_dir}/serve_smoke"
  log="${out_dir}/serve_smoke.log"
  rm -rf "${sv_dir}"
  mkdir -p "${sv_dir}"
  : >"${log}"
  sock="${sv_dir}/vosim.sock"
  req1='{"cmd":"campaign","workloads":"fir","circuits":"rca16","backends":"model","max_triads":2,"patterns":300,"train_patterns":800,"chips":3}'
  req2='{"cmd":"campaign","workloads":"dot","circuits":"rca16","backends":"model","max_triads":2,"patterns":300,"train_patterns":800,"chips":3}'
  req3='{"cmd":"campaign","workloads":"fir,dot","circuits":"rca16","backends":"exact,model","seed":2,"max_triads":2,"patterns":300,"train_patterns":800,"chips":3}'
  start_ns=$(date +%s%N)
  if [ -x "${cli}" ]; then
    (cd "${sv_dir}" && "${cli}" serve --socket "${sock}" \
       --store serve_store.jsonl >>"${log}" 2>&1) &
    serve_pid=$!
    for _ in $(seq 1 100); do
      [ -S "${sock}" ] && break
      sleep 0.1
    done
    if [ ! -S "${sock}" ]; then
      echo "FAIL serve_smoke: daemon socket never appeared" >&2
      sv_status=1
      kill "${serve_pid}" 2>/dev/null
    else
      "${cli}" request --socket "${sock}" --json "${req1}" \
        >"${sv_dir}/r1.txt" 2>>"${log}" &
      p1=$!
      "${cli}" request --socket "${sock}" --json "${req2}" \
        >"${sv_dir}/r2.txt" 2>>"${log}" &
      p2=$!
      wait "${p1}" || sv_status=1
      wait "${p2}" || sv_status=1
      "${cli}" request --socket "${sock}" --json "${req3}" \
        >"${sv_dir}/r3.txt" 2>>"${log}" || sv_status=1
      "${cli}" request --socket "${sock}" --json '{"cmd":"shutdown"}' \
        >>"${log}" 2>&1 || sv_status=1
    fi
    wait "${serve_pid}" || sv_status=1
    for r in r1 r2 r3; do
      if ! grep -q '"done":true' "${sv_dir}/${r}.txt" 2>/dev/null; then
        echo "FAIL serve_smoke: request ${r} missing the done footer" >&2
        sv_status=1
      fi
    done
    grep -hv '"done":true' "${sv_dir}/r1.txt" "${sv_dir}/r2.txt" \
      "${sv_dir}/r3.txt" 2>/dev/null >"${sv_dir}/served_cells.jsonl"
    (cd "${sv_dir}" && "${cli}" campaign --workloads fir,dot \
       --circuits rca16 --backends model --max-triads 2 --patterns 300 \
       --train-patterns 800 --chips 3 --store offline.jsonl \
       >>"${log}" 2>&1) || sv_status=1
    (cd "${sv_dir}" && "${cli}" campaign --workloads fir,dot \
       --circuits rca16 --backends exact,model --seed 2 --max-triads 2 \
       --patterns 300 --train-patterns 800 --chips 3 \
       --store offline.jsonl >>"${log}" 2>&1) || sv_status=1
    (cd "${sv_dir}" && "${cli}" merge-store served_canon.jsonl \
       served_cells.jsonl --strip-timing >>"${log}" 2>&1) || sv_status=1
    (cd "${sv_dir}" && "${cli}" merge-store offline_canon.jsonl \
       offline.jsonl --strip-timing >>"${log}" 2>&1) || sv_status=1
    if ! cmp -s "${sv_dir}/served_canon.jsonl" \
         "${sv_dir}/offline_canon.jsonl"; then
      echo "FAIL serve_smoke: served cells differ from the offline campaign" >&2
      sv_status=1
    fi
  else
    echo "FAIL serve_smoke: missing ${cli}" >&2
    sv_status=1
  fi
  end_ns=$(date +%s%N)
  wall_s=$(awk -v a="${start_ns}" -v b="${end_ns}" 'BEGIN{printf "%.3f", (b-a)/1e9}')
  served=$(wc -l <"${sv_dir}/served_cells.jsonl" 2>/dev/null || echo 0)
  cat >"${out_dir}/BENCH_serve_smoke.json" <<EOF
{
  "bench": "serve_smoke",
  "served_cells": ${served:-0},
  "wall_seconds": ${wall_s},
  "exit_code": ${sv_status},
  "timestamp_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "log": "serve_smoke.log"
}
EOF
  publish "${out_dir}/BENCH_serve_smoke.json"
  if [ "${sv_status}" -ne 0 ]; then
    echo "FAIL serve_smoke (${wall_s}s) -> BENCH_serve_smoke.json"
    failures=$((failures + 1))
  else
    echo "ok   serve_smoke (${wall_s}s, ${served} cells served) -> BENCH_serve_smoke.json"
  fi
fi

echo "bench results: $((total - failures))/${total} ok, JSON in ${out_dir}"
[ "${failures}" -eq 0 ]
