#!/usr/bin/env bash
# Runs the vosim bench binaries and the vosim_cli pseudo-benches, checks
# the gate table below, and writes one machine-readable BENCH_<name>.json
# per bench.
#
# Usage:
#   tools/run_benches.sh [BUILD_DIR] [BENCH_NAME...]
#
#   BUILD_DIR     directory containing the bench_* binaries (default: build)
#   BENCH_NAME    optional subset, e.g. "bench_fig5_ber_bitpos" or a
#                 pseudo-bench ("campaign_smoke", "fleet_shard",
#                 "serve_smoke"); default is every bench_* binary in
#                 BUILD_DIR, every bench the gate table names, and every
#                 pseudo-bench.
#
# Environment:
#   VOSIM_PATTERNS   patterns per triad (default 200 here; the binaries
#                    themselves default to the paper's 20000).
#   VOSIM_BENCH_OUT  output directory for BENCH_*.json, bench logs and
#                    CSVs (default: BUILD_DIR). When set, the repo root
#                    is left alone.
#
# A bench reports its figures as "NAME value" lines in its log, the value
# a JSON number. Its BENCH_<name>.json carries:
#   figures  every such line (the last one of a name wins);
#   gates    the bench's rows of the gate table, each {name, value, op,
#            bound, status: pass | fail | skipped, spread}, where spread
#            is the NAME_SPREAD figure when the bench prints one;
#   host     cores, CPU model and the build type;
#   metrics  the exit-time telemetry snapshot (the BENCH_METRICS_JSON
#            line every bench binary prints, src/obs).
# A failed gate, or a gated figure missing from the log, fails the run.
#
# The pseudo-benches drive vosim_cli:
#   campaign_smoke  a 2-workload x rca16 x 4-triad model campaign runs
#                   twice; the second pass must resume every cell from
#                   the JSONL store (CACHE_HIT_RATE) and also writes
#                   --trace/--metrics-json files, validated as JSON with
#                   python3 when available (DESIGN.md §9, §12). A tiny
#                   gate-level --provenance campaign must publish
#                   provenance.campaign counters and store a sim-seq
#                   cell whose culprits start with "s0:" (DESIGN.md §13).
#   fleet_shard     a 1000-chip, six-triad fleet campaign runs
#                   single-process and as 4 concurrent shard processes,
#                   in 5 interleaved pairs; the merged shard stores must
#                   be bit-identical to the canonicalized single-process
#                   store (DESIGN.md §11), and SHARD_EFFICIENCY is the
#                   4-shard parallel efficiency of the legs' median wall
#                   times.
#   serve_smoke     the vosim_cli daemon answers two concurrent campaign
#                   requests and a third on their prepared circuit (new
#                   seed, exact and model backends); the streamed cells
#                   must be bit-identical to the same grids run offline.
# Their stores, telemetry files and logs are kept in the output
# directory for CI upload.
#
# Each BENCH_*.json the run writes is also copied to the repo root so
# the perf trajectory is tracked in-tree.
set -u

# The gate table: a row passes when the bench's figure satisfies
# "figure op bound". A row is skipped on a host with fewer cores than
# its last column: the fleet_shard efficiency needs its 4 shard
# processes to run side by side. The bounds are fixed values.
#  bench                    figure                   op  bound  cores
gate_table='
bench_fig8_ber_energy      LEVELIZED_SPEEDUP        >=  5      1
bench_fig8_ber_energy      LEVELIZED_BER_DEV_PP     <=  2.0    1
bench_table3_multiplier    LEVELIZED_SPEEDUP        >=  5      1
bench_table3_multiplier    LEVELIZED_BER_DEV_PP     <=  2.0    1
bench_pipeline             SEQ_LEVELIZED_SPEEDUP    >=  10     1
bench_pipeline             SEQ_BER_DEV_PP           <=  2.0    1
bench_pipeline             CLOSED_LOOP_SAVINGS_PCT  >=  10     1
bench_pipeline             PROVENANCE_OVERHEAD_PCT  <=  2      1
bench_fig5_ber_bitpos      FIG5_PROV_DEV_PP         <=  0.5    1
bench_fig5_ber_bitpos      PROVENANCE_OVERHEAD_PCT  <=  2      1
bench_ext_app_pareto       MODEL_QUALITY_DEV        <=  35     1
bench_fleet                FLEET_THROUGHPUT         >=  20     1
campaign_smoke             CACHE_HIT_RATE           >=  1.0    1
fleet_shard                SHARD_EFFICIENCY         >=  0.7    4
'

# Reads a bench log and prints the "figures" and "gates" members of its
# BENCH json; each failed gate is reported on stderr and makes the exit
# status 1.
evaluate_gates='
BEGIN {
  rows = split(table, line, "\n")
  for (i = 1; i <= rows; i++)
    if (split(line[i], f) == 5 && f[1] == bench) {
      ++gates
      fig[gates] = f[2]; op[gates] = f[3]; bound[gates] = f[4]
      need[gates] = f[5]
    }
}
/^[A-Z][A-Z0-9_]* -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$/ {
  if (!($1 in value)) order[++figures] = $1
  value[$1] = $2
}
END {
  printf "  \"figures\": {"
  for (i = 1; i <= figures; i++)
    printf "%s\"%s\": %s", (i > 1 ? ", " : ""), order[i], value[order[i]]
  printf "},\n  \"gates\": ["
  failed = 0
  for (i = 1; i <= gates; i++) {
    name = fig[i]
    spread = name "_SPREAD"
    seen = (name in value)
    if (cores + 0 < need[i] + 0) status = "skipped"
    else if (!seen) status = "fail"
    else if (op[i] == ">=") status = (value[name] + 0 >= bound[i] + 0) ? "pass" : "fail"
    else if (op[i] == "<=") status = (value[name] + 0 <= bound[i] + 0) ? "pass" : "fail"
    else status = "fail"
    if (status == "fail") {
      failed = 1
      printf "FAIL %s: %s %s, gate %s %s\n", bench, name,
             (seen ? value[name] : "missing"), op[i], bound[i] > "/dev/stderr"
    } else if (status == "skipped") {
      printf "note %s: %s gate skipped (%d < %d cores)\n", bench, name,
             cores, need[i] > "/dev/stderr"
    }
    printf "%s\n    {\"name\": \"%s\", \"value\": %s, \"op\": \"%s\", \"bound\": %s, \"status\": \"%s\", \"spread\": %s}",
           (i > 1 ? "," : ""), name, (seen ? value[name] : "null"), op[i],
           bound[i], status, ((spread in value) ? value[spread] : "null")
  }
  printf "%s]\n", (gates > 0 ? "\n  " : "")
  exit failed
}'

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
cli="${build_dir}/vosim_cli"

# Track the perf trajectory in-tree: every BENCH_*.json this run writes
# is copied to the repo root (the canonical committed set), unless
# VOSIM_BENCH_OUT sends the run's output elsewhere.
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
publish() {
  if [ -z "${VOSIM_BENCH_OUT:-}" ] && [ "${out_dir}" != "${repo_root}" ]; then
    cp -f "$1" "${repo_root}/"
  fi
}

json_escape() { sed 's/[\\"]/\\&/g' <<<"$1"; }

cores=$(nproc 2>/dev/null || echo 1)
cpu_model=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
             "${build_dir}/CMakeCache.txt" 2>/dev/null)
host_json="{\"cores\": ${cores}, \"cpu_model\": \"$(json_escape "${cpu_model:-$(uname -m)}")\", \"build_type\": \"$(json_escape "${build_type:-unknown}")\"}"

total=0
failures=0

# finish_bench NAME PATTERNS STATUS START_NS [EXTRA_MEMBERS]
# Folds NAME.log's figures into BENCH_<name>.json with NAME's gate rows,
# the host and the bench's telemetry, publishes it and reports the
# verdict. EXTRA_MEMBERS is appended to the JSON object as given.
finish_bench() {
  local name="$1" patterns="$2" status="$3" start_ns="$4" extra="${5:-}"
  local log="${out_dir}/${name}.log"
  local json="${out_dir}/BENCH_${name#bench_}.json"
  local wall_s body metrics
  wall_s=$(awk -v a="${start_ns}" -v b="$(date +%s%N)" \
           'BEGIN{printf "%.3f", (b-a)/1e9}')
  if ! body=$(awk -v bench="${name}" -v cores="${cores}" \
                  -v table="${gate_table}" "${evaluate_gates}" "${log}"); then
    [ "${status}" -ne 0 ] || status=1
  fi
  metrics=$(sed -n 's/^BENCH_METRICS_JSON //p' "${log}" | tail -n 1)
  {
    printf '{\n  "bench": "%s",\n  "patterns_per_triad": %s,\n' \
           "${name}" "${patterns}"
    printf '  "wall_seconds": %s,\n  "exit_code": %s,\n' \
           "${wall_s}" "${status}"
    printf '  "timestamp_utc": "%s",\n  "log": "%s",\n' \
           "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$(basename "${log}")"
    printf '  "host": %s,\n%s' "${host_json}" "${body}"
    [ -z "${metrics}" ] || printf ',\n  "metrics": %s' "${metrics}"
    printf '%s\n}\n' "${extra}"
  } >"${json}"
  publish "${json}"
  total=$((total + 1))
  if [ "${status}" -ne 0 ]; then
    echo "FAIL ${name} (exit ${status}, ${wall_s}s) -> ${json}"
    failures=$((failures + 1))
  else
    echo "ok   ${name} (${wall_s}s) -> ${json}"
  fi
}

# "campaign_smoke", "fleet_shard" and "serve_smoke" select the
# pseudo-benches below instead of a bench_* binary.
run_smoke=0
run_fleet_shard=0
run_serve=0
benches=()
if [ "$#" -gt 0 ]; then
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
  for f in "${build_dir}"/bench_*; do
    [ -x "$f" ] && [ ! -d "$f" ] && benches+=("$(basename "$f")")
  done
  # A gated bench the build no longer produces fails as missing instead
  # of dropping out of the run.
  for name in $(awk '$1 ~ /^bench_/ {print $1}' <<<"${gate_table}" | sort -u); do
    case " ${benches[*]-} " in
      *" ${name} "*) ;;
      *) benches+=("${name}") ;;
    esac
  done
fi

echo "running ${#benches[@]} benches with VOSIM_PATTERNS=${VOSIM_PATTERNS}"
for name in ${benches[@]+"${benches[@]}"}; do
  if [ ! -x "${build_dir}/${name}" ]; then
    echo "FAIL ${name}: missing bench binary ${build_dir}/${name}" >&2
    total=$((total + 1))
    failures=$((failures + 1))
    continue
  fi
  start_ns=$(date +%s%N)
  (cd "${out_dir}" && "${build_dir}/${name}" >"${name}.log" 2>&1)
  finish_bench "${name}" "${VOSIM_PATTERNS}" "$?" "${start_ns}"
done

# ---- campaign_smoke: tiny grid + resume check through vosim_cli ----
if [ "${run_smoke}" -eq 1 ]; then
  smoke_status=0
  store="${out_dir}/campaign_smoke.jsonl"
  log="${out_dir}/campaign_smoke.log"
  smoke_patterns=300
  smoke_args=(campaign --workloads fir,kmeans --circuits rca16
              --backends model --max-triads 4 --patterns "${smoke_patterns}"
              --train-patterns 1000 --store "${store}")
  trace_file="${out_dir}/campaign_smoke_trace.json"
  metrics_file="${out_dir}/campaign_smoke_metrics.json"
  prov_store="${out_dir}/campaign_smoke_prov.jsonl"
  prov_metrics="${out_dir}/campaign_smoke_prov_metrics.json"
  rm -f "${store}" "${trace_file}" "${metrics_file}" "${prov_store}" \
        "${prov_metrics}"
  : >"${log}"
  start_ns=$(date +%s%N)
  if [ -x "${cli}" ]; then
    # Pass 1 computes the 2x1x4 grid; pass 2 must answer every cell
    # from the JSONL store (resume semantics, DESIGN.md §9) and doubles
    # as the telemetry smoke: --trace must produce a Perfetto-loadable
    # trace and --metrics-json a parseable snapshot (DESIGN.md §12).
    (cd "${out_dir}" && "${cli}" "${smoke_args[@]}" >>"${log}" 2>&1) || smoke_status=1
    (cd "${out_dir}" && "${cli}" "${smoke_args[@]}" \
       --trace "${trace_file}" --metrics-json "${metrics_file}" \
       >>"${log}" 2>&1) || smoke_status=1
    summary=$(grep '^campaign: [0-9]* cells (' "${log}" | tail -n 1)
    cells=$(sed -n 's/^campaign: \([0-9]*\) cells.*/\1/p' <<<"${summary}")
    reused=$(sed -n 's/^campaign: [0-9]* cells (\([0-9]*\) reused.*/\1/p' <<<"${summary}")
    # Provenance artifact (DESIGN.md §13): a tiny gate-level campaign
    # with ErrorProvenance on, over rca16's first 12 triads, 3 of which
    # err on fir. The metrics snapshot must carry the provenance.campaign
    # counters — proof the observers attached and published — and the
    # store a sim-seq cell's stage-prefixed culprit string.
    (cd "${out_dir}" && "${cli}" campaign --workloads fir --circuits rca16 \
       --backends sim-levelized,sim-seq --max-triads 12 --patterns 200 \
       --provenance --top-culprits 3 --store "${prov_store}" \
       --metrics-json "${prov_metrics}" >>"${log}" 2>&1) || smoke_status=1
    if ! grep -q '"provenance.campaign' "${prov_metrics}" 2>/dev/null; then
      echo "FAIL campaign_smoke: provenance counters missing from $(basename "${prov_metrics}")" >&2
      smoke_status=1
    fi
    if ! grep -q '"backend":"sim-seq".*"culprits":"s0:' "${prov_store}" \
         2>/dev/null; then
      echo "FAIL campaign_smoke: no sim-seq culprits in $(basename "${prov_store}")" >&2
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
    awk -v r="${reused:-0}" -v c="${cells:-0}" 'BEGIN {
      printf "GRID_CELLS %d\nRESUMED_CELLS %d\nCACHE_HIT_RATE %.3f\n",
             c, r, (c > 0) ? r / c : 0 }' >>"${log}"
  else
    echo "FAIL campaign_smoke: missing ${cli}" >&2
    smoke_status=1
  fi
  # The pass-2 snapshot file is one JSON object per line; embed it so
  # the committed BENCH json carries the campaign's own counters.
  telemetry=""
  if [ -s "${metrics_file}" ]; then
    telemetry=",
  \"telemetry\": $(tail -n 1 "${metrics_file}")"
  fi
  finish_bench campaign_smoke "${smoke_patterns}" "${smoke_status}" \
               "${start_ns}" "${telemetry}"
fi

# ---- fleet_shard: sharded fleet campaign, merge bit-identity ----
# A 1000-chip Monte-Carlo grid (fir on rca16's first six Table-III
# triads, per-chip gate-level levelized sim) runs in a single process
# and as 4 concurrent shard processes. The first five triads meet timing
# on nearly every die, so their cells copy the workload's settled run
# (DESIGN.md §9); the sixth (0.61 ns, 0.8 V, no bias; STA critical path
# 651.9 ps on the nominal die) misses it on 894 of the 1000 dies, whose
# cells simulate, and that simulation is the work the shards split.
# Chip corners and the shard partition are content-hashed (DESIGN.md
# §11), so the merged shard stores must be bit-identical to the
# canonicalized single-process store; elapsed_s is the only
# legitimately differing field and --strip-timing zeroes it.
# The two legs are timed by bench_common's rule: interleaved pairs,
# alternating which leg runs first, each leg on fresh stores.
# SHARD_EFFICIENCY is the single-process leg's median wall time over 4
# times the sharded leg's, SHARD_EFFICIENCY_SPREAD the quartile spread
# of the per-pair efficiencies.
if [ "${run_fleet_shard}" -eq 1 ]; then
  fs_status=0
  fs_dir="${out_dir}/fleet_shard"
  log="${out_dir}/fleet_shard.log"
  fs_chips=1000
  fs_shards=4
  fs_pairs=5
  fs_patterns=300
  fs_args=(campaign --workloads fir --circuits rca16
           --backends sim-levelized --max-triads 6
           --chips "${fs_chips}" --patterns "${fs_patterns}" --jobs 1)
  rm -rf "${fs_dir}"
  mkdir -p "${fs_dir}"
  : >"${log}"
  start_ns=$(date +%s%N)
  # Each leg appends its wall time (ns) to fs_times as "single NS" or
  # "sharded NS".
  fs_times=()
  fs_single_leg() {
    rm -f "${fs_dir}/single.jsonl"
    local t0
    t0=$(date +%s%N)
    (cd "${fs_dir}" && "${cli}" "${fs_args[@]}" --store single.jsonl \
       >>"${log}" 2>&1) || fs_status=1
    fs_times+=("single $(($(date +%s%N) - t0))")
  }
  # The shard processes run concurrently: their wall time against the
  # single-process time is the parallel-efficiency measurement.
  fs_sharded_leg() {
    local pids=() pid i t0
    rm -f "${fs_dir}"/shard*.jsonl
    t0=$(date +%s%N)
    for i in $(seq 0 $((fs_shards - 1))); do
      (cd "${fs_dir}" && "${cli}" "${fs_args[@]}" \
         --shard "${i}/${fs_shards}" --store "shard${i}.jsonl" \
         >>"${log}" 2>&1) &
      pids+=($!)
    done
    for pid in "${pids[@]}"; do
      wait "${pid}" || fs_status=1
    done
    fs_times+=("sharded $(($(date +%s%N) - t0))")
  }
  if [ -x "${cli}" ]; then
    for pair in $(seq 1 "${fs_pairs}"); do
      if [ $((pair % 2)) -eq 1 ]; then
        fs_single_leg
        fs_sharded_leg
      else
        fs_sharded_leg
        fs_single_leg
      fi
    done
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
    cp -f "${fs_dir}/merged.jsonl" "${out_dir}/fleet_shard_merged.jsonl"
    # Quantiles interpolate linearly between order statistics, as
    # util/stats' quantile does.
    printf '%s\n' "${fs_times[@]}" | awk -v n="${fs_shards}" \
        -v cells="${cells}" '
      function sort(a, k,   i, j, t) {
        for (i = 2; i <= k; i++)
          for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
            t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
          }
      }
      function quantile(a, k, q,   pos, lo, hi) {
        pos = q * (k - 1); lo = int(pos); hi = (lo + 1 < k) ? lo + 1 : lo
        return a[lo + 1] + (pos - lo) * (a[hi + 1] - a[lo + 1])
      }
      $1 == "single" { single[++ns] = $2 / 1e9 }
      $1 == "sharded" { sharded[++nh] = $2 / 1e9 }
      END {
        for (i = 1; i <= ns; i++) eff[i] = single[i] / (n * sharded[i])
        sort(single, ns); sort(sharded, nh); sort(eff, ns)
        s = quantile(single, ns, 0.5); h = quantile(sharded, nh, 0.5)
        printf "GRID_CELLS %d\n", cells
        printf "SINGLE_PROCESS_S %.3f\nSHARDED_WALL_S %.3f\n", s, h
        printf "SHARD_EFFICIENCY %.3f\n", (h > 0) ? s / (n * h) : 0
        printf "SHARD_EFFICIENCY_SPREAD %.3f\n",
               quantile(eff, ns, 0.75) - quantile(eff, ns, 0.25)
      }' >>"${log}"
  else
    echo "FAIL fleet_shard: missing ${cli}" >&2
    fs_status=1
  fi
  finish_bench fleet_shard "${fs_patterns}" "${fs_status}" "${start_ns}"
fi

# ---- serve_smoke: the daemon answers concurrent requests exactly ----
# Starts vosim_cli serve on a Unix socket, issues two campaign
# requests concurrently, then a third that reuses their prepared
# circuit (same circuit, triads and budgets; new seed, exact and model
# backends), and proves the streamed cells are bit-identical to the
# same grids run offline (after canonicalization; elapsed_s is wall
# clock and gets stripped on both sides).
if [ "${run_serve}" -eq 1 ]; then
  sv_status=0
  sv_dir="${out_dir}/serve_smoke"
  log="${out_dir}/serve_smoke.log"
  sv_patterns=300
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
    echo "SERVED_CELLS $(wc -l <"${sv_dir}/served_cells.jsonl")" >>"${log}"
  else
    echo "FAIL serve_smoke: missing ${cli}" >&2
    sv_status=1
  fi
  finish_bench serve_smoke "${sv_patterns}" "${sv_status}" "${start_ns}"
fi

echo "bench results: $((total - failures))/${total} ok, JSON in ${out_dir}"
[ "${failures}" -eq 0 ]
