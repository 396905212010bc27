#!/usr/bin/env bash
# Checks the gate table of tools/run_benches.sh on a stub
# bench_fig8_ber_energy (gated LEVELIZED_SPEEDUP >= 5 and
# LEVELIZED_BER_DEV_PP <= 2.0): a figure past its bound fails the run
# with status "fail", a missing gated figure fails it too, and figures
# exactly at their bounds pass. Runs no simulator.
#
# Usage: tests/run_benches_gates.sh   (registered with ctest)
set -u

script="$(cd "$(dirname "$0")/.." && pwd)/tools/run_benches.sh"
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT
errors=0

fail() {
  echo "FAIL $*" >&2
  errors=$((errors + 1))
}

# run_case CASE WANT_EXIT LINE...
# Runs run_benches.sh on a stub bench that prints LINE... and checks
# that the run exits zero (WANT_EXIT 0) or non-zero (WANT_EXIT 1).
run_case() {
  local case_name="$1" want="$2"
  shift 2
  local dir="${tmp}/${case_name}"
  mkdir -p "${dir}/build" "${dir}/out"
  {
    echo '#!/bin/sh'
    printf "echo '%s'\n" "$@"
  } >"${dir}/build/bench_fig8_ber_energy"
  chmod +x "${dir}/build/bench_fig8_ber_energy"
  VOSIM_BENCH_OUT="${dir}/out" bash "${script}" "${dir}/build" \
    bench_fig8_ber_energy >"${dir}/run.log" 2>&1
  local got=$?
  if { [ "${want}" -eq 0 ] && [ "${got}" -ne 0 ]; } ||
     { [ "${want}" -ne 0 ] && [ "${got}" -eq 0 ]; }; then
    fail "${case_name}: run_benches.sh exited ${got}"
    cat "${dir}/run.log" >&2
  fi
  local json="${dir}/out/BENCH_fig8_ber_energy.json"
  if [ ! -s "${json}" ]; then
    fail "${case_name}: no BENCH json"
  elif command -v python3 >/dev/null 2>&1 &&
       ! python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
         "${json}"; then
    fail "${case_name}: BENCH json does not parse"
  fi
}

# expect CASE PATTERN: the case's BENCH json has a line matching PATTERN.
expect() {
  if ! grep -q -- "$2" "${tmp}/$1/out/BENCH_fig8_ber_energy.json"; then
    fail "$1: no line matching '$2'"
    cat "${tmp}/$1/out/BENCH_fig8_ber_energy.json" >&2
  fi
}

run_case past_bound 1 "LEVELIZED_SPEEDUP 4.99" "LEVELIZED_BER_DEV_PP 2.01"
expect past_bound '"name": "LEVELIZED_SPEEDUP", "value": 4.99, "op": ">=", "bound": 5, "status": "fail"'
expect past_bound '"name": "LEVELIZED_BER_DEV_PP", "value": 2.01, "op": "<=", "bound": 2.0, "status": "fail"'
expect past_bound '"exit_code": 1,'

run_case missing 1 "LEVELIZED_SPEEDUP 12.5" "LEVELIZED_BER_DEV_PP nan"
expect missing '"name": "LEVELIZED_SPEEDUP", "value": 12.5, .*"status": "pass"'
expect missing '"name": "LEVELIZED_BER_DEV_PP", "value": null, .*"status": "fail"'

run_case at_bound 0 "LEVELIZED_SPEEDUP 5" "LEVELIZED_SPEEDUP_SPREAD 0.25" \
  "LEVELIZED_BER_DEV_PP 2.0"
expect at_bound '"name": "LEVELIZED_SPEEDUP", "value": 5, .*"status": "pass", "spread": 0.25}'
expect at_bound '"name": "LEVELIZED_BER_DEV_PP", "value": 2.0, .*"status": "pass", "spread": null}'
expect at_bound '"figures": {"LEVELIZED_SPEEDUP": 5, "LEVELIZED_SPEEDUP_SPREAD": 0.25, "LEVELIZED_BER_DEV_PP": 2.0}'
expect at_bound '"host": {"cores": [0-9]*, "cpu_model": ".*", "build_type": "unknown"}'
expect at_bound '"exit_code": 0,'

if [ "${errors}" -ne 0 ]; then
  echo "run_benches_gates: ${errors} check(s) failed" >&2
  exit 1
fi
echo "run_benches_gates: all checks passed"
