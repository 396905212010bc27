#!/usr/bin/env python3
"""vosim benchmark entry point.

Builds the benchmark program (perfbench/CMakeLists.txt, which builds the
library from the repository's own CMakeLists.txt) and runs one workload:

    python3 perfbench/run.py --workload campaign_ref --seed 1 --seconds 20 --trace 0

The last line of standard output is the program's JSON result. With
--self-check it instead runs every workload at a tiny size, traced and
untraced, and validates each result against BENCHMARK.json (metric names,
units, zero failures, identical operation counts on a second seed).

Run from the root of a checkout. Everything the benchmark writes goes
under the build directory: $CARGO_TARGET_DIR if set, else .bench_build.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ["campaign_ref", "table3_sweep", "fleet_closed_loop", "serve_fleet"]
# A run must end within 180 s; keep a margin for start-up and teardown.
RUN_TIMEOUT_S = 170
# Beyond --seconds a run spends up to ~20 s on set-up, the reference
# checks and a last repetition, so longer budgets would hit the timeout.
MAX_SECONDS = 120


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the program; returns its path or None."""
    bdir = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (bdir / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "vosim_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return None
    exe = bdir / "vosim_perfbench"
    return exe if exe.exists() else None


def run_bench(exe, workload, seed, seconds, trace, tiny=False, echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    out_dir = build_dir() / "out" / workload
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out_dir)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, []
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout.splitlines()


def validate(spec, workload, trace, code, lines):
    """Problems with one tiny run's result, as a list of strings."""
    if code != 0:
        return [f"exit code {code}"]
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        missing = {m["name"] for m in wanted} - set(got)
        extra = set(got) - {m["name"] for m in wanted}
        problems.append(f"metric names: missing {sorted(missing)} extra {sorted(extra)}")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {entry.get('unit')} != {m['unit']}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{m['name']} value {entry.get('value')!r}")
        elif not trace and not entry["value"] > 0:
            problems.append(f"{m['name']} = {entry['value']} (must be > 0)")
    return problems


def self_check(exe):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if names != WORKLOADS:
        log(f"BENCHMARK.json workloads {names} != {WORKLOADS}")
        return 1
    failures = 0
    for workload in WORKLOADS:
        attempted = set()
        for trace, seed in ((0, 1), (0, 2), (1, 1)):
            start = time.monotonic()
            code, lines = run_bench(exe, workload, seed, 1, trace,
                                    tiny=True, echo=False)
            problems = validate(spec, workload, trace, code, lines)
            if not problems:
                attempted.add(json.loads(lines[-1])["attempted"])
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"self-check {workload} trace={trace} seed={seed} "
                  f"({time.monotonic() - start:.1f} s): {status}")
            failures += bool(problems)
        if len(attempted) > 1:
            print(f"self-check {workload}: attempted differs across seeds/"
                  f"modes: {sorted(attempted)}")
            failures += 1
    print("self-check: " + ("ok" if failures == 0 else f"{failures} failed"))
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload at a tiny size and validate it")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required (or --self-check)")
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        ap.error(f"--seed must be >= 0 and --seconds in [1, {MAX_SECONDS}]")

    exe = build()
    if exe is None:
        return 1
    if args.self_check:
        return self_check(exe)
    code, _ = run_bench(exe, args.workload, args.seed, args.seconds,
                        args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
