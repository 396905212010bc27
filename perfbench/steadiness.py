#!/usr/bin/env python3
"""Steadiness check and host record for the vosim benchmark.

Runs every workload ten times untraced, with seeds 101-110, and reports
per end-to-end metric the median and the interquartile range as a share
of the median (statistics.quantiles(values, n=4)), next to the metric's
bound from BENCHMARK.json. The set is steady when
  - every spread except setup_s's stays within its metric's bound, and
  - no median is worse by more than its bound than the one of the set
    the host record already holds (when it holds one).
A spread above a third of its bound is marked: that is the target a
steady benchmark aims for, not the rule.

    python3 perfbench/steadiness.py --host-record perfbench/host.json

--host-record reads the set recorded before, then writes the host the
numbers were measured on (cores, CPU model, build type, SIMD tier, lane
width, jobs) with that set and this one, so the benchmark's figures
describe themselves. Run it twice on the same code to record two sets.
"""

import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # keep the benchmark directory clean
import run as bench  # noqa: E402  (perfbench/run.py)

RUNS = 10
FIRST_SEED = 101


def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cmake_cache(name):
    cache = bench.build_dir() / "CMakeCache.txt"
    if cache.exists():
        m = re.search(rf"^{name}:\w+=(.*)$", cache.read_text(), re.M)
        if m:
            return m.group(1)
    return "absent"


def lane_width():
    """From the run manifest the serve daemon stamps into its store."""
    store = bench.build_dir() / "out" / "serve_fleet" / "serve_store.jsonl"
    if store.exists():
        m = re.search(r'"lane_width":(\d+)', store.read_text())
        if m:
            return int(m.group(1))
    return None


def worse_by(new, old, better):
    """How much worse `new` is than `old`, as a share of `old`."""
    change = (new - old) / old
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--host-record", help="read and write the host record here")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    record_path = pathlib.Path(args.host_record) if args.host_record else None
    earlier = None
    if record_path is not None and record_path.exists():
        sets = json.loads(record_path.read_text()).get("sets", [])
        earlier = sets[-1] if sets else None
    exe = bench.build()
    if exe is None:
        return 1

    spreads = {}
    steady = True
    for w in bench.WORKLOADS:
        values = {name: [] for name in metrics}
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            code, lines = bench.run_bench(exe, w, seed, spec["run_seconds"],
                                          0, echo=False)
            if code != 0:
                print(f"{w} seed {seed}: exit code {code}")
                return 1
            result = json.loads(lines[-1])
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={values[n][-1]:.6g}" for n in metrics), flush=True)
        spreads[w] = {}
        for name, v in values.items():
            bound = metrics[name]["bound"]
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q[2] - q[0]) / med
            notes = []
            if name != "setup_s" and spread > bound:
                steady = False
                notes.append("spread above the bound")
            elif spread > bound / 3:
                notes.append("spread above a third of the bound")
            if earlier is not None:
                drift = worse_by(med, earlier[w][name]["median"],
                                 metrics[name]["better"])
                if drift > bound:
                    steady = False
                    notes.append(f"median {drift:.1%} worse than the "
                                 "recorded set")
            spreads[w][name] = {"median": med, "iqr_share": round(spread, 4),
                                "bound": bound}
            print(f"  {w:18s} {name:12s} median {med:12.6g}  IQR/median "
                  f"{spread:7.2%}  bound {bound:.0%}"
                  + "".join(f"  <-- {n}" for n in notes))

    if record_path is not None:
        record = {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "vosim_simd": cmake_cache("VOSIM_SIMD"),
            "lane_width": lane_width(),
            "jobs": os.cpu_count(),
            "run_seconds": spec["run_seconds"],
            "runs_per_set": RUNS,
            "seeds": [FIRST_SEED, FIRST_SEED + RUNS - 1],
            "sets": ([earlier] if earlier is not None else []) + [spreads],
        }
        record_path.write_text(json.dumps(record, indent=2) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
