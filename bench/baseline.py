"""Measure the benchmark's baseline and write it to bench/baseline.json.

Run from the repository root:

    python3 bench/baseline.py

For every workload in BENCHMARK.json it runs bench/run.py once per seed in
SEEDS (one process each, run_seconds long), then once traced with the
default seed.  It records each end-to-end metric's median and quartiles and
their spread (quartile distance over median), the same for the raw
wall-clock timings run.py prints beside the scaled ones (see clock.py), the
traced per-layer metrics, the Python version and nproc.  Units, directions
and bounds are in BENCHMARK.json.  It exits with 1 if any answer was wrong
or any end-to-end spread exceeds its bound.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

SEEDS = range(1, 11)
OUT = Path(__file__).parent / "baseline.json"


def one_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The result line, and the raw_* timings printed above it."""
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=run.ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    raw = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0].startswith("raw_"):
            raw[parts[0].removeprefix("raw_")] = float(parts[1])
    return json.loads(lines[-1]), raw


def summary(vals: list) -> dict:
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(vals), "values": vals}


def main() -> int:
    bounds = {m["name"]: m["bound"] for m in run.BENCH["end_to_end"]}
    ok = True
    workloads = {}
    for w in (x["name"] for x in run.BENCH["workloads"]):
        values: dict[str, list] = {name: [] for name in bounds}
        raw_values: dict[str, list] = {}
        for seed in SEEDS:
            result, raw = one_run(w, seed, 0)
            ok &= result["correct"] and result["failed"] == 0
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in raw.items():
                raw_values.setdefault(name, []).append(value)
        scaled = {name: summary(vals) for name, vals in values.items()}
        raw = {name: summary(vals) for name, vals in raw_values.items()}
        for name, s in scaled.items():
            within = s["spread"] <= bounds[name]
            ok &= within
            raw_spread = f"  raw spread {raw[name]['spread']:6.3f}" if name in raw else ""
            print(f"{w:<10} {name:<14} median {s['median']:12.6g} "
                  f"spread {s['spread']:6.3f} bound {bounds[name]}{raw_spread}"
                  f"{'' if within else '  OVER'}", flush=True)
        traced, _ = one_run(w, run.DEFAULT_SEED, 1)
        ok &= traced["correct"]
        workloads[w] = {
            "end_to_end": scaled,
            "raw_end_to_end": raw,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }

    OUT.write_text(json.dumps({
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "default_seed": run.DEFAULT_SEED,
        "run_seconds": run.BENCH["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": workloads,
    }, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
