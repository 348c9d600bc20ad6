"""Seeded closed-loop benchmark of the rainbowtrees package.

Run from the repository root:

    python3 bench/run.py [--workload sweep|exact|construct] [--seed N]
                         [--seconds S] [--trace 0|1]

--seconds defaults to run_seconds in BENCHMARK.json.

Without --workload every workload runs, each in its own process, and a
combined result is printed.  The load is one thread and one client in a
closed loop: the next op starts when the previous one returns.  All inputs
come from --seed; the program receives only the generated colorings.

Workloads (n = vertices of K_n, r = colors):

* sweep     - the acceptance suite's stochastic sweep: n = 5..10 and
              r in {2, 3, m//2, m-1, m} with m = C(n, 2).  One op draws
              random_surjective_coloring(n, r, rng) and solves it exactly.
              Sampler, matroid intersection and witness extraction dominate.
* exact     - solve() at n in {12, 13}, r in {2, 3, 4, 5}, on the canonical
              coloring and on random colorings drawn during set-up.  The
              subset-DP loop and its feasibility cache dominate.
* construct - partition_complete() with r in {8, 12, 20}, on canonical
              colorings at n = 200, 220, ..., 300 and on random colorings
              drawn during set-up at n = 150, 160, ..., 200.  The coloring
              read path (edges, color_classes, restrict) and find_swap
              dominate; rainbow and solver do no work here.

One round runs every cell of a workload once; a run measures whole rounds
until --seconds have passed, so every run sees the same mix of cells.  The
construct cells are spread so that op times have no wide gap at the median
or the 90th percentile, where a percentile would jump between two cells
from run to run: with n in {150, 200} alone the 90th percentile fell
between cells 40% apart, and since a canonical coloring is 3-6x cheaper
than a random one of the same n, canonical cells take larger n.

Every answer is checked after its op's timed span: the partition passes
is_partition_valid, has as many trees as the reported count, and the count
equals the closed form on canonical colorings and is at most the closed
form on random ones.  An op that raises or fails its check is counted as
failed; it never stops the run.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics (ops_per_s, op_p50_ms, op_p90_ms, setup_s, peak_rss_mib); the lines
before it print those, fail_ratio, and the raw wall-clock timings by name.
Timings in the JSON are at reference host speed (see clock.py); setup_s is
the median of SETUP_REPEATS fresh imports plus input generations.

With --trace 1 a fixed number of rounds runs with span wrappers installed
(see spans.py), then the same ops run again without them, and the last line
holds the per-layer metrics.  A traced run executes a fixed op list rather
than a fixed time, so its exact counters repeat for a given seed.  A metric
whose wrapped boundary no longer exists has value null and a "missing"
reason in that line, never 0.  Spans are written to .bench_out/ under the
repository root.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import random
import resource
import statistics
import subprocess
import sys
import types
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter

from clock import Clock
from spans import BOUNDARIES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = 1
SETUP_REPEATS = 5
TRACE_ROUNDS = {"sweep": 40, "exact": 3, "construct": 1}
MODULES = ("canonical", "coloring", "constructive", "formula", "solver", "verify")


class MissingProgram(Exception):
    pass


def import_fresh() -> types.SimpleNamespace:
    """Import the package from SRC anew, so that import time can be measured."""
    for name in [m for m in sys.modules if m == "rainbowtrees" or m.startswith("rainbowtrees.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("rainbowtrees")
    except ImportError as exc:
        raise MissingProgram(f"cannot import rainbowtrees from {SRC}: {exc}") from None
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"rainbowtrees was imported from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"rainbowtrees.{m}") for m in MODULES}
    )


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Item:
    label: str
    n: int
    r: int
    canonical: bool        # count must equal the closed form, not just stay below it
    coloring: object = None  # None: the op draws its own coloring


def sweep_setup(api, seed):
    items = []
    for n in range(5, 11):
        m = comb(n, 2)
        for r in sorted({2, 3, m // 2, m - 1, m}):
            items.append(Item(f"n={n} r={r} random", n, r, False))
    return lambda k: items


def pooled_setup(canonical_ns, random_ns, rs, pool):
    """Canonical colorings plus `pool` random colorings per cell, drawn now."""

    def setup(api, seed):
        rng = random.Random(seed)
        canonical = [
            Item(f"n={n} r={r} canonical", n, r, True, api.canonical.generate_canonical(n, r)[0])
            for n in canonical_ns for r in rs
        ]
        drawn = [
            [Item(f"n={n} r={r} random#{i}", n, r, False,
                  api.verify.random_surjective_coloring(n, r, rng)) for i in range(pool)]
            for n in random_ns for r in rs
        ]
        return lambda k: canonical + [p[k % pool] for p in drawn]

    return setup


def solve_drawn(api, item, rng, levels):
    c = api.verify.random_surjective_coloring(item.n, item.r, rng)
    return c, api.solver.solve(c)


def solve_given(api, item, rng, levels):
    return item.coloring, api.solver.solve(item.coloring)


def construct_given(api, item, rng, levels):
    if levels is None:
        return item.coloring, api.constructive.partition_complete(item.coloring)
    return item.coloring, api.constructive.partition_complete(item.coloring, trace=levels)


WORKLOADS = {
    "sweep": (sweep_setup, solve_drawn),
    "exact": (pooled_setup((12, 13), (12, 13), (2, 3, 4, 5), pool=8), solve_given),
    "construct": (
        pooled_setup(range(200, 301, 20), range(150, 201, 10), (8, 12, 20), pool=1),
        construct_given,
    ),
}


# ---------------------------------------------------------------------------
# checking and the op loop


def check(api, item, coloring, result, tamper=None) -> str | None:
    """Why the answer is wrong, or None.  `tamper` lets the self-test corrupt it."""
    count = result.count
    partition = getattr(result, "partition", result)
    if tamper is not None:
        count, partition = tamper(count, partition)
    ok, why = api.coloring.is_partition_valid(coloring, partition)
    if not ok:
        return f"invalid partition: {why}"
    if partition.count != count:
        return f"partition has {partition.count} trees but count is {count}"
    bound = api.formula.partition_number(item.n, item.r)
    if item.canonical and count != bound:
        return f"count {count} != closed form {bound}"
    if count > bound:
        return f"count {count} > closed form {bound}"
    return None


@dataclass
class Ops:
    spans: list       # (start, end) of each attempted op, in order
    failures: list    # one message per failed op
    rounds: int

    @property
    def attempted(self) -> int:
        return len(self.spans)

    @property
    def times(self) -> list:
        return [end - start for start, end in self.spans]


def run_ops(api, op, rounds, seed, clock, *, seconds=None, num_rounds=None,
            tracer=None, tamper=None) -> Ops:
    """Run whole rounds (at least one) until `seconds` pass, or exactly `num_rounds`."""
    rng = random.Random(seed)
    levels_ok = tracer is not None and "trace" in inspect.signature(
        api.constructive.partition_complete).parameters
    if tracer is not None and not levels_ok:
        tracer.missing["partition_complete(trace=...)"] = (
            "constructive.trace", "partition_complete takes no trace list")
    out = Ops([], [], 0)
    start = perf_counter()
    while (out.rounds < num_rounds if num_rounds is not None
           else out.rounds == 0 or perf_counter() - start < seconds):
        for item in rounds(out.rounds):
            clock.maybe_sample()
            levels = [] if levels_ok else None
            if tracer is not None:
                tracer.op = out.attempted
            t0 = perf_counter()
            try:
                coloring, result = op(api, item, rng, levels)
            except Exception as exc:  # a counted failure, never a crash
                out.spans.append((t0, perf_counter()))
                out.failures.append(f"{item.label}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if tracer is not None:
                    tracer.op = None
            out.spans.append((t0, perf_counter()))
            why = check(api, item, coloring, result, tamper)
            if why is not None:
                out.failures.append(f"{item.label}: {why}")
            if tracer is not None:
                count_program_stats(tracer, result, levels)
        out.rounds += 1
    clock.sample()  # the last op needs a sample after it
    return out


def count_program_stats(tracer, result, levels) -> None:
    stats = getattr(result, "stats", None)
    if stats is not None:
        for key in ("masks", "feasibility_checks", "cache_hits"):
            value = stats.get(key)
            if value is None:
                tracer.missing[f"SolveResult.stats.{key}"] = (f"solver.{key}", "not reported")
            else:
                tracer.counters[f"solver.{key}"] += value
    if levels is not None:
        tracer.counters["constructive.levels"] += len(levels)
        tracer.counters["constructive.moves"] += sum(rec["moves"] for rec in levels)


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(ops: Ops, clock: Clock, setup_spans) -> tuple[dict, dict]:
    """Metrics from reference-speed times (see clock.py), and the raw ones."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = ops.attempted - len(ops.failures)

    def timings(times, setup):
        return {
            "ops_per_s": (ok / sum(times), "1/s"),
            "op_p50_ms": (1000 * statistics.median(times), "ms"),
            "op_p90_ms": (1000 * percentile(times, 90), "ms"),
            "setup_s": (statistics.median(setup), "s"),
        }

    metrics = timings([clock.scaled(*span) for span in ops.spans],
                      [clock.scaled(*span) for span in setup_spans])
    metrics["peak_rss_mib"] = (peak_kib / 1024, "MiB")
    raw = timings(ops.times, [end - start for start, end in setup_spans])
    extra = {f"raw_{name}": value for name, value in raw.items()}
    extra["fail_ratio"] = (len(ops.failures) / ops.attempted, "ratio")
    extra["host_slowdown"] = (clock.slowdown(), "ratio")
    return metrics, extra


def ratio(num, den) -> float:
    return num / den if den else 0.0


# Spans that can run inside a span and are subtracted from its self time:
# if one of them is missing, its time would land in the self time unseen.
NESTED = {
    "solver.solve": ("coloring.validate", "rainbow.feasibility", "rainbow.witness",
                     "coloring.edges", "coloring.color_classes"),
    "constructive.partition": ("coloring.validate", "constructive.find_swap",
                               "constructive.apply_swap", "constructive.initial_representatives",
                               "coloring.restrict", "coloring.partition_check",
                               "coloring.edges", "coloring.color_classes"),
    "constructive.find_swap": ("coloring.edges", "coloring.color_classes"),
}


def per_layer(tracer: Tracer, traced: Ops, plain: Ops, clock: Clock) -> dict:
    """Traced-run metrics.  `<span>_s` is the raw wall time inside that span,
    children included; `self_s` metrics subtract the child spans.  A metric
    that depends on a missing span or counter is `(None, unit, reason)`."""
    calls, total, self_time, ctr = tracer.calls, tracer.total, tracer.self_time, tracer.counters
    out = {}  # name -> (value, unit, spans and counters it is computed from)

    def self_s(span):
        return self_time[span], "s", (span, *NESTED[span])

    for span in ("verify.sample", "coloring.validate", "coloring.edges",
                 "coloring.color_classes", "coloring.restrict", "coloring.partition_check",
                 "rainbow.feasibility", "rainbow.witness", "solver.solve",
                 "constructive.partition", "canonical.generate"):
        out[f"{span}_calls"] = (calls[span], "count", (span,))
        out[f"{span}_s"] = (total[span], "s", (span,))
    out["rainbow.feasibility_edges"] = (
        ctr["rainbow.feasibility_edges"], "count", ("rainbow.feasibility",))
    out["rainbow.feasible_ratio"] = (
        ratio(ctr["rainbow.feasibility_spanning"], calls["rainbow.feasibility"]), "ratio",
        ("rainbow.feasibility",))
    out["solver.dp_self_s"] = self_s("solver.solve")
    for key in ("masks", "feasibility_checks", "cache_hits"):
        out[f"solver.{key}"] = (ctr[f"solver.{key}"], "count", (f"solver.{key}",))
    out["solver.cache_hit_ratio"] = (ratio(
        ctr["solver.cache_hits"], ctr["solver.cache_hits"] + ctr["solver.feasibility_checks"]),
        "ratio", ("solver.cache_hits", "solver.feasibility_checks"))
    out["constructive.self_s"] = self_s("constructive.partition")
    out["constructive.find_swap_calls"] = (
        calls["constructive.find_swap"], "count", ("constructive.find_swap",))
    out["constructive.find_swap_self_s"] = self_s("constructive.find_swap")
    out["constructive.levels"] = (ctr["constructive.levels"], "count", ("constructive.trace",))
    out["constructive.moves"] = (ctr["constructive.moves"], "count", ("constructive.trace",))
    out["constructive.move_ratio"] = (
        ratio(ctr["constructive.moves"], calls["constructive.find_swap"]), "ratio",
        ("constructive.trace", "constructive.find_swap"))
    out["trace.overhead_ratio"] = (ratio(
        sum(clock.scaled(*span) for span in traced.spans),
        sum(clock.scaled(*span) for span in plain.spans)), "ratio", ())

    gone = {}
    for where, (span, why) in sorted(tracer.missing.items()):
        gone.setdefault(span, f"{where}: {why}")
    metrics = {}
    for name, (value, unit, sources) in out.items():
        why = next((gone[s] for s in sources if s in gone), None)
        metrics[name] = (value, unit) if why is None else (None, unit, why)
    return metrics


# ---------------------------------------------------------------------------
# runs


def measure(workload: str, seed: int, seconds: float, tamper=None):
    setup, op = WORKLOADS[workload]
    clock = Clock()
    setup_spans = []
    rounds = None
    for _ in range(SETUP_REPEATS):
        rounds = None  # drop the previous inputs before building new ones
        clock.sample()
        t0 = perf_counter()
        api = import_fresh()
        rounds = setup(api, seed)
        setup_spans.append((t0, perf_counter()))
    ops = run_ops(api, op, rounds, seed, clock, seconds=seconds, tamper=tamper)
    return ops, *end_to_end(ops, clock, setup_spans)


def measure_traced(workload: str, seed: int, num_rounds: int | None = None,
                   boundaries=BOUNDARIES):
    setup, op = WORKLOADS[workload]
    num_rounds = num_rounds or TRACE_ROUNDS[workload]
    clock = Clock()
    api = import_fresh()
    tracer = Tracer()
    tracer.install(boundaries)
    try:
        tracer.op = "setup"
        rounds = setup(api, seed)
        tracer.op = None
        traced = run_ops(api, op, rounds, seed, clock, num_rounds=num_rounds, tracer=tracer)
    finally:
        tracer.op = None
        tracer.uninstall()
    plain = run_ops(api, op, rounds, seed, clock, num_rounds=num_rounds)
    return traced, tracer, per_layer(tracer, traced, plain, clock)


def result_line(ops: Ops, metrics: dict) -> str:
    """The result JSON; a missing metric has value null and its reason."""
    return json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {k: {"value": v, "unit": u} | ({"missing": why[0]} if why else {})
                    for k, (v, u, *why) in metrics.items()},
    })


def report(workload: str, ops: Ops, metrics: dict, extra: dict) -> None:
    print(f"workload={workload} ops={ops.attempted} rounds={ops.rounds} "
          f"failed={len(ops.failures)}")
    for msg in ops.failures[:5]:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, (value, unit, *_) in {**metrics, **extra}.items():
        shown = f"{value:>14.6g}" if value is not None else f"{'missing':>14}"
        print(f"  {name:<36} {shown} {unit}")


def run_one(args) -> int:
    if args.trace:
        ops, tracer, metrics = measure_traced(args.workload, args.seed)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path)
        for where, (span, why) in sorted(tracer.missing.items()):
            print(f"missing {where} ({span}): {why}")
        report(args.workload, ops, metrics, {})
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        ops, metrics, extra = measure(args.workload, args.seed, args.seconds)
        report(args.workload, ops, metrics, extra)
    print(result_line(ops, metrics))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS does not carry over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    try:
        return run_one(args)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
