"""Self-test of the benchmark harness.  Run from the repository root:

    python3 bench/selftest.py

It checks that
1. the answer checker catches a wrong result (one tree dropped): fail_ratio > 0;
2. the exact counters of a traced run repeat for the same seed;
3. a wrapped boundary that does not exist is reported as missing, not raised,
   and its metrics are null with a reason in the result line.
"""

from __future__ import annotations

import json

import run
from spans import BOUNDARIES

EXACT_COUNTERS = (
    "solver.masks",
    "solver.feasibility_checks",
    "solver.cache_hits",
    "rainbow.feasibility_calls",
    "constructive.levels",
    "constructive.moves",
)


def drop_one_tree(count, partition):
    return count, type(partition)(partition.trees[:-1])


def test_checker_catches_a_dropped_tree() -> None:
    for workload in run.WORKLOADS:
        ops, _, _ = run.measure(workload, seed=3, seconds=0, tamper=drop_one_tree)
        fail_ratio = len(ops.failures) / ops.attempted
        if not fail_ratio > 0:
            raise SystemExit(f"{workload}: a dropped tree went unnoticed")
        print(f"ok  {workload}: dropped tree caught, fail_ratio={fail_ratio:g}")


def test_exact_counters_repeat() -> None:
    for workload in run.WORKLOADS:
        seen = []
        for _ in range(2):
            _, _, metrics = run.measure_traced(workload, seed=5, num_rounds=1)
            seen.append({k: metrics[k][0] for k in EXACT_COUNTERS})
        if seen[0] != seen[1]:
            raise SystemExit(f"{workload}: exact counters differ: {seen}")
        print(f"ok  {workload}: exact counters repeat {seen[0]}")


def test_missing_boundary_is_reported() -> None:
    """Boundaries renamed away, as a refactor would, give null metrics that
    name the reason in the result line, not 0 and not an exception."""
    renamed = {
        ("rainbowtrees.solver", "_max_common_set"): ("rainbowtrees.solver", "_no_such_function"),
        ("rainbowtrees.coloring", "EdgeColoring.edges"): ("rainbowtrees.coloring", "NoSuchClass.edges"),
        ("rainbowtrees.verify", "random_surjective_coloring"):
            ("rainbowtrees.no_such_module", "random_surjective_coloring"),
    }
    boundaries = tuple((*renamed.get((m, a), (m, a)), span) for m, a, span in BOUNDARIES)
    ops, _, metrics = run.measure_traced("sweep", seed=5, num_rounds=1, boundaries=boundaries)
    result = json.loads(run.result_line(ops, metrics))
    null = {k for k, m in result["metrics"].items() if m["value"] is None}
    expected = {
        "rainbow.feasibility_calls", "rainbow.feasibility_s", "rainbow.feasibility_edges",
        "rainbow.feasible_ratio", "coloring.edges_calls", "coloring.edges_s",
        "verify.sample_calls", "verify.sample_s", "solver.dp_self_s", "constructive.self_s",
        "constructive.find_swap_self_s",
    }
    if null != expected:
        raise SystemExit(f"null metrics {sorted(null)}, expected {sorted(expected)}")
    if not all(result["metrics"][k].get("missing") for k in null):
        raise SystemExit("a null metric gives no reason")
    if not result["correct"] or result["metrics"]["solver.solve_calls"]["value"] != ops.attempted:
        raise SystemExit(f"the remaining boundaries were not traced: {result}")
    print(f"ok  missing boundaries reported as null: {sorted(null)}")


if __name__ == "__main__":
    test_checker_catches_a_dropped_tree()
    test_exact_counters_repeat()
    test_missing_boundary_is_reported()
