"""Acceptance suite: the package's headline guarantees at full scale.

Each test prints one pass/fail line (visible with `pytest -s` or in the
captured output of a failing run).  All checks are exact; there are no
tolerances anywhere.
"""

import hashlib
import random
import time

from math import comb

from rainbowtrees import (
    campaign_constructive,
    campaign_cutedge,
    campaign_monotonicity,
    extremal_partition,
    generate_canonical,
    is_partition_valid,
    iter_surjective_colorings,
    max_rainbow_forest,
    max_rainbow_forest_bruteforce,
    monochromatic_complete,
    partition_number,
    random_surjective_coloring,
    solve,
    solve_bruteforce,
)
from rainbowtrees.coloring import EdgeColoring


def _report(criterion: str, detail: str, t0: float) -> None:
    print(f"ACCEPTANCE {criterion} PASS ({time.monotonic() - t0:.1f}s): {detail}")


def test_criterion_1_worst_case_equality_on_canonical_instances():
    t0 = time.monotonic()
    cells = 0
    for n in range(3, 9):
        for r in range(2, comb(n, 2) + 1):
            c, _ = generate_canonical(n, r)
            assert solve(c).count == partition_number(n, r), (n, r)
            cells += 1
    _report("1", f"solve == formula on {cells} canonical cells, n in 3..8", t0)


def test_criterion_2_exhaustive_maximum_over_k4_colorings():
    t0 = time.monotonic()
    expected = {2: 2, 3: 1, 4: 1, 5: 1, 6: 1}
    for r in range(2, 7):
        worst = 0
        count = 0
        for c in iter_surjective_colorings(4, r):
            worst = max(worst, solve(c).count)
            count += 1
        assert worst == expected[r] == partition_number(4, r), (r, worst)
        assert count > 0
    _report("2", "max over all surjective colorings of K_4 equals the formula", t0)


def test_criterion_3_stochastic_upper_bound():
    t0 = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for n in range(5, 11):
        m = comb(n, 2)
        sampled_r = sorted({2, 3, m // 2, m - 1, m})
        for r in sampled_r:
            bound = partition_number(n, r)
            for _ in range(500):
                c = random_surjective_coloring(n, r, rng)
                assert solve(c).count <= bound, (n, r)
                checked += 1
    _report("3", f"{checked} random colorings never exceeded the formula", t0)


def test_criterion_4_extremal_partition_construction():
    t0 = time.monotonic()
    cells = 0
    for n in range(3, 13):
        for r in range(2, comb(n, 2) + 1):
            c, layout = generate_canonical(n, r)
            p = extremal_partition(c, layout)
            ok, why = is_partition_valid(c, p)
            assert ok, (n, r, why)
            assert p.count == partition_number(n, r), (n, r)
            cells += 1
    _report("4", f"explicit optimal partition on {cells} canonical cells, n <= 12", t0)


def test_criterion_5_merge_monotonicity():
    t0 = time.monotonic()
    report = campaign_monotonicity(trials=1000, seed=202)
    assert report.passed, report.failures[:1]
    assert report.instances == 1000
    _report("5", "1000 merge trials, solve(c) <= solve(merged) throughout", t0)


def test_criterion_6_cut_edge_bound_exhaustive():
    t0 = time.monotonic()
    report = campaign_cutedge(max_n=7)
    assert report.passed, report.failures[:1]
    # sha256 of to_json(): the report's bytes do not depend on the walk's order
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "153dbae9d8664dd87b01269c83b952624277caa799e294389f014d6c0089cb27")
    assert [w["n"] for w in report.witnesses] == [3, 4, 5, 6, 7]
    for w in report.witnesses:
        n, bound = w["n"], w["bound"]
        assert bound == comb(n - 1, 2) + 1
        assert len(w["edges"]) == bound
        degrees = [0] * n
        for u, v in w["edges"]:
            degrees[u] += 1
            degrees[v] += 1
        # tight witnesses are the (n-1)-clique with one pendant edge
        assert sorted(degrees) == [1] + [n - 2] * (n - 2) + [n - 1], w
    _report("6", "all bridged graphs on n <= 7 within the bound; tight witnesses found", t0)


def test_criterion_7_constructive_algorithm():
    t0 = time.monotonic()
    report = campaign_constructive(max_n=12, samples=500, seed=303)
    assert report.passed, report.failures[:1]
    modes = {(cell["n"], cell["mode"]) for cell in report.cells}
    assert (3, "exhaustive") in modes and (4, "exhaustive") in modes
    assert (5, "exhaustive-r2") in modes
    for n in range(6, 13):
        assert (n, "random") in modes
    random_cells = [cell for cell in report.cells if cell["mode"] == "random"]
    assert all(cell["instances"] == 500 for cell in random_cells)
    _report(
        "7",
        f"{report.instances} instances: valid, within the bound, within the swap budget",
        t0,
    )


def test_criterion_8_oracle_agreement():
    t0 = time.monotonic()
    rng = random.Random(404)
    forest_checks = 0
    while forest_checks < 200:
        n = rng.randint(2, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        kept = [p for p in pairs if rng.random() < 0.85]
        if not kept:
            continue
        colors = {p: rng.randint(1, len(kept)) for p in kept}
        # the used colors renumbered in order onto 1..r, which every coloring
        # must use; renaming colors changes no forest's size
        dense = {col: i for i, col in enumerate(sorted(set(colors.values())), 1)}
        c = EdgeColoring(n, len(dense), {p: dense[col] for p, col in colors.items()})
        within = rng.sample(range(n), rng.randint(1, n))
        assert len(max_rainbow_forest(c, within)) == max_rainbow_forest_bruteforce(
            c, within
        ), (colors, within)
        forest_checks += 1
    solver_checks = 0
    for _ in range(500):
        n = rng.randint(2, 7)
        r = rng.randint(1, comb(n, 2))
        c = random_surjective_coloring(n, r, rng)
        assert solve(c).count == solve_bruteforce(c), (n, r)
        solver_checks += 1
    _report(
        "8",
        f"matroid == brute on {forest_checks} forests; DP == set-partition on {solver_checks} solves",
        t0,
    )


def test_criterion_9_single_color_base_case():
    t0 = time.monotonic()
    for n in range(1, 11):
        assert solve(monochromatic_complete(n)).count == (n + 1) // 2, n
    _report("9", "solve(monochromatic K_n) == ceil(n/2) for n in 1..10", t0)
