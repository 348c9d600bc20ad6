import dataclasses
import hashlib
import json
import random
import re
import types

import pytest
from math import comb

from rainbowtrees import (
    ConstructionDefect,
    EdgeColoring,
    SizeGuardError,
    VerificationReport,
    campaign_constructive,
    campaign_cutedge,
    campaign_monotonicity,
    campaign_worstcase,
    format_coloring,
    generate_canonical,
    iter_surjective_colorings,
    merge_colors,
    parse_coloring,
    partition_complete,
    partition_number,
    random_surjective_coloring,
    solve,
    validate,
)
from rainbowtrees import verify
from rainbowtrees.verify import _connected_bitadj, _has_bridge, revalidate_witness


# ------------------------------------------------------- instance generators


def test_random_surjective_coloring_is_valid():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 8)
        r = rng.randint(1, comb(n, 2))
        c = random_surjective_coloring(n, r, rng)
        assert validate(c) == []
        assert c.complete


def test_random_surjective_extreme_r_uses_the_repair_path():
    rng = random.Random(9)
    for n in (5, 6, 7):
        m = comb(n, 2)
        c = random_surjective_coloring(n, m, rng)  # needs a permutation
        assert validate(c) == []
        assert sorted(c.colors.values()) == list(range(1, m + 1))


def test_seeded_instances_are_byte_identical_to_the_golden_files():
    # digests of the files written by this package before colorings were
    # stored as color tuples; a changed rng draw or edge order breaks them
    rng = random.Random(20240601)
    digest = hashlib.sha256()
    for n, r in [(2, 1), (5, 3), (7, 2), (8, 28), (12, 5), (20, 40), (40, 12)]:
        digest.update(format_coloring(random_surjective_coloring(n, r, rng)).encode())
    assert digest.hexdigest() == (
        "1e8a6fb2ac9ea01bd33eb4488a910ded7384828cc06fec91e752fea6fb8c5bb8"
    )
    digest = hashlib.sha256()
    for n, r, fill in [(3, 2, None), (4, 3, None), (5, 4, None), (8, 5, None),
                       (8, 5, 3), (12, 7, None), (30, 12, 2), (60, 20, None)]:
        digest.update(format_coloring(generate_canonical(n, r, fill_color=fill)[0]).encode())
    assert digest.hexdigest() == (
        "1c47698f9e7b68bad99b91c697642e29a1771fdaaf3a3bfbcc943cf16c2ebc9f"
    )


def randint_reference_coloring(n, r, rng):
    """random_surjective_coloring written with one rng.randint(1, r) call
    per edge: the reference its batched word draws must match."""
    m = comb(n, 2)
    for _ in range(50):
        cand = [rng.randint(1, r) for _ in range(m)]
        if len(set(cand)) == r:
            return EdgeColoring(n, r, cand)
    cand = [rng.randint(1, r) for _ in range(m)]
    for _ in range(100):
        missing = sorted(set(range(1, r + 1)) - set(cand))
        if not missing:
            break
        for col, idx in zip(missing, rng.sample(range(m), len(missing))):
            cand[idx] = col
    if len(set(cand)) < r:
        order = list(range(m))
        rng.shuffle(order)
        for col in range(1, r + 1):
            cand[order[col - 1]] = col
    return EdgeColoring(n, r, cand)


def test_random_surjective_draws_match_randint_and_leave_the_same_rng_state():
    # randint rejects half of all words when r is a power of two and a
    # quarter at r = 3; r = m takes the repair path from n = 5 on
    for n in (2, 3, 5, 7, 12):
        m = comb(n, 2)
        for r in sorted({1, 2, 3, 4, 5, 8, 9, m}):
            if r > m:
                continue
            for seed in range(3):
                ours, ref = random.Random(seed), random.Random(seed)
                expected = randint_reference_coloring(n, r, ref)
                assert random_surjective_coloring(n, r, ours) == expected, (n, r, seed)
                assert ours.getstate() == ref.getstate(), (n, r, seed)
    # 9000 colors take three rounds of at most 4096 words, or more
    for r in (1, 2, 3, 7, 2**16 + 1, 2**31 + 5, 2**32 - 1):
        ours, ref = random.Random(r), random.Random(r)
        assert verify._uniform_colors(r, 9000, ours) == [ref.randint(1, r) for _ in range(9000)]
        assert ours.getstate() == ref.getstate(), r


def test_random_surjective_rejects_bad_parameters():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        random_surjective_coloring(1, 1, rng)
    with pytest.raises(ValueError):
        random_surjective_coloring(4, 7, rng)


def test_exhaustive_enumerations_have_known_sizes():
    assert sum(1 for _ in iter_surjective_colorings(3, 2)) == 2 ** 3 - 2
    assert sum(1 for _ in iter_surjective_colorings(3, 3)) == 6
    # first edge pinned to color 1: one 2-coloring per color swap
    pinned = [c for c in iter_surjective_colorings(4, 2) if c.color_sequence[0] == 1]
    assert len(pinned) == 2 ** 5 - 1
    for c in iter_surjective_colorings(3, 2):
        assert validate(c) == []


# ----------------------------------------------------------- bridge finding


def naive_bridges(n, edges):
    """Oracle: an edge is a bridge iff removing it splits its component."""
    def adj_of(pairs):
        adj = [0] * n
        for u, v in pairs:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    def component_count(pairs):
        adj = adj_of(pairs)
        seen = 0
        comps = 0
        for start in range(n):
            if seen >> start & 1:
                continue
            comps += 1
            frontier = 1 << start
            reach = frontier
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    b = f & -f
                    f ^= b
                    nxt |= adj[b.bit_length() - 1]
                frontier = nxt & ~reach
                reach |= frontier
            seen |= reach
        return comps

    base = component_count(edges)
    return sorted(
        e for e in edges if component_count([x for x in edges if x != e]) > base
    )


def test_bridges_match_naive_oracle():
    rng = random.Random(17)
    outcomes = []
    for _ in range(300):
        n = rng.randint(2, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.5]
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if _connected_bitadj(n, adj):
            outcomes.append(_has_bridge(n, adj))
            assert outcomes[-1] == bool(naive_bridges(n, edges))
    assert len(outcomes) >= 100
    assert set(outcomes) == {False, True}


def test_connectivity_helper():
    adj = [0b0110, 0b0001, 0b0001, 0]  # path 1-0-2, vertex 3 isolated
    assert not _connected_bitadj(4, adj)
    adj = [0b1110, 0b0001, 0b0001, 0b0001]  # star at 0
    assert _connected_bitadj(4, adj)


# ---------------------------------------------------------------- campaigns


def test_campaign_worstcase_small_scale_passes():
    report = campaign_worstcase(max_n=5, samples_per_cell=10, seed=1)
    assert report.passed
    assert report.instances > 0
    # the n=4 cells carry the exhaustive maxima
    by_cell = {(cell["n"], cell["r"]): cell for cell in report.cells}
    assert by_cell[(4, 2)]["max_observed"] == 2
    for r in range(3, 7):
        assert by_cell[(4, r)]["expected"] == 1
    assert report.revalidate()


def test_campaign_worstcase_guard():
    with pytest.raises(SizeGuardError):
        campaign_worstcase(max_n=11)


def test_campaign_constructive_guard():
    with pytest.raises(SizeGuardError, match=re.escape("campaign guard: max_n=13 > 12")):
        campaign_constructive(max_n=13)


def test_campaign_worstcase_cells_count_their_own_failures(monkeypatch):
    def overcounting_solve(c):
        result = solve(c)
        if (c.n, c.r) == (4, 3):
            return dataclasses.replace(result, count=result.count + 1)
        return result

    monkeypatch.setattr(verify, "solve", overcounting_solve)
    report = campaign_worstcase(max_n=5, samples_per_cell=10, seed=1)
    assert not report.passed
    for cell in report.cells:
        records = [f for f in report.failures if (f["n"], f["r"]) == (cell["n"], cell["r"])]
        assert cell["failures"] == len(records)
    assert [(cell["n"], cell["r"]) for cell in report.cells if cell["failures"]] == [(4, 3)]
    assert sum(cell["instances"] for cell in report.cells) == report.instances
    # every record replays: the exhaustive maximum carries the first coloring
    # that reaches it
    for f in report.failures:
        c = parse_coloring(f["coloring"])
        assert validate(c) == [] and (c.n, c.r) == (f["n"], f["r"])
    (record,) = [f for f in report.failures if f["kind"] == "exhaustive-max"]
    assert parse_coloring(record["coloring"]) == next(iter_surjective_colorings(4, 3))


@pytest.mark.parametrize("campaign, kwargs, name", [
    (campaign_worstcase, {"max_n": 2}, "max_n"),
    (campaign_cutedge, {"max_n": 2}, "max_n"),
    (campaign_constructive, {"max_n": 2}, "max_n"),
    (campaign_worstcase, {"samples_per_cell": -1}, "samples_per_cell"),
    (campaign_monotonicity, {"trials": -1}, "trials"),
    (campaign_monotonicity, {"trials": 0}, "trials"),
    (campaign_constructive, {"samples": -1}, "samples"),
])
def test_campaigns_reject_a_size_that_runs_nothing(campaign, kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be at least"):
        campaign(**kwargs)


def test_campaign_worstcase_witnesses_include_the_6_5_cell():
    report = campaign_worstcase(max_n=6, samples_per_cell=5, seed=42)
    assert report.passed
    hits = [w for w in report.witnesses if w["n"] == 6 and w["r"] == 5]
    assert hits and hits[0]["value"] == 2


def test_exhaustive_maxima_on_k3():
    from rainbowtrees import partition_number, solve

    for r, expected in ((2, 1), (3, 1)):
        worst = max(solve(c).count for c in iter_surjective_colorings(3, r))
        assert worst == expected == partition_number(3, r)


def test_campaign_monotonicity_passes():
    report = campaign_monotonicity(trials=60, seed=2)
    assert report.passed
    assert report.instances == 60


def test_campaign_cutedge_small():
    report = campaign_cutedge(max_n=5)
    assert report.passed
    assert [w["n"] for w in report.witnesses] == [3, 4, 5]
    assert report.revalidate()
    cells = {cell["n"]: cell for cell in report.cells}
    # labeled connected graph counts
    assert cells[3]["connected"] == 4
    assert cells[4]["connected"] == 38
    assert cells[5]["connected"] == 728
    with pytest.raises(SizeGuardError):
        campaign_cutedge(max_n=8)


def full_cutedge_walk(max_n):
    """Oracle: the cut-edge campaign over all 2^C(n,2) labeled graphs, with
    the naive bridge test; returns its (cells, witnesses, instances)."""
    cells, witnesses, instances = [], [], 0
    for n in range(3, max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        bound = comb(n - 1, 2) + 1
        connected = checked_above = failures = 0
        witness = None
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            adj = [0] * n
            for u, v in edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            if not _connected_bitadj(n, adj):
                continue
            connected += 1
            if len(edges) > bound:
                checked_above += 1
                failures += bool(naive_bridges(n, edges))
            elif len(edges) == bound and witness is None and naive_bridges(n, edges):
                witness = [list(e) for e in edges]
        instances += connected
        witnesses.append({"kind": "cutedge-tight", "n": n, "bound": bound, "edges": witness})
        cells.append({"n": n, "connected": connected, "bound": bound,
                      "checked_above_bound": checked_above, "failures": failures})
    return cells, witnesses, instances


def test_campaign_cutedge_matches_the_full_walk():
    report = campaign_cutedge(max_n=6)
    assert (report.cells, report.witnesses, report.instances) == full_cutedge_walk(6)


def test_campaign_constructive_small():
    report = campaign_constructive(max_n=6, samples=25, seed=3)
    assert report.passed
    modes = {cell["mode"] for cell in report.cells}
    assert modes == {"exhaustive", "exhaustive-r2", "random"}
    # an exhaustive cell enumerates the colorings of one (n, r), and says which
    exhaustive = [(cell["n"], cell["r"]) for cell in report.cells if cell["mode"] != "random"]
    assert exhaustive == [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (4, 5), (4, 6), (5, 2)]
    assert not any("r" in cell for cell in report.cells if cell["mode"] == "random")
    assert report.revalidate()


def test_seeded_reports_match_their_golden_digests():
    # sha256 of to_json() for seeded runs; a refactor that changes any cell,
    # witness or failure record of these reports breaks one of them
    digests = [
        hashlib.sha256(report.to_json().encode()).hexdigest()
        for report in (
            campaign_worstcase(max_n=5, samples_per_cell=10, seed=1),
            campaign_monotonicity(trials=40, seed=11),
            campaign_cutedge(max_n=6),
            campaign_constructive(max_n=6, samples=25, seed=3),
        )
    ]
    assert digests == [
        "eb0975443c7ae69abd3462ce2b52e42ad3de2605b59ac64d292082e6fa947900",
        "6d9b9b2ce70b87c1917dd7dd7c332859ce8d246ed1bc2c2eb2a1e758a65428c0",
        "765e7afdcca1816cfeefd8c6bb7e8fb184b94e0c19e13a6dd6277a52a14a018d",
        "f34ab3bcc73c80212e6c6e449b8155e2b286e3a711ba52ac5d27f4c65ef70b5e",
    ]


def test_campaigns_are_deterministic():
    a = campaign_worstcase(max_n=4, samples_per_cell=15, seed=7)
    b = campaign_worstcase(max_n=4, samples_per_cell=15, seed=7)
    assert a.to_json() == b.to_json()
    c = campaign_monotonicity(trials=40, seed=11)
    d = campaign_monotonicity(trials=40, seed=11)
    assert c.to_json() == d.to_json()


# ------------------------------------------------------------------- report


def test_report_round_trips_losslessly():
    report = campaign_cutedge(max_n=4)
    again = VerificationReport.from_json(report.to_json())
    assert again == dataclasses.replace(report, elapsed=0.0)
    assert again.revalidate()


def test_report_from_json_rejects_json_that_is_not_a_report():
    text = campaign_cutedge(max_n=4).to_json()
    with pytest.raises(ValueError, match="a report is a JSON object, got list"):
        VerificationReport.from_json("[1, 2]")
    data = json.loads(text)
    del data["cells"], data["instances"]
    missing = r"missing fields \['cells', 'instances'\], unknown fields \[\]"
    with pytest.raises(ValueError, match=missing):
        VerificationReport.from_json(json.dumps(data))
    data = dict(json.loads(text), extra=1)
    with pytest.raises(ValueError, match=r"missing fields \[\], unknown fields \['extra'\]"):
        VerificationReport.from_json(json.dumps(data))
    # elapsed is optional: to_json leaves it out, and a given value is kept
    data = dict(json.loads(text), elapsed=1.5)
    assert VerificationReport.from_json(json.dumps(data)).elapsed == 1.5


def test_report_text_form():
    report = campaign_monotonicity(trials=5, seed=0)
    text = report.to_text()
    assert text.startswith("campaign monotonicity\n")
    assert "result PASS" in text
    assert "instances 5" in text


def test_report_text_lists_each_witness_without_its_coloring():
    report = campaign_constructive(max_n=3, samples=0)
    lines = report.to_text().splitlines()
    witness_lines = [line for line in lines if line.startswith("witness ")]
    assert witness_lines == ["witness kind=constructive-extremal n=3 r=2 count=1"]
    assert not any(line.startswith("  | ") for line in lines)


def test_failure_records_embed_the_instance():
    report = VerificationReport("demo", {}, 1)
    from rainbowtrees.verify import _failure
    from rainbowtrees import rainbow_complete

    report.failures.append(_failure("upper-bound", rainbow_complete(3), n=3, r=3))
    assert not report.passed
    text = report.to_text()
    assert "result FAIL" in text
    assert "  | 3 3" in text  # the embedded coloring header line
    assert "rainbowtrees solve" in report.failures[0]["repro"]


def test_witness_revalidation_catches_tampering():
    report = campaign_cutedge(max_n=4)
    assert report.revalidate()
    report.witnesses[0]["edges"] = report.witnesses[0]["edges"][:-1]
    assert not report.revalidate()
    assert not revalidate_witness({"kind": "unknown"})


def test_a_witness_that_is_not_a_dict_is_rejected_not_raised():
    for w in ("x", 3, None, ["kind"]):
        assert not revalidate_witness(w)
    report = campaign_cutedge(max_n=4)
    report.witnesses.append("x")
    assert not VerificationReport.from_json(report.to_json()).revalidate()


def test_cutedge_witness_must_record_the_true_bound():
    # a path is connected and every edge is a bridge, but 4 != C(4, 2) + 1
    path = [[0, 1], [1, 2], [2, 3], [3, 4]]
    assert not revalidate_witness({"kind": "cutedge-tight", "n": 5, "bound": 4, "edges": path})


def test_cutedge_witness_must_list_distinct_edges():
    w = campaign_cutedge(max_n=5).witnesses[-1]
    assert revalidate_witness(w)
    repeated = w["edges"][:-1] + [w["edges"][0]]
    assert not revalidate_witness(dict(w, edges=repeated))


def test_cutedge_witness_with_an_out_of_range_edge_is_rejected_not_raised():
    w = {"kind": "cutedge-tight", "n": 3, "bound": 2, "edges": [[0, 5], [1, 2]]}
    assert not revalidate_witness(w)
    for edges in ([[1, 0], [1, 2]], [[0, 1, 2], [1, 2]], [["0", 1], [1, 2]], None):
        assert not revalidate_witness(dict(w, edges=edges))
    assert not revalidate_witness(dict(w, n="3"))


def test_extremal_witness_value_must_equal_the_closed_form():
    # solve gives 2 on the first coloring and partition_complete gives 2 on
    # the second; both are below the closed form 3 for n = 8, r = 3
    assert partition_number(8, 3) == 3
    c = random_surjective_coloring(8, 3, random.Random(4))
    assert solve(c).count == 2
    w = {"kind": "canonical-extremal", "n": 8, "r": 3, "value": 2, "coloring": format_coloring(c)}
    assert not revalidate_witness(w)
    c = random_surjective_coloring(8, 3, random.Random(0))
    assert partition_complete(c).count == 2
    w = {"kind": "constructive-extremal", "n": 8, "r": 3, "count": 2,
         "coloring": format_coloring(c)}
    assert not revalidate_witness(w)


def test_extremal_witness_must_match_its_coloring():
    for report in (campaign_worstcase(max_n=3, samples_per_cell=0),
                   campaign_constructive(max_n=3, samples=0)):
        w = report.witnesses[-1]
        assert revalidate_witness(w)
        assert not revalidate_witness(dict(w, n=w["n"] + 1))
        assert not revalidate_witness(dict(w, r=w["r"] - 1))
        assert not revalidate_witness(dict(w, coloring=w["coloring"].replace("\n", "\nx", 1)))
        assert not revalidate_witness({k: v for k, v in w.items() if k != "coloring"})


def test_a_bool_in_place_of_an_int_fails_revalidation():
    one_tree = format_coloring(generate_canonical(6, 15)[0])  # count 1, and True == 1
    w = {"kind": "canonical-extremal", "n": 6, "r": 15, "value": 1, "coloring": one_tree}
    assert revalidate_witness(w) and not revalidate_witness(dict(w, value=True))
    w = {"kind": "constructive-extremal", "n": 6, "r": 15, "count": 1, "coloring": one_tree}
    assert revalidate_witness(w) and not revalidate_witness(dict(w, count=True))
    w = {"kind": "canonical-extremal", "n": 1, "r": 0, "value": 1, "coloring": "1 0\n"}
    assert revalidate_witness(w) and not revalidate_witness(dict(w, n=True, r=False))
    w = {"kind": "cutedge-tight", "n": 3, "bound": 2, "edges": [[0, 1], [1, 2]]}
    assert revalidate_witness(w)
    assert not revalidate_witness(dict(w, edges=[[False, True], [1, 2]]))
    w = {"kind": "cutedge-tight", "n": 2, "bound": 1, "edges": [[0, 1]]}
    assert revalidate_witness(w) and not revalidate_witness(dict(w, bound=True))


# ------------------------------------------------------------- failure records


def test_a_merge_that_lowers_the_count_is_recorded_with_its_coloring(monkeypatch):
    seen = []

    def count_colors(c):
        seen.append(c)
        return types.SimpleNamespace(count=c.r)

    monkeypatch.setattr(verify, "solve", count_colors)
    report = campaign_monotonicity(trials=1, seed=0)
    [f] = report.failures
    c, merged = seen
    assert f["kind"] == "merge-monotonicity"
    assert (f["n"], f["r"], f["before"], f["after"]) == (c.n, c.r, c.r, c.r - 1)
    assert merged == merge_colors(c, f["src"], f["dst"])
    assert parse_coloring(f["coloring"]) == c
    assert report.cells == [{"trials": 1, "failures": 1}]


def test_a_bridged_graph_above_the_bound_is_recorded(monkeypatch):
    monkeypatch.setattr(verify, "_has_bridge", lambda n, adj: True)
    report = campaign_cutedge(max_n=3)
    # K_3 is the one graph on 3 vertices above the bound C(2, 2) + 1 = 2
    assert report.failures == [{"kind": "cutedge-bound", "n": 3, "edges": 3, "bound": 2,
                                "mask": 0b111}]
    assert report.cells[0]["failures"] == 1 and len(report.witnesses) == 1


def test_a_bound_with_no_bridged_graph_is_recorded(monkeypatch):
    monkeypatch.setattr(verify, "_has_bridge", lambda n, adj: False)
    report = campaign_cutedge(max_n=3)
    assert report.failures == [{"kind": "cutedge-no-witness", "n": 3, "bound": 2}]
    assert report.witnesses == [] and not report.passed


def test_a_construction_defect_is_recorded_with_its_coloring(monkeypatch):
    seen = []

    def defective(c, trace=None):
        seen.append(c)
        raise ConstructionDefect("forced for the test", instance_text=format_coloring(c))

    monkeypatch.setattr(verify, "partition_complete", defective)
    report = campaign_constructive(max_n=3, samples=0)
    assert len(report.failures) == len(seen) == 12  # the 6 + 6 surjective colorings of K_3
    for f, c in zip(report.failures, seen):
        assert (f["kind"], f["n"], f["r"]) == ("construction-defect", 3, c.r)
        assert f["detail"] == "forced for the test"
        assert parse_coloring(f["coloring"]) == c
    assert [cell["max_swaps"] for cell in report.cells] == [0, 0]


def test_a_partition_below_the_exact_optimum_is_recorded_with_its_coloring(monkeypatch):
    seen = []

    def above_every_partition(c):
        seen.append(c)
        return types.SimpleNamespace(count=c.n + 1)

    monkeypatch.setattr(verify, "solve", above_every_partition)
    report = campaign_constructive(max_n=3, samples=0)
    assert len(report.failures) == len(seen) == 12
    for f, c in zip(report.failures, seen):
        assert (f["kind"], f["n"], f["r"], f["exact"]) == ("below-optimum", 3, c.r, 4)
        assert f["observed"] == partition_complete(c).count
        assert parse_coloring(f["coloring"]) == c
    assert report.witnesses == []
