import dataclasses
import hashlib
import random

import pytest
from itertools import combinations
from math import comb

from rainbowtrees import (
    ConstructionDefect,
    EdgeColoring,
    SizeGuardError,
    Tree,
    TreePartition,
    format_coloring,
    format_partition,
    generate_canonical,
    is_partition_valid,
    max_rainbow_forest,
    merge_colors,
    monochromatic_complete,
    parse_coloring,
    partition_complete,
    partition_number,
    rainbow_complete,
    random_surjective_coloring,
    solve,
    solve_bruteforce,
)
from rainbowtrees import solver
from rainbowtrees.rainbow import _max_common_set
from rainbowtrees.unionfind import UnionFind, mask_component


def test_monochromatic_k3_needs_two_trees():
    res = solve(monochromatic_complete(3))
    assert res.count == 2
    ok, why = is_partition_valid(monochromatic_complete(3), res.partition)
    assert ok, why


def test_canonical_frozen_counts():
    assert solve(generate_canonical(4, 3)[0]).count == 1
    assert solve(generate_canonical(5, 3)[0]).count == 2
    assert solve(generate_canonical(6, 5)[0]).count == 2


def test_monochromatic_matching_base_case():
    for n in range(1, 11):
        res = solve(monochromatic_complete(n))
        assert res.count == (n + 1) // 2
        ok, why = is_partition_valid(monochromatic_complete(n), res.partition)
        assert ok, why


def test_rainbow_complete_is_one_tree():
    for n in range(2, 8):
        assert solve(rainbow_complete(n)).count == 1


def test_bruteforce_frozen_examples():
    assert solve_bruteforce(rainbow_complete(5)) == 1
    assert solve_bruteforce(monochromatic_complete(4)) == 2
    assert solve_bruteforce(generate_canonical(6, 5)[0]) == 2


def test_solver_guard_and_validation():
    with pytest.raises(SizeGuardError):
        solve(monochromatic_complete(6), max_n=5)
    with pytest.raises(SizeGuardError):
        solve_bruteforce(monochromatic_complete(8))
    # a coloring that misses a color is refused when it is built, so solve never sees one
    with pytest.raises(ValueError, match=r"^invalid coloring: MissingColor\(3,\)$"):
        EdgeColoring(3, 3, {(0, 1): 1, (0, 2): 1, (1, 2): 2})


def test_solve_agrees_with_bruteforce():
    rng = random.Random(20240917)
    for _ in range(250):
        n = rng.randint(2, 7)
        r = rng.randint(1, comb(n, 2))
        c = random_surjective_coloring(n, r, rng)
        assert solve(c).count == solve_bruteforce(c), format_coloring(c)


def test_solution_is_valid_and_within_bounds():
    rng = random.Random(8)
    for _ in range(150):
        n = rng.randint(2, 8)
        r = rng.randint(1, comb(n, 2))
        c = random_surjective_coloring(n, r, rng)
        res = solve(c)
        ok, why = is_partition_valid(c, res.partition)
        assert ok, why
        assert res.partition.count == res.count
        assert 1 <= res.count <= (n + 1) // 2
        assert res.count <= partition_number(n, r)


def test_merge_never_lowers_the_count():
    rng = random.Random(55)
    for _ in range(120):
        n = rng.randint(3, 6)
        r = rng.randint(2, comb(n, 2))
        c = random_surjective_coloring(n, r, rng)
        src, dst = rng.sample(range(1, r + 1), 2)
        assert solve(c).count <= solve(merge_colors(c, src, dst)).count


def max_rainbow_component_forest_edges(c):
    """Independent oracle: largest spanning forest whose every component is
    rainbow, by enumerating all edge subsets."""
    edges = c.edges()
    best = 0
    for mask in range(1 << len(edges)):
        chosen = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        if len(chosen) <= best:
            continue
        uf = UnionFind(c.n)
        if not all(uf.union(u, v) for u, v, _ in chosen):
            continue
        by_comp = {}
        ok = True
        for u, v, col in chosen:
            root = uf.find(u)
            seen = by_comp.setdefault(root, set())
            if col in seen:
                ok = False
                break
            seen.add(col)
        if ok:
            best = len(chosen)
    return best


def test_count_equals_n_minus_max_rainbow_forest_cover():
    # a partition into k rainbow trees is a spanning forest with n-k edges
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 6)
        r = rng.randint(1, comb(n, 2))
        c = random_surjective_coloring(n, r, rng)
        assert solve(c).count == n - max_rainbow_component_forest_edges(c)


def test_degenerate_single_vertex():
    c = EdgeColoring(1, 0, {})
    res = solve(c)
    assert res.count == 1
    assert format_partition(res.partition) == "tree 0 ; edges\n"
    # the whole-set check decides the one block, with an intersection on no edges
    assert res.stats["feasibility_checks"] == res.stats["intersections"] == 1
    assert solve_bruteforce(c) == 1


def test_reconstruction_is_deterministic():
    c, _ = generate_canonical(6, 4)
    a = solve(c).partition
    b = solve(c).partition
    assert a == b


def test_reconstruction_prefers_smallest_block_masks():
    # monochromatic K_4 has many optimal pairings; the reconstruction must
    # pick blocks {0,1} and {2,3}
    res = solve(monochromatic_complete(4))
    assert [sorted(t.vertices) for t in res.partition.trees] == [[0, 1], [2, 3]]


def test_max_n_has_a_ceiling_checked_before_the_block_table(monkeypatch):
    # max_n above the ceiling is a bad argument and n above max_n a guard
    # hit; neither builds the 2^n-byte table
    def no_table(c, cap, stats):
        raise MemoryError("the block table was built")

    monkeypatch.setattr(solver, "_block_table", no_table)
    ceiling = solver._MAX_N_CEILING
    c = generate_canonical(40, 12)[0]
    for max_n in (ceiling + 1, 40):
        with pytest.raises(ValueError, match=f"^max_n must be an int in 1..{ceiling}, got {max_n}$"):
            solve(c, max_n=max_n)
    with pytest.raises(SizeGuardError, match=f"^n=40 exceeds solver guard {ceiling}$"):
        solve(c, max_n=ceiling)


def test_stats_are_reported():
    stats = solve(generate_canonical(6, 3)[0]).stats
    assert stats["feasibility_checks"] > 0
    assert stats["masks"] > 0
    assert "cache_hits" in stats
    assert 0 <= stats["intersections"] <= stats["feasibility_checks"]


def assert_replayable(info, c):
    """The self-check failure is a ConstructionDefect that carries c's file."""
    assert info.type is ConstructionDefect
    assert parse_coloring(info.value.instance_text) == c


def test_solve_rejects_an_invalid_witness(monkeypatch):
    def one_edge_short(tree):
        return tuple(tree)[1:]

    # one whole-graph tree, printed from the whole-set check
    c = rainbow_complete(4)
    real_block = solver._block_feasible
    monkeypatch.setattr(solver, "_block_feasible",
                        lambda items, need, stats: one_edge_short(real_block(items, need, stats)))
    with pytest.raises(RuntimeError, match="not a rainbow tree partition") as info:
        solve(c)
    assert_replayable(info, c)
    monkeypatch.undo()

    # a partition found by the subset DP, its trees read from max_rainbow_forest
    real_forest = solver.max_rainbow_forest
    monkeypatch.setattr(solver, "max_rainbow_forest",
                        lambda c, within: one_edge_short(real_forest(c, within)))
    c = generate_canonical(6, 4)[0]
    with pytest.raises(RuntimeError, match="not a rainbow tree partition") as info:
        solve(c)
    assert_replayable(info, c)


def test_solve_rejects_a_witness_with_the_wrong_tree_count(monkeypatch):
    # monochromatic K_4 needs two trees; the witness loses its first one
    monkeypatch.setattr(solver, "TreePartition", lambda trees: TreePartition(trees[1:]))
    with pytest.raises(RuntimeError, match="^witness has 1 trees, dp count is 2$") as info:
        solve(monochromatic_complete(4))
    assert_replayable(info, monochromatic_complete(4))


class _EndsAllSet(bytearray):
    """A block table whose odd half, read as one slice into ends, marks every
    block that holds vertex 0 feasible; each entry read alone is the true one."""

    def __getitem__(self, key):
        if key == slice(1, None, 2):
            return bytearray(b"\x01") * (len(self) // 2)
        return super().__getitem__(key)


def test_solve_rejects_levels_that_stop_too_early(monkeypatch):
    # ends with every bit set stops the level loop at its first level,
    # count 2, but a monochromatic K_6 needs 3 trees: no feasible block
    # (a vertex or an edge) leaves a feasible rest of 4 or 5 vertices
    block_table = solver._block_table

    def lying_table(c, cap, stats):
        feas, colors = block_table(c, cap, stats)
        return _EndsAllSet(feas), colors

    monkeypatch.setattr(solver, "_block_table", lying_table)
    with pytest.raises(RuntimeError, match="^dp levels are inconsistent at mask 0x3f$") as info:
        solve(monochromatic_complete(6))
    assert_replayable(info, monochromatic_complete(6))


def test_solve_result_is_immutable():
    res = solve(generate_canonical(6, 4)[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.count = 0
    with pytest.raises(TypeError):
        res.stats["masks"] = 0
    assert res.count == 2 and res.stats["masks"] > 0


def submask_dp_reference(c):
    """An O(3^n) submask DP, independent of solve()'s level sets, as oracle:
    subset feasibility decided lazily and cached, the block holding the
    lowest uncovered vertex enumerated per mask, and the witness read back
    by ascending submasks.  Returns the count, the partition and the number
    of distinct masks whose feasibility was decided.
    """
    n = c.n
    if n == 1:
        return 1, TreePartition((Tree.make([0]),)), 0
    full = (1 << n) - 1
    cap = c.r + 1
    feas = {}

    def vertices(mask):
        return [i for i in range(n) if mask >> i & 1]

    def feasible(mask):
        if mask not in feas:
            vs = vertices(mask)
            feas[mask] = len(max_rainbow_forest(c, vs)) == len(vs) - 1
        return feas[mask]

    def tree(mask):
        vs = vertices(mask)
        return Tree.make(vs, [e[:2] for e in max_rainbow_forest(c, vs)] if len(vs) > 1 else ())

    if feasible(full):
        return 1, TreePartition((tree(full),)), len(feas)
    inf = n + 1
    dp = [inf] * (full + 1)
    dp[0] = 0
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        sub = rest
        while True:
            block = sub | low
            cand = dp[mask ^ block] + 1
            if cand < dp[mask] and block.bit_count() <= cap and feasible(block):
                dp[mask] = cand
            if sub == 0:
                break
            sub = (sub - 1) & rest
    blocks = []
    mask = full
    while mask:
        low = mask & -mask
        rest = mask ^ low
        sub = 0
        while True:
            block = sub | low
            if (dp[mask ^ block] + 1 == dp[mask] and block.bit_count() <= cap
                    and feasible(block)):
                break
            if sub == rest:
                raise AssertionError(f"dp table is inconsistent at mask {mask:#x}")
            sub = (sub - rest) & rest
        blocks.append(block)
        mask ^= block
    return dp[full], TreePartition(tuple(tree(b) for b in blocks)), len(feas)


def unpruned_level_dp(c):
    """solve()'s level phase without the prune, as oracle: on solve()'s own
    block table, every block of at most r + 1 vertices is walked on every
    level, the stop test scans every feasible block holding vertex 0, and
    the witness is read back by ascending submasks.  Returns the count, the
    partition, the block shifts and the blocks walked."""
    n, cap = c.n, c.r + 1
    full = (1 << n) - 1

    def tree(mask):
        vs = [i for i in range(n) if mask >> i & 1]
        return Tree.make(vs, [e[:2] for e in max_rainbow_forest(c, vs)] if len(vs) > 1 else ())

    if len(max_rainbow_forest(c, range(n))) == n - 1:
        return 1, TreePartition((tree(full),)), 0, 0
    feas, _ = solver._block_table(c, cap, {"feasibility_checks": 0, "intersections": 0, "rejects": 0})
    every = (1 << (full + 1)) - 1
    keep = [every // ((1 << (2 << v)) - 1) * ((1 << (1 << v)) - 1) for v in range(n)]
    shifts = walked = 0

    def next_level(level):
        nonlocal shifts, walked
        out = level
        stack = [(0, level, 0, cap)]
        while stack:
            block, part, start, room = stack.pop()
            for v in range(start, n):
                walked += 1
                sub = part & keep[v]
                grown = block | 1 << v
                if feas[grown]:
                    out |= sub << grown
                    shifts += 1
                if room > 1:
                    stack.append((grown, sub, v + 1, room - 1))
        return out

    levels = [1]
    while not any(feas[b] and levels[-1] >> (full ^ b) & 1 for b in range(1, full, 2)):
        levels.append(next_level(levels[-1]))
    blocks = []
    mask = full
    for rest_level in reversed(levels):
        low = mask & -mask
        rest = mask ^ low
        sub = 0
        while not (feas[sub | low] and rest_level >> (mask ^ (sub | low)) & 1):
            if sub == rest:
                raise AssertionError(f"dp levels are inconsistent at mask {mask:#x}")
            sub = (sub - rest) & rest
        blocks.append(sub | low)
        mask ^= sub | low
    return len(levels), TreePartition(tuple(tree(b) for b in blocks)), shifts, walked


def random_subgraph_coloring(n, r, keep, rng, isolated=()):
    """A surjective r-coloring of a random subgraph of K_n keeping about a
    `keep` share of the edges (at least r of them), none of them at a vertex
    in `isolated`."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if u not in isolated and v not in isolated]
    rng.shuffle(pairs)
    kept = pairs[:max(r, round(keep * len(pairs)))]
    cols = list(range(1, r + 1)) + [rng.randint(1, r) for _ in kept[r:]]
    return EdgeColoring(n, r, dict(zip(kept, cols)))


def test_sparse_colorings_survive_a_file_round_trip():
    # a file too short to list K_n is read into a dict, a longer one into a
    # list of all C(n, 2) colors that turns out to have gaps: both are met
    rng = random.Random(2718)
    short = long = 0
    for n, r, keep in ((6, 3, 0.4), (9, 4, 0.5), (10, 6, 0.7), (12, 5, 0.9), (13, 8, 0.95)):
        c = random_subgraph_coloring(n, r, keep, rng)
        text = format_coloring(c)
        assert not c.complete and parse_coloring(text) == c
        short += len(text) < 5 * comb(n, 2)
        long += len(text) >= 5 * comb(n, 2)
    assert short and long


def test_level_dp_matches_the_submask_dp_reference():
    rng = random.Random(3141)
    cases = [
        monochromatic_complete(2),
        # a non-complete graph: two disjoint edges, and random subgraphs
        EdgeColoring(4, 2, {(0, 1): 1, (2, 3): 2}),
        random_subgraph_coloring(9, 4, 0.5, rng),
        random_subgraph_coloring(10, 6, 0.7, rng),
    ]
    # n <= r + 1 with no rainbow spanning tree on all n vertices: the DP
    # runs with every subset under the block-size cap
    for n, r in ((5, 4), (6, 5)):
        c = generate_canonical(n, r)[0]
        assert n <= r + 1 and partition_number(n, r) > 1
        cases.append(c)
    for n in range(8, 12):
        for r in (2, 3, 5):
            cases.append(generate_canonical(n, r)[0])
        for r in (1, 2, 4, rng.randint(5, n)):
            cases.append(random_surjective_coloring(n, r, rng))
    for c in cases:
        count, partition, checks = submask_dp_reference(c)
        res = solve(c)
        assert res.count == count, format_coloring(c)
        assert format_partition(res.partition) == format_partition(partition), format_coloring(c)
        assert res.stats["feasibility_checks"] == checks, format_coloring(c)


def assert_pruned_walk_matches_the_unpruned_walk(c):
    count, partition, shifts, walked = unpruned_level_dp(c)
    res = solve(c)
    assert res.count == count, format_coloring(c)
    assert format_partition(res.partition) == format_partition(partition), format_coloring(c)
    assert res.stats["masks"] == shifts, format_coloring(c)
    assert 0 <= res.stats["blocks_walked"] <= walked, format_coloring(c)
    return res


def test_pruned_level_walk_matches_the_unpruned_walk():
    rng = random.Random(1729)
    for n in range(8, 14):
        for r in (2, 3, 5):
            assert_pruned_walk_matches_the_unpruned_walk(generate_canonical(n, r)[0])
        for r in (1, 2, 4, rng.randint(5, n)):
            assert_pruned_walk_matches_the_unpruned_walk(random_surjective_coloring(n, r, rng))


def test_pruned_level_walk_on_sparse_subgraphs():
    # most blocks of a sparse subgraph are infeasible, so most are pruned
    rng = random.Random(1730)
    for n, r, keep in ((8, 3, 0.3), (9, 4, 0.25), (10, 5, 0.3), (11, 4, 0.2), (12, 6, 0.25)):
        res = assert_pruned_walk_matches_the_unpruned_walk(random_subgraph_coloring(n, r, keep, rng))
        assert res.count > 1


def test_solve_matches_both_oracles_at_the_half_split_and_the_top_vertex():
    # the block table reads each vertex's colors from two tables split at
    # h = n // 2, and each level is walked truncated below a top vertex t:
    # an isolated vertex n - 1, h - 1 or h leaves its rows all zero, n = 2
    # and 3 have h = 1, and n = 14 has the widest tables.  The levels run on
    # vertices 1..n-1 and the first block holds vertex 0, so an isolated
    # vertex 0 is a first block of one vertex (n = 2 has no such coloring:
    # its one edge is at vertex 0, and K_2 is one tree before any level)
    rng = random.Random(4242)
    cases = [monochromatic_complete(2), monochromatic_complete(3), rainbow_complete(3)]
    cases += [EdgeColoring(3, 1, {e: 1}) for e in ((0, 1), (0, 2), (1, 2))]
    for n in (9, 10, 11, 12):
        h = n // 2
        for x in (n - 1, h - 1, h):
            for r, keep in ((2, 0.5), (4, 0.8)):
                cases.append(random_subgraph_coloring(n, r, keep, rng, isolated=(x,)))
    cases.append(random_subgraph_coloring(14, 3, 0.6, rng, isolated=(7,)))
    for n in range(3, 12):
        for r, keep in ((2, 0.5), (4, 0.8)):
            cases.append(random_subgraph_coloring(n, min(r, comb(n - 1, 2)), keep, rng,
                                                  isolated=(0,)))
    for c in cases:
        if c.n <= 12:
            assert_block_table_matches_intersections(c)
        count, partition, checks = submask_dp_reference(c)
        res = assert_pruned_walk_matches_the_unpruned_walk(c)
        assert res.count == count, format_coloring(c)
        assert format_partition(res.partition) == format_partition(partition), format_coloring(c)
        assert res.stats["feasibility_checks"] == checks, format_coloring(c)


def test_pruned_level_walk_stops_at_count_two_and_at_half_of_n():
    # the first level that can hold the full set, and the last one
    for n in (8, 11, 13):
        r = min(k for k in range(2, comb(n, 2)) if partition_number(n, k) == 2)
        assert assert_pruned_walk_matches_the_unpruned_walk(generate_canonical(n, r)[0]).count == 2
        c = monochromatic_complete(n)
        assert assert_pruned_walk_matches_the_unpruned_walk(c).count == (n + 1) // 2


def test_pruned_level_walk_skips_blocks_on_a_canonical_coloring():
    c = generate_canonical(13, 5)[0]
    _, _, _, walked = unpruned_level_dp(c)
    assert solve(c).stats["blocks_walked"] < walked


def test_block_masks_are_the_combinations_in_order():
    for n in range(1, 11):
        for size in range(1, n + 1):
            masks = solver._block_masks(n, size)
            assert masks.typecode == "I"
            assert list(masks) == [sum(1 << v for v in vs)
                                   for vs in combinations(range(n), size)], (n, size)
            assert solver._block_masks(n, size) is masks  # built once per (n, size)


def test_keep_patterns_mark_the_masks_that_miss_each_vertex():
    for n in range(1, 8):
        keep = solver._keep_patterns(n)
        assert len(keep) == n and solver._keep_patterns(n) is keep
        for v in range(n):
            assert keep[v] == sum(1 << m for m in range(1 << n) if not m >> v & 1), (n, v)


def test_cold_and_warm_tables_give_the_same_answers():
    # the n-only tables are built on first use; a sequence that switches n
    # gives the same partitions and stats whether they are rebuilt before
    # every solve or kept from the solves before
    rng = random.Random(2929)
    cases = []
    for n in (13, 6, 12, 13, 6):
        cases += [random_surjective_coloring(n, r, rng) for r in (2, 3, 5)]
        cases += [generate_canonical(n, 4)[0], monochromatic_complete(n)]

    def answers(cold):
        out = []
        for c in cases:
            if cold:
                solver._block_masks.cache_clear()
                solver._keep_patterns.cache_clear()
            res = solve(c)
            out.append((res.count, format_partition(res.partition), dict(res.stats)))
        return out

    cold = answers(cold=True)
    warm = answers(cold=False)
    assert solver._block_masks.cache_info().hits > 0
    assert solver._keep_patterns.cache_info().hits > 0
    assert cold == warm
    assert max(count for count, _, _ in warm) >= 3  # the walk and its patterns ran


def assert_block_table_matches_intersections(c):
    """Every entry of solve()'s block table equals a matroid intersection on
    the block, and the colors kept for a feasible block carry one of its
    rainbow spanning trees."""
    cap = c.r + 1
    stats = {"feasibility_checks": 0, "intersections": 0, "rejects": 0}
    feas, colors = solver._block_table(c, cap, stats)
    checks = 0
    for mask in range(1, (1 << c.n) - 1):
        vs = [i for i in range(c.n) if mask >> i & 1]
        if len(vs) > cap:
            assert not feas[mask]
            continue
        checks += 1
        spanning = len(max_rainbow_forest(c, vs)) == len(vs) - 1
        assert feas[mask] == spanning, (format_coloring(c), vs)
        if spanning:
            kept = colors[mask]
            items = [(u, v, col) for u, v, col in c.edges()
                     if u in vs and v in vs and kept >> col & 1]
            assert kept.bit_count() == len(vs) - 1, (format_coloring(c), vs)
            assert len(_max_common_set(items)) == len(vs) - 1, (format_coloring(c), vs)
    assert stats["feasibility_checks"] == checks
    assert 0 <= stats["intersections"] + stats["rejects"] <= checks
    return feas, colors, stats


def test_block_table_on_random_complete_graphs():
    rng = random.Random(2718)
    for n in range(4, 10):
        for r in range(2, n + 3):
            assert_block_table_matches_intersections(random_surjective_coloring(n, r, rng))


def test_block_table_on_random_subgraphs():
    rng = random.Random(1618)
    for n, r, keep in ((5, 2, 0.6), (6, 3, 0.5), (7, 4, 0.6), (8, 5, 0.7), (9, 3, 0.4), (9, 6, 0.8)):
        assert_block_table_matches_intersections(random_subgraph_coloring(n, r, keep, rng))


def test_block_table_falls_back_to_the_intersection(monkeypatch):
    # a K_6 whose 5-vertex block {0, 1, 2, 3, 5} has a rainbow spanning
    # tree that no leaf certificate shows: only the intersection finds it
    c = EdgeColoring(6, 5, (3, 2, 2, 3, 2, 3, 5, 2, 3, 4, 3, 2, 1, 4, 3))
    found = []
    real = solver._block_feasible

    def spy(items, need, stats):
        tree = real(items, need, stats)
        if tree is not None:
            found.append(need + 1)
        return tree

    monkeypatch.setattr(solver, "_block_feasible", spy)
    assert_block_table_matches_intersections(c)
    assert found == [5], "block {0, 1, 2, 3, 5} was not decided by the fallback"


def test_dominant_color_reject_decides_canonical_fallbacks(monkeypatch):
    # a canonical coloring sends infeasible blocks past both leaf
    # certificates and the color count; deleting its most frequent color
    # splits each of them into 3 or more components, so the table rejects
    # them with no intersection and every entry stays as before
    cases = [generate_canonical(n, r)[0] for n in range(8, 12) for r in (4, 9)]
    tables = [assert_block_table_matches_intersections(c) for c in cases]
    monkeypatch.setattr(solver, "_splits_in_three", lambda mask, other: False)
    for c, (feas, colors, stats) in zip(cases, tables):
        assert stats["rejects"] > 0, format_coloring(c)
        plain = {"feasibility_checks": 0, "intersections": 0, "rejects": 0}
        assert solver._block_table(c, c.r + 1, plain) == (feas, colors), format_coloring(c)
        assert plain["rejects"] == 0
        assert plain["intersections"] == stats["intersections"] + stats["rejects"], format_coloring(c)


def test_dominant_color_reject_keeps_a_block_with_two_components(monkeypatch):
    # color 1 is the most frequent in this K_6; without it, block
    # {0, 1, 2, 4, 5} splits into {0} and {1, 2, 4, 5}, two components, yet
    # (0,1) (1,2) (1,4) (2,5) with colors 1 4 2 5 is a rainbow spanning tree
    # that no leaf certificate shows: the reject must pass it to the fallback
    c = EdgeColoring(6, 5, (1, 1, 3, 1, 1, 4, 4, 2, 2, 1, 5, 5, 1, 5, 1))
    tested, found = {}, []
    real_split, real_feasible = solver._splits_in_three, solver._block_feasible

    def split(mask, other):
        tested[mask] = real_split(mask, other)
        return tested[mask]

    def feasible(items, need, stats):
        tree = real_feasible(items, need, stats)
        if tree is not None:
            found.append(sorted({x for u, v, _ in tree for x in (u, v)}))
        return tree

    monkeypatch.setattr(solver, "_splits_in_three", split)
    monkeypatch.setattr(solver, "_block_feasible", feasible)
    feas, _, _ = assert_block_table_matches_intersections(c)
    assert tested[0b110111] is False and feas[0b110111] == 1
    assert found == [[0, 1, 2, 4, 5]]


def test_splits_in_three_counts_components_up_to_three():
    # a path 0-1-2, a lone vertex 3 and an edge 4-5 in a graph of 6 vertices
    other = [0b10, 0b101, 0b10, 0, 0b100000, 0b10000]
    assert not solver._splits_in_three(0b000111, other)  # {0, 1, 2}
    assert not solver._splits_in_three(0b110000, other)  # {4, 5}
    assert not solver._splits_in_three(0b001111, other)  # {0, 1, 2} {3}
    assert not solver._splits_in_three(0b111000, other)  # {3} {4, 5}
    assert solver._splits_in_three(0b001101, other)  # {0} {2} {3}
    assert solver._splits_in_three(0b111111, other)  # {0, 1, 2} {3} {4, 5}


def test_mask_component_matches_union_find():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 10)
        density = rng.random()
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < density]
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        within = rng.getrandbits(n)
        for start in range(n):
            inside = within | 1 << start
            uf = UnionFind(n)
            for u, v in edges:
                if inside >> u & inside >> v & 1:
                    uf.union(u, v)
            expected = sum(1 << v for v in range(n)
                           if inside >> v & 1 and uf.find(v) == uf.find(start))
            assert mask_component(start, inside, adj) == expected, (n, edges, inside, start)


def golden_solve_cases():
    rng = random.Random(1818)
    cases = [monochromatic_complete(1), monochromatic_complete(2)]
    for n in range(3, 8):
        m = comb(n, 2)
        cases += [rainbow_complete(n), random_surjective_coloring(n, m, rng),
                  random_surjective_coloring(n, m - 1, rng)]
    cases += [generate_canonical(n, r)[0] for n in range(4, 10) for r in (2, 3, 5, 7)
              if r <= comb(n, 2)]
    cases += [random_surjective_coloring(n, r, rng) for n in range(5, 10) for r in (2, 3, 4, 6)]
    cases += [random_subgraph_coloring(n, r, keep, rng) for n in range(3, 10)
              for keep in (0.3, 0.6, 0.9) for r in (2, 4, 9) if r <= comb(n, 2)]
    cases.append(EdgeColoring(6, 5, {(i, i + 1): i + 1 for i in range(5)}))  # a rainbow path
    return cases


def golden_construct_cases():
    rng = random.Random(1819)
    cases = [monochromatic_complete(n) for n in range(1, 7)]
    cases += [generate_canonical(n, r)[0] for n in range(3, 10) for r in range(2, comb(n, 2) + 1)]
    cases += [generate_canonical(n, r)[0] for n in (60, 90) for r in (8, 12, 20)]
    cases += [random_surjective_coloring(n, r, rng) for n in (5, 8, 12, 30)
              for r in (2, 3, 5, 8) if r <= comb(n, 2)]
    return cases


def test_printed_output_matches_its_golden_digests():
    # sha256 of solve's partitions, of solve's stats, of partition_complete's
    # partitions and trace records, and of generate_canonical's colorings,
    # layouts and errors over seeded inputs.  The partition, construct and
    # canonical digests were recorded before the one-tree witness, the
    # constructive base case and the canonical placement were simplified;
    # the stats digest was re-pinned when the table gained the dominant-color
    # reject and level 1 stopped being walked, and again when the walk
    # moved to vertices 1..n-1 (blocks_walked alone); the canonical digest was
    # re-pinned when its error lines took the one argument-check message,
    # with its colorings and layouts unchanged.  A change that moves any of
    # them breaks one digest
    partitions, counters = hashlib.sha256(), hashlib.sha256()
    for c in golden_solve_cases():
        res = solve(c)
        partitions.update(format_partition(res.partition).encode())
        if c.n >= 2:
            counters.update(repr(sorted(res.stats.items())).encode())
    solved = partitions.hexdigest(), counters.hexdigest()

    digest = hashlib.sha256()
    for c in golden_construct_cases():
        trace: list = []
        digest.update(format_partition(partition_complete(c, trace=trace)).encode())
        digest.update(repr(trace).encode())
    constructed = digest.hexdigest()

    digest = hashlib.sha256()
    for n in range(3, 13):
        for r in range(1, comb(n, 2) + 2):
            for fill in (None, 1, 2, r + 1):
                try:
                    c, layout = generate_canonical(n, r, fill_color=fill)
                except (ValueError, AssertionError) as exc:
                    digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                else:
                    digest.update(format_coloring(c).encode())
                    digest.update(repr(layout).encode())
    canonical = digest.hexdigest()

    assert (solved, constructed, canonical) == (
        ("798e9e6e53b1028d52b23c2949635da862b661542d677df8cd2438737a6b9a3c",
         "54b7b5918f8849374979488a56c42a233bbdcc2c5bc9d238e75cd00a4a41cb11"),
        "7b1aaa6a32f611db2936180c4664ec696cf96bdcfbd2e540423132e0c54b27b2",
        "510267add7fe1802ef4cb46cf2540ae072ed0ef86bc9a12707fc97ffe9149588",
    )
