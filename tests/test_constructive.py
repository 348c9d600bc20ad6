import random

import pytest
from math import comb

from rainbowtrees import (
    ConstructionDefect,
    EdgeColoring,
    RepresentativeSubgraph,
    SwapMove,
    Tree,
    TreePartition,
    apply_swap,
    f_of_r,
    find_swap,
    format_coloring,
    format_partition,
    generate_canonical,
    initial_representatives,
    is_partition_valid,
    iter_two_colorings_up_to_swap,
    monochromatic_complete,
    partition_complete,
    partition_number,
    rainbow_complete,
    random_surjective_coloring,
    restrict,
    solve,
)
from rainbowtrees import constructive
from rainbowtrees.coloring import matching_trees
from rainbowtrees.unionfind import UnionFind


def test_initial_representatives_canonical_5_3():
    c, _ = generate_canonical(5, 3)
    s = initial_representatives(c)
    assert s.rep_edges == {1: (0, 1), 2: (0, 2), 3: (1, 2)}
    assert s.components == (frozenset({0, 1, 2}),)
    assert s.largest_size == 3
    assert s.component_count == 1


def test_initial_representatives_rainbow_triangle():
    s = initial_representatives(rainbow_complete(3))
    assert s.component_count == 1
    assert s.largest_size == 3


def test_initial_representatives_two_classes():
    c = EdgeColoring(
        4, 2,
        {(0, 1): 1, (2, 3): 2, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1},
    )
    s = initial_representatives(c)
    assert s.rep_edges == {1: (0, 1), 2: (2, 3)}
    assert s.component_count == 2
    assert {len(g) for g in s.components} == {2}


def test_find_swap_canonical_5_3_grows_the_triangle():
    c, _ = generate_canonical(5, 3)
    s = initial_representatives(c)
    move = find_swap(s, c)
    assert move is not None
    assert move.color == 1
    assert move.old_edge == (0, 1)
    assert move.new_edge == (0, 3)
    assert move.new_largest_size == 4
    grown = apply_swap(s, move)
    assert grown.largest_size == 4
    assert find_swap(grown, c) is None


def test_find_swap_none_on_spanning_rainbow_structure():
    c = rainbow_complete(5)
    s = initial_representatives(c)
    while (move := find_swap(s, c)) is not None:
        s = apply_swap(s, move)
    assert s.largest_size == 5
    assert find_swap(s, c) is None


def test_find_swap_breaks_the_pendant_configuration():
    # Largest component = K_3 on {0,1,2} plus pendant vertex 3 through the
    # cut-edge (2,3); second component is the edge (4,5); everything outside
    # shares the cut-edge's color.  A single reassignment of that color must
    # grow the largest component.
    colors = {
        (0, 1): 1,
        (0, 2): 2,
        (1, 2): 3,
        (2, 3): 4,
        (4, 5): 5,
    }
    for u in range(6):
        for v in range(u + 1, 6):
            colors.setdefault((u, v), 4)
    c = EdgeColoring(6, 5, colors, complete=True)
    s = RepresentativeSubgraph.from_edges(
        {1: (0, 1), 2: (0, 2), 3: (1, 2), 4: (2, 3), 5: (4, 5)}
    )
    assert s.largest_size == 4 and s.component_count == 2
    move = find_swap(s, c)
    assert move is not None
    assert move.color == 4
    assert move.new_largest_size >= 5


def test_partition_canonical_5_3():
    c, _ = generate_canonical(5, 3)
    trace = []
    p = partition_complete(c, trace)
    assert p.count == 2 == partition_number(5, 3)
    assert sorted(p.trees[0].vertices) == [0, 1, 2, 3]
    assert p.trees[1].vertices == frozenset({4})
    assert trace[0]["moves"] == 1


def test_partition_monochromatic_k6_is_a_matching():
    p = partition_complete(monochromatic_complete(6))
    assert p.count == 3
    assert all(len(t.vertices) == 2 for t in p.trees)


def test_partition_single_vertex():
    p = partition_complete(EdgeColoring(1, 0, {}))
    assert p.count == 1


def test_every_2_coloring_of_k5_needs_at_most_two_trees():
    seen = 0
    for c in iter_two_colorings_up_to_swap(5):
        p = partition_complete(c)
        assert p.count <= 2
        seen += 1
    assert seen == 2 ** 9 - 1


def test_partition_requires_complete_valid_input():
    with pytest.raises(ValueError):
        partition_complete(EdgeColoring(3, 1, {(0, 1): 1}))
    with pytest.raises(ValueError):
        partition_complete(EdgeColoring(3, 3, {(0, 1): 1, (0, 2): 1, (1, 2): 2}))


def test_partition_is_valid_and_bounded_randomized():
    rng = random.Random(1234)
    for _ in range(300):
        n = rng.randint(3, 9)
        r = rng.randint(2, comb(n, 2))
        c = random_surjective_coloring(n, r, rng)
        trace = []
        p = partition_complete(c, trace)
        ok, why = is_partition_valid(c, p)
        assert ok, why
        assert p.count <= partition_number(n, r)
        for level in trace:
            assert level["moves"] <= max(0, level["n"] - 2)


def test_local_maximum_exit_invariant():
    # at a local maximum with one component, its order is n or at least t+2
    rng = random.Random(4321)
    for _ in range(200):
        n = rng.randint(3, 8)
        r = rng.randint(2, comb(n, 2))
        c = random_surjective_coloring(n, r, rng)
        trace = []
        partition_complete(c, trace)
        for level in trace:
            if level["r"] >= 2 and level["components"] == 1:
                t = f_of_r(level["r"])
                assert level["largest"] >= min(t + 2, level["n"])


def test_surviving_colors_after_splitting_a_bridged_component():
    # when the locally maximal largest component has a cut-edge, it holds at
    # most C(n1-1,2)+1 edges, so at least r - (C(n1-1,2)+1) colors survive
    # on the complement
    from rainbowtrees import restrict
    from rainbowtrees.verify import _bridges_bitadj

    rng = random.Random(31415)
    checked = 0
    for _ in range(400):
        n = rng.randint(4, 8)
        r = rng.randint(2, comb(n, 2))
        c = random_surjective_coloring(n, r, rng)
        s = initial_representatives(c)
        while (move := find_swap(s, c)) is not None:
            s = apply_swap(s, move)
        largest = s.components[0]
        if len(largest) == c.n:
            continue
        inside = [e for e in s.rep_edges.values() if e[0] in largest and e[1] in largest]
        index = {v: i for i, v in enumerate(sorted(largest))}
        adj = [0] * len(largest)
        for u, v in inside:
            adj[index[u]] |= 1 << index[v]
            adj[index[v]] |= 1 << index[u]
        if not _bridges_bitadj(len(largest), adj):
            continue
        n1 = len(largest)
        assert len(inside) <= comb(n1 - 1, 2) + 1
        sub, _ = restrict(c, [v for v in range(c.n) if v not in largest])
        assert sub.r >= c.r - (comb(n1 - 1, 2) + 1)
        checked += 1
    assert checked > 30


def test_constructive_never_beats_the_exact_solver():
    rng = random.Random(2718)
    for _ in range(200):
        n = rng.randint(3, 7)
        r = rng.randint(2, comb(n, 2))
        c = random_surjective_coloring(n, r, rng)
        assert partition_complete(c).count >= solve(c).count


def test_constructive_matches_formula_on_canonical_instances():
    for n in range(3, 11):
        for r in range(2, comb(n, 2) + 1):
            c, _ = generate_canonical(n, r)
            assert partition_complete(c).count == partition_number(n, r), (n, r)


def test_partition_is_deterministic():
    c, _ = generate_canonical(7, 6)
    assert partition_complete(c) == partition_complete(c)


def top3_find_swap(s, c):
    """The earlier find_swap, which also tracks the three largest remaining
    components; kept as the oracle for the label-array version."""
    n1 = s.largest_size
    classes = c.color_classes()
    for color in sorted(s.rep_edges):
        h = s.rep_edges[color]
        uf = UnionFind(c.n)
        for col2, (u, v) in s.rep_edges.items():
            if col2 != color:
                uf.union(u, v)
        sizes = sorted(
            ((uf.size[root], root) for root in range(c.n) if uf.find(root) == root),
            reverse=True,
        )
        top = sizes[:3]
        for g in classes[color]:
            if g == h:
                continue
            ra, rb = uf.find(g[0]), uf.find(g[1])
            if ra == rb:
                continue
            joined = uf.size[ra] + uf.size[rb]
            others = 0
            for size, root in top:
                if root != ra and root != rb:
                    others = size
                    break
            new_n1 = max(joined, others)
            if new_n1 > n1:
                return SwapMove(color, h, g, new_n1)
    return None


def test_find_swap_agrees_with_the_top3_oracle():
    # hill-climbs from the initial and from random representatives
    rng = random.Random(8128)
    moves = 0
    for i in range(500):
        n = rng.randint(3, 12)
        r = rng.randint(2, min(comb(n, 2), 25))
        c = random_surjective_coloring(n, r, rng)
        if i % 2:
            s = initial_representatives(c)
        else:
            reps = {col: rng.choice(es) for col, es in c.color_classes().items()}
            s = RepresentativeSubgraph.from_edges(reps)
        while True:
            move = find_swap(s, c)
            assert move == top3_find_swap(s, c)
            if move is None:
                break
            s = apply_swap(s, move)
            moves += 1
    assert moves > 100


def test_find_swap_on_live_vertices_matches_the_restricted_coloring():
    # hill-climb on restrict(c, alive) and compare each step, mapped back to
    # the root's vertices and colors, with find_swap(s, c, alive)
    rng = random.Random(6174)
    moves = 0
    for i in range(300):
        n = rng.randint(3, 14)
        c = random_surjective_coloring(n, rng.randint(2, min(comb(n, 2), 25)), rng)
        alive = set(rng.sample(range(n), rng.randint(2, n)))
        sub, maps = restrict(c, alive)
        vback, cback = maps.vertices_back(), maps.colors_back()
        if i % 2:
            s = initial_representatives(sub)
        else:
            reps = {col: rng.choice(es) for col, es in sub.color_classes().items()}
            s = RepresentativeSubgraph.from_edges(reps)
        while True:
            root_s = RepresentativeSubgraph.from_edges(
                {cback[col]: (vback[u], vback[v]) for col, (u, v) in s.rep_edges.items()}
            )
            move = find_swap(s, sub)
            expected = None if move is None else SwapMove(
                cback[move.color],
                (vback[move.old_edge[0]], vback[move.old_edge[1]]),
                (vback[move.new_edge[0]], vback[move.new_edge[1]]),
                move.new_largest_size,
            )
            assert find_swap(root_s, c, alive) == expected
            assert find_swap(root_s, c, sorted(alive, reverse=True)) == expected
            if move is None:
                break
            s = apply_swap(s, move)
            moves += 1
    assert moves > 50


def test_find_swap_requires_a_complete_graph():
    c = EdgeColoring(4, 2, {(0, 1): 1, (1, 2): 2, (2, 3): 1})
    s = RepresentativeSubgraph.from_edges({1: (0, 1), 2: (1, 2)})
    with pytest.raises(ValueError):
        find_swap(s, c)


def _rep_tree(c, s):
    comp = s.components[0]
    inside = sorted((min(e), max(e)) for e in s.rep_edges.values() if e[0] in comp and e[1] in comp)
    index = {v: i for i, v in enumerate(sorted(comp))}
    uf = UnionFind(len(comp))
    picked = [(u, v, c.color_of(u, v)) for u, v in inside if uf.union(index[u], index[v])]
    return Tree.make(comp, picked)


def restrict_construct_reference(c, trace):
    """The earlier construction, which recurses on restrict(c, leftover) and
    maps each tree back; kept as the oracle for the in-place loop.  It
    hill-climbs with top3_find_swap and raises no construction defects."""
    n, r = c.n, c.r
    if n == 1:
        trace.append({"n": n, "r": r, "moves": 0, "largest": 1, "components": 0})
        return [Tree.make([0])]
    if r == 1:
        trace.append({"n": n, "r": r, "moves": 0, "largest": 2, "components": 0})
        return matching_trees(c, range(n))
    s = initial_representatives(c)
    moves = 0
    while (move := top3_find_swap(s, c)) is not None:
        s = apply_swap(s, move)
        moves += 1
    trace.append({"n": n, "r": r, "moves": moves, "largest": s.largest_size,
                  "components": s.component_count})
    out = [_rep_tree(c, s)]
    leftover = [v for v in range(n) if v not in s.components[0]]
    if not leftover:
        return out
    sub, maps = restrict(c, leftover)
    vback, cback = maps.vertices_back(), maps.colors_back()
    for tree in restrict_construct_reference(sub, trace):
        edges = [(min(vback[u], vback[v]), max(vback[u], vback[v]), cback[col])
                 for u, v, col in tree.edges]
        out.append(Tree.make([vback[v] for v in tree.vertices], edges))
    return out


def _assert_matches_reference(c):
    ref_trace, trace = [], []
    ref = TreePartition(tuple(restrict_construct_reference(c, ref_trace)))
    assert format_partition(partition_complete(c, trace)) == format_partition(ref)
    assert trace == ref_trace


def test_construct_matches_the_restrict_reference_on_random_colorings():
    # r = m stops at n = 24: each find_swap call then costs about m^2
    # unions in either version, and every rainbow K_n climbs the same way
    rng = random.Random(1729)
    for n in range(2, 41):
        m = comb(n, 2)
        rs = {1, 2, 3, m // 2} | ({m} if n <= 24 else set())
        for r in sorted(rs & set(range(1, m + 1))):
            _assert_matches_reference(random_surjective_coloring(n, r, rng))


def test_construct_matches_the_restrict_reference_on_canonical_colorings():
    for n in range(3, 31):
        m = comb(n, 2)
        for r in sorted({2, 3, n, m // 2, m} & set(range(2, m + 1))):
            _assert_matches_reference(generate_canonical(n, r)[0])


def test_defect_below_the_top_level_names_that_level(monkeypatch):
    c = random_surjective_coloring(16, 5, random.Random(5))
    trace = []
    partition_complete(c, trace)
    level = trace[1]
    assert level["r"] >= 2 and level["n"] >= 3
    real = constructive.find_swap

    def loops_below_the_top(s, cc, alive=None):
        if alive is not None and len(alive) < cc.n:
            color = min(s.rep_edges)
            h = s.rep_edges[color]
            return SwapMove(color, h, h, s.largest_size)
        return real(s, cc, alive)

    monkeypatch.setattr(constructive, "find_swap", loops_below_the_top)
    with pytest.raises(ConstructionDefect) as info:
        partition_complete(c)
    n, r = level["n"], level["r"]
    assert str(info.value) == f"hill-climb exceeded {n - 2} moves at n={n}, r={r}"
    assert info.value.instance_text == format_coloring(c)
