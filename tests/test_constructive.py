import hashlib
import json
import random
import re

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
    iter_surjective_colorings,
    monochromatic_complete,
    partition_complete,
    partition_number,
    rainbow_complete,
    random_surjective_coloring,
    restrict,
    solve,
)
from rainbowtrees import constructive
from rainbowtrees.coloring import edge_pair, matching_trees
from rainbowtrees.unionfind import UnionFind


def test_initial_representatives_canonical_5_3():
    c, _ = generate_canonical(5, 3)
    s = initial_representatives(c)
    assert s.rep_edges == {1: (0, 1), 2: (0, 2), 3: (1, 2)}
    assert s.components == (frozenset({0, 1, 2}),)
    assert s.largest_size == 3
    assert s.component_count == 1


def test_representative_edges_are_read_only():
    reps = {1: (0, 1), 2: (2, 3)}
    s = RepresentativeSubgraph.from_edges(reps)
    with pytest.raises(TypeError):
        s.rep_edges[1] = (1, 2)
    reps[1] = (1, 2)  # the caller's dict is copied, not shared
    assert s.rep_edges == {1: (0, 1), 2: (2, 3)}
    assert s == RepresentativeSubgraph.from_edges({1: (0, 1), 2: (2, 3)})


def test_a_loop_spans_its_one_vertex_and_enters_no_forest():
    s = RepresentativeSubgraph.from_edges({1: (2, 2), 2: (0, 1), 3: (1, 1)})
    assert s.components == (frozenset({0, 1}), frozenset({2}))
    assert s.forest == ((0, 1),)


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
    c = EdgeColoring(6, 5, colors)
    s = RepresentativeSubgraph.from_edges(
        {1: (0, 1), 2: (0, 2), 3: (1, 2), 4: (2, 3), 5: (4, 5)}
    )
    assert s.largest_size == 4 and s.component_count == 2
    move = find_swap(s, c)
    assert move is not None
    assert move.color == 4
    assert move.new_largest_size >= 5


def test_forest_is_the_lexicographic_kruskal_forest_of_the_representatives():
    rng = random.Random(2718)
    for _ in range(300):
        n = rng.randint(2, 12)
        c = random_surjective_coloring(n, rng.randint(1, min(comb(n, 2), 25)), rng)
        reps = {col: edge_pair(rng.choice(codes)) for col, codes in c.color_classes().items()}
        # from_edges takes either orientation of an edge
        s = RepresentativeSubgraph.from_edges(
            {col: e[::-1] if rng.random() < 0.5 else e for col, e in reps.items()})
        uf = UnionFind(n)
        assert s.forest == tuple(e for e in sorted(reps.values()) if uf.union(*e))
        uf = UnionFind(n)
        assert all(uf.union(u, v) for u, v in s.forest)  # acyclic
        for comp in s.components:
            inside = [(u, v) for u, v in s.forest if u in comp]
            assert all(v in comp for _, v in inside)
            assert len(inside) == len(comp) - 1
        assert sum(len(comp) - 1 for comp in s.components) == len(s.forest)


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
    # first edge pinned to color 1: one 2-coloring per color swap
    pinned = [c for c in iter_surjective_colorings(5, 2) if c.color_sequence[0] == 1]
    assert len(pinned) == 2 ** 9 - 1
    for c in pinned:
        assert partition_complete(c).count <= 2


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
    from rainbowtrees.verify import _has_bridge

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
        if not _has_bridge(len(largest), adj):
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
        for code in classes[color]:
            g = edge_pair(code)
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
            reps = {col: edge_pair(rng.choice(codes)) for col, codes in c.color_classes().items()}
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
            reps = {col: edge_pair(rng.choice(codes))
                    for col, codes in sub.color_classes().items()}
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


def _reads_no_edge(monkeypatch):
    def unreachable(n, u):
        raise AssertionError("find_swap read an edge row")

    def no_classes(self):
        raise AssertionError("find_swap read a color class")

    monkeypatch.setattr(constructive, "row_offset", unreachable)
    monkeypatch.setattr(EdgeColoring, "color_classes", no_classes)


def test_find_swap_returns_at_once_when_the_representatives_span_r_plus_one(monkeypatch):
    # the path 0-1-2-3 of r = 3 representatives spans r + 1 = 4 < n = 6
    # vertices; no component of three edges is larger, so no edge is read
    colors = dict.fromkeys(((u, v) for u in range(6) for v in range(u + 1, 6)), 1)
    colors.update({(1, 2): 2, (2, 3): 3})
    c = EdgeColoring(6, 3, colors)
    s = RepresentativeSubgraph.from_edges({1: (0, 1), 2: (1, 2), 3: (2, 3)})
    assert s.largest_size == len(s.rep_edges) + 1 < c.n
    assert top3_find_swap(s, c) is None
    _reads_no_edge(monkeypatch)
    assert find_swap(s, c) is None


def test_find_swap_returns_at_once_when_the_representatives_span_every_alive_vertex(monkeypatch):
    # r + 1 exceeds n': on all of the rainbow K_5, and on the live vertices
    # {0, 1, 2, 3} of a K_7 whose six colors all sit inside them
    c = rainbow_complete(5)
    s = initial_representatives(c)
    assert s.largest_size == c.n < len(s.rep_edges) + 1
    assert top3_find_swap(s, c) is None
    alive = [0, 1, 2, 3]
    colors = dict.fromkeys(((u, v) for u in range(7) for v in range(u + 1, 7)), 1)
    inside = [(u, v) for u in alive for v in alive if u < v]
    colors.update({e: i for i, e in enumerate(inside, 1)})
    big = EdgeColoring(7, 6, colors)
    on_alive = RepresentativeSubgraph.from_edges({i: e for i, e in enumerate(inside, 1)})
    assert on_alive.largest_size == len(alive) < len(on_alive.rep_edges) + 1
    sub, _ = restrict(big, alive)
    assert top3_find_swap(initial_representatives(sub), sub) is None
    _reads_no_edge(monkeypatch)
    assert find_swap(s, c) is None
    assert find_swap(on_alive, big, alive) is None


@pytest.mark.parametrize("alive, why", [
    (range(1, 8), "representative edge (0, 1) of color 1 leaves alive"),
    ([-1, *range(7)], "alive holds a vertex outside 0..7"),
    ([*range(8), 9], "alive holds a vertex outside 0..7"),
    ([*range(7), 7.0], "alive holds a vertex outside 0..7"),
    ([0, True, *range(2, 8)], "alive holds a vertex outside 0..7"),
    ([*range(8), "x"], "alive holds a vertex outside 0..7"),
    ([None, *range(8)], "alive holds a vertex outside 0..7"),
], ids=["dead-representative-end", "negative-vertex", "vertex-past-n", "float-vertex", "bool-vertex",
        "str-vertex", "none-vertex"])
def test_find_swap_rejects_an_alive_that_misses_a_representative_or_leaves_the_range(alive, why):
    c, _ = generate_canonical(8, 5)
    s = initial_representatives(c)  # spans {0, 1, 2, 3}: the search runs
    assert find_swap(s, c, range(8)) == find_swap(s, c) is not None
    with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
        find_swap(s, c, alive)


def test_an_empty_representative_subgraph_has_largest_size_zero_and_no_move():
    s = RepresentativeSubgraph.from_edges({})
    assert s.components == () and s.forest == ()
    assert s.largest_size == 0 and s.component_count == 0
    c = rainbow_complete(4)
    assert find_swap(s, c) is None
    assert find_swap(s, c, [1, 3]) is None


def _top3_on_alive(s, c, alive):
    """top3_find_swap on restrict(c, alive), mapped back to c's vertices and colors."""
    sub, maps = restrict(c, alive)
    vmap, cmap = maps.vertex_map, maps.color_map
    vback, cback = maps.vertices_back(), maps.colors_back()
    sub_s = RepresentativeSubgraph.from_edges(
        {cmap[col]: (vmap[u], vmap[v]) for col, (u, v) in s.rep_edges.items()})
    move = top3_find_swap(sub_s, sub)
    if move is None:
        return None
    (a, b), (x, y) = move.old_edge, move.new_edge
    return SwapMove(cback[move.color], (vback[a], vback[b]), (vback[x], vback[y]),
                    move.new_largest_size)


@pytest.mark.parametrize("n, reps, color_1, dead, expected", [
    # B = {3, 4, 5} (the path 3-4-5) and {6, 7}; dropping color 1's (6, 7)
    # leaves parts {6} and {7}, so both the column pair (1, 4) and the row
    # edge (3, 6) of B join 1 + 3 > n1 = 3: the column pair comes first
    (9, {1: (6, 7), 2: (3, 4), 3: (4, 5)}, [(1, 4), (3, 6)], {8}, (1, 4)),
    # row 3 of B reaches only the dead vertex 8, and the column pair (2, 4)
    # starts at the dead vertex 2: the first live candidate is (4, 6)
    (9, {1: (6, 7), 2: (3, 4), 3: (4, 5)}, [(2, 4), (3, 8), (4, 6)], {2, 8}, (4, 6)),
    # B = {3, 5, 6} (the path 3-5-6) and {7, 8}; row 4 is not in B and lies
    # between the rows 3 and 5 of B, so the class walk jumps from (4, 9) to
    # row 5 after (3, 6), which stays inside one part
    (11, {1: (7, 8), 2: (3, 5), 3: (5, 6)}, [(3, 6), (4, 9), (5, 7)], {10}, (5, 7)),
], ids=["column-pair-first", "dead-ends-skipped", "row-outside-B-jumped"])
def test_find_swap_reads_column_pairs_and_rows_of_b_in_lexicographic_order(
        n, reps, color_1, dead, expected):
    # color 1 holds its representative, the second component of B, and the
    # listed edges; every other edge has color 3, which is scanned last
    colors = dict.fromkeys(((u, v) for u in range(n) for v in range(u + 1, n)), 3)
    colors.update({e: 1 for e in [reps[1], *color_1]})
    colors[reps[2]] = 2
    c = EdgeColoring(n, 3, colors)
    s = RepresentativeSubgraph.from_edges(reps)
    assert [len(g) for g in s.components] == [3, 2]  # n1 = 3: both are in B
    alive = [v for v in range(n) if v not in dead]
    move = find_swap(s, c, alive)
    assert move == SwapMove(1, reps[1], expected, 4)
    assert move == _top3_on_alive(s, c, alive)


def test_find_swap_grows_through_the_side_a_dropped_bridge_cuts_off():
    # the largest component is the pendant 0 on the bridge (0, 1) of color 1
    # plus the triangle {1, 2, 3}; the other is the edge (4, 5), and every
    # other edge has color 1.  Dropping the bridge leaves {0} and {1, 2, 3}:
    # (0, 4) and (0, 5) join only 1 + 2 vertices, (1, 4) joins 3 + 2 > 4.
    colors = dict.fromkeys(((u, v) for u in range(6) for v in range(u + 1, 6)), 1)
    colors.update({(1, 2): 2, (1, 3): 3, (2, 3): 4, (4, 5): 5})
    c = EdgeColoring(6, 5, colors)
    s = RepresentativeSubgraph.from_edges(
        {1: (0, 1), 2: (1, 2), 3: (1, 3), 4: (2, 3), 5: (4, 5)}
    )
    assert s.largest_size == 4 and s.component_count == 2
    move = find_swap(s, c)
    assert move == SwapMove(1, (0, 1), (1, 4), 5)
    assert move == top3_find_swap(s, c)
    assert apply_swap(s, move).largest_size == 5


def test_find_swap_skips_a_color_whose_dropped_bridge_leaves_no_two_parts_large_enough():
    # the path 0-1-2-3 (colors 1, 2, 3) beside the edge (4, 5) of color 4:
    # dropping the middle bridge (1, 2) leaves parts of order 2, 2 and 2,
    # no two of them above n1 = 4, so color 2 is not searched, while
    # dropping (0, 1) leaves {1, 2, 3}, which (3, 5) joins to {4, 5}
    colors = dict.fromkeys(((u, v) for u in range(8) for v in range(u + 1, 8)), 2)
    colors.update({(0, 1): 1, (2, 3): 3, (4, 5): 4, (0, 2): 4, (3, 5): 1})
    c = EdgeColoring(8, 4, colors)
    s = RepresentativeSubgraph.from_edges({1: (0, 1), 2: (1, 2), 3: (2, 3), 4: (4, 5)})
    assert s.largest_size == 4 and [len(g) for g in s.components] == [4, 2]
    move = find_swap(s, c)
    assert move == SwapMove(1, (0, 1), (3, 5), 5)
    assert move == top3_find_swap(s, c)
    # the same path with (0, 2) as color 4's representative: (1, 2) lies on
    # the triangle 0 1 2 and is no bridge, so dropping it splits nothing
    cycle = RepresentativeSubgraph.from_edges({1: (0, 1), 2: (1, 2), 3: (2, 3), 4: (0, 2)})
    assert cycle.largest_size == 4 and cycle.component_count == 1
    assert find_swap(cycle, c) == top3_find_swap(cycle, c)


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
    picked = [(u, v) for u, v in inside if uf.union(index[u], index[v])]
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
        return matching_trees(range(n))
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
    vback = maps.vertices_back()
    for tree in restrict_construct_reference(sub, trace):
        edges = [(min(vback[u], vback[v]), max(vback[u], vback[v])) for u, v in tree.edges]
        out.append(Tree.make([vback[v] for v in tree.vertices], edges))
    return out


def _assert_matches_reference(c):
    ref_trace, trace = [], []
    ref = TreePartition(tuple(restrict_construct_reference(c, ref_trace)))
    assert format_partition(partition_complete(c, trace)) == format_partition(ref)
    assert trace == ref_trace


def test_construct_matches_the_restrict_reference_on_random_colorings():
    # r = m is a rainbow K_n: its hill-climbs pass the most representatives
    # through find_swap, and the reference's top3_find_swap takes most of the time
    rng = random.Random(1729)
    for n in range(2, 41):
        m = comb(n, 2)
        rs = {1, 2, 3, m // 2, m}
        for r in sorted(rs & set(range(1, m + 1))):
            _assert_matches_reference(random_surjective_coloring(n, r, rng))


def test_construct_matches_the_restrict_reference_on_canonical_colorings():
    for n in range(3, 31):
        m = comb(n, 2)
        for r in sorted({2, 3, n, m // 2, m} & set(range(2, m + 1))):
            _assert_matches_reference(generate_canonical(n, r)[0])


def test_level_cursor_jumps_past_consecutive_dead_rows(monkeypatch):
    # level 1 splits off {0, 1, 2, 3, 4, 8}; color 5 has an edge in each of
    # the dead rows 0, 1 and 2, so its level-2 representative (7, 9) lies
    # past three consecutive dead rows of its class
    n = 12
    colors = dict.fromkeys(((u, v) for u in range(n) for v in range(u + 1, n)), 1)
    colors.update({(0, 1): 2, (1, 2): 3, (2, 3): 4, (0, 8): 5, (1, 9): 5, (2, 10): 5, (7, 9): 5})
    c = EdgeColoring(n, 5, colors)
    first_reps = {}
    real = constructive.find_swap

    def record(s, cc, alive=None):
        first_reps.setdefault(len(alive), (list(alive), dict(s.rep_edges)))
        return real(s, cc, alive)

    monkeypatch.setattr(constructive, "find_swap", record)
    trace = []
    partition_complete(c, trace)
    assert [level["n"] for level in trace] == [12, 6, 3]
    live, reps = first_reps[6]
    assert live == [5, 6, 7, 9, 10, 11]
    assert [edge_pair(code) for code in c.color_classes()[5]] == [(0, 8), (1, 9), (2, 10), (7, 9)]
    sub, maps = restrict(c, live)
    vback, cback = maps.vertices_back(), maps.colors_back()
    expected = {cback[col]: (vback[u], vback[v])
                for col, (u, v) in initial_representatives(sub).rep_edges.items()}
    assert reps == expected == {1: (5, 6), 5: (7, 9)}


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


def test_printed_trees_match_their_golden_digest():
    # sha256 of format_partition over a seeded set of canonical and random
    # colorings, recorded before the color classes were packed; a change to
    # the class order or the cursor walk changes a printed tree and breaks it
    rng = random.Random(1717)
    cases = [generate_canonical(n, r)[0] for n in (60, 90) for r in (8, 12, 20)]
    cases += [random_surjective_coloring(n, r, rng) for n in (50, 80) for r in (8, 12, 20)]
    digest = hashlib.sha256()
    for c in cases:
        digest.update(format_partition(partition_complete(c)).encode())
    assert digest.hexdigest() == (
        "a362a92e05399c248cea79e1c38f0a449fd7c39cc6ce1766fa72cc3c1f451ade"
    )


def test_trees_and_traces_at_r_near_n_match_their_golden_digest():
    # sha256 of format_partition and the trace records on seeded random K_n
    # with r = n, where every level hill-climbs over many representatives,
    # and on canonical (150, 5000); recorded before the cursor jumped to the
    # next live row and before find_swap skipped colors that cannot qualify
    rng = random.Random(2026)
    cases = [random_surjective_coloring(n, n, rng) for n in (40, 60, 100)]
    cases.append(generate_canonical(150, 5000)[0])
    digest = hashlib.sha256()
    for c in cases:
        trace = []
        digest.update(format_partition(partition_complete(c, trace)).encode())
        digest.update(json.dumps(trace).encode())
    assert digest.hexdigest() == (
        "faaaa930a0747d6d13d58f5f721befc5aa26c455f7fb94dffb2656231668e286"
    )


def test_trees_and_traces_at_benchmark_scale_match_their_golden_digest():
    # sha256 of format_partition and the trace records on the construct
    # benchmark's shapes: canonical K_200..K_300 and seeded random K_150 and
    # K_200 at r = 8, 12, 20; recorded before the level loop kept `live` by
    # deletion and before from_edges was rewritten
    rng = random.Random(1)
    cases = [generate_canonical(n, r)[0] for n in (200, 260, 300) for r in (8, 12, 20)]
    cases += [random_surjective_coloring(n, r, rng) for n in (150, 200) for r in (8, 12, 20)]
    digest = hashlib.sha256()
    for c in cases:
        trace = []
        digest.update(format_partition(partition_complete(c, trace)).encode())
        digest.update(json.dumps(trace).encode())
    assert digest.hexdigest() == (
        "128ddfc0d4752f3b58f6f77e7710d1e59b7f0f0dd9f921c1199d4bb225c6fd4e"
    )


def test_a_single_component_below_t_plus_two_is_a_defect(monkeypatch):
    # canonical (5, 3) starts from the triangle 0 1 2 (t = 2); with no swap
    # found, that one component of order 3 stays below t + 2 = 4
    c, _ = generate_canonical(5, 3)
    monkeypatch.setattr(constructive, "find_swap", lambda s, cc, alive=None: None)
    with pytest.raises(ConstructionDefect) as info:
        partition_complete(c)
    assert str(info.value) == (
        "locally maximal single component has order 3 < t+2 = 4 (n=5, r=3)")
    assert info.value.instance_text == format_coloring(c)


@pytest.mark.parametrize("trees, message", [
    ([Tree.make([0])], "constructed partition is invalid: vertex 1 is not covered"),
    ([Tree.make([v]) for v in range(5)], "constructed 5 trees, above the bound 2 (n=5, r=3)"),
], ids=["invalid", "above-bound"])
def test_a_constructed_partition_is_checked_before_it_is_returned(monkeypatch, trees, message):
    c, _ = generate_canonical(5, 3)
    monkeypatch.setattr(constructive, "_construct", lambda cc, trace: trees)
    with pytest.raises(ConstructionDefect) as info:
        partition_complete(c)
    assert str(info.value) == message
    assert info.value.instance_text == format_coloring(c)
