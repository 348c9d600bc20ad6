import itertools
import pickle
import random
import re
import tracemalloc
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowtrees import (
    EdgeColoring,
    FileFormatError,
    Tree,
    TreePartition,
    Violation,
    extremal_partition,
    format_coloring,
    format_partition,
    generate_canonical,
    is_partition_valid,
    iter_surjective_colorings,
    max_rainbow_forest,
    merge_colors,
    monochromatic_complete,
    parse_coloring,
    parse_partition,
    partition_complete,
    rainbow_complete,
    random_surjective_coloring,
    read_coloring,
    restrict,
    solve,
    validate,
    write_coloring,
)
from rainbowtrees import coloring
from rainbowtrees.coloring import _is_int, edge_index, edge_pair, matching_trees, row_offset
from rainbowtrees.unionfind import UnionFind


def rainbow_k3():
    return EdgeColoring(3, 3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})


# ---------------------------------------------------------------- validate


def test_validate_rainbow_triangle_is_clean():
    assert validate(rainbow_k3()) == []


def test_validate_missing_color():
    c = EdgeColoring(3, 3, {(0, 1): 1, (0, 2): 1, (1, 2): 2})
    codes = [v.code for v in validate(c)]
    assert codes == ["MissingColor"]
    assert validate(c)[0].info == (3,)


def test_validate_reports_a_color_count_above_the_edge_count_once():
    # r > C(3, 2): one BadColorCount, not one MissingColor per absent color
    assert validate(EdgeColoring(3, 10**6, (1, 1, 1))) == [
        Violation("BadColorCount", (10**6,))]
    assert validate(EdgeColoring(3, 4, (1, 2, 5))) == [
        Violation("BadColorCount", (4,)), Violation("BadColor", (1, 2, 5))]


@pytest.mark.parametrize("key", [(1, 0), (0, 5), (1, 1), ("a", 1), (0, 1, 2), (False, True)],
                         ids=["reversed", "out-of-range", "loop", "non-int", "triple", "bool"])
def test_constructor_rejects_malformed_pairs(key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        EdgeColoring(3, 1, {key: 1, (0, 2): 1})


@pytest.mark.parametrize("c, found", [
    (EdgeColoring(3, 2, [1, True, 2]), ["BadColor(0, 2, True)"]),
    (EdgeColoring(3, 2, [True, 1, 2]), ["BadColor(0, 1, True)"]),
    (EdgeColoring(3, 2, [True, True, 2]), ["BadColor(0, 1, True)", "BadColor(0, 2, True)",
                                           "MissingColor(1,)"]),
    (EdgeColoring(3, 2, [1, 2, False]), ["BadColor(1, 2, False)"]),
    (EdgeColoring(3, 2, [1, 2, 2.0]), ["BadColor(1, 2, 2.0)"]),
], ids=["true-after-1", "true-before-1", "only-true", "false", "float"])
def test_validate_reports_each_color_that_is_not_an_int(c, found):
    # a set folds True into 1 and 2.0 into 2; every edge's color is checked
    assert [str(v) for v in validate(c)] == found


@pytest.mark.parametrize("n, r, message", [
    (2.0, 1, "n must be an int >= 0, got 2.0"),
    (-1, 1, "n must be an int >= 0, got -1"),
    (3, True, "r must be an int, got True"),
    (3, None, "r must be an int, got None"),
], ids=["float-n", "negative-n", "bool-r", "none-r"])
@pytest.mark.parametrize("colors", [[1], {(1, 0): 1}], ids=["short-sequence", "reversed-pair"])
def test_constructor_checks_n_and_r_before_the_colors(n, r, message, colors):
    # colors the constructor would reject for any n: n and r are named first
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EdgeColoring(n, r, colors)


@pytest.mark.parametrize("c, found", [
    (rainbow_k3(), []),
    (EdgeColoring(3, 2, [1, True, 2]), [Violation("BadColor", (0, 2, True))]),
    (EdgeColoring(3, 3, {(0, 1): 1, (0, 2): 1, (1, 2): 2}), [Violation("MissingColor", (3,))]),
], ids=["valid", "bool-color", "missing-color"])
def test_validate_caches_its_verdict_and_returns_a_fresh_list(c, found):
    first = validate(c)
    assert first == found
    first.append(Violation("BadColorCount", (-1,)))
    second = validate(c)
    assert second == found and second is not first
    assert validate(c) == found and validate(c) is not second
    restored = pickle.loads(pickle.dumps(c))
    assert restored == c and validate(restored) == found


def test_validate_color_out_of_range():
    c = EdgeColoring(3, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 7})
    assert "BadColor" in {v.code for v in validate(c)}


def test_validate_degenerate_single_vertex():
    assert validate(EdgeColoring(1, 0, {})) == []
    assert validate(EdgeColoring(0, 0, [])) == [Violation("BadVertexCount", (0,))]
    assert "BadColorCount" in {v.code for v in validate(EdgeColoring(1, 1, {}))}
    assert "BadColorCount" in {v.code for v in validate(EdgeColoring(2, 0, {}))}


def test_completeness_is_inferred():
    assert rainbow_k3().complete
    c = EdgeColoring(3, 1, {(0, 1): 1})
    assert not c.complete and validate(c) == []
    assert pickle.loads(pickle.dumps(c)) == c
    assert eval(repr(c)) == c and "complete" not in repr(c)


def test_color_of_an_absent_edge_raises_and_other_types_are_unequal():
    c = EdgeColoring(3, 1, {(0, 1): 1})
    with pytest.raises(KeyError):
        c.color_of(1, 2)
    assert (c == 3) is False and c != "3 1"


# ------------------------------------------------------- is_partition_valid


def test_partition_spanning_star_on_rainbow_triangle():
    c = rainbow_k3()
    p = TreePartition((Tree.make([0, 1, 2], [(0, 1), (0, 2)]),))
    ok, why = is_partition_valid(c, p)
    assert ok and why is None


def test_partition_repeated_color_rejected():
    c = monochromatic_complete(3)
    p = TreePartition((Tree.make([0, 1, 2], [(0, 1), (1, 2)]),))
    ok, why = is_partition_valid(c, p)
    assert not ok
    assert "repeats color" in why


def test_partition_vertex_reuse_rejected():
    c = rainbow_complete(4)
    p = TreePartition(
        (
            Tree.make([0, 1], [(0, 1)]),
            Tree.make([1, 2, 3], [(1, 2), (2, 3)]),
        )
    )
    ok, why = is_partition_valid(c, p)
    assert not ok
    assert "more than one tree" in why


def test_partition_must_cover_everything():
    c = rainbow_k3()
    p = TreePartition((Tree.make([0, 1], [(0, 1)]),))
    ok, why = is_partition_valid(c, p)
    assert not ok and "not covered" in why


def test_partition_cycle_rejected():
    # |E| = |V| - 1, so the edge count passes: a triangle plus an isolated vertex
    c = rainbow_complete(4)
    p = TreePartition((Tree.make([0, 1, 2, 3], [(0, 1), (0, 2), (1, 2)]),))
    assert is_partition_valid(c, p) == (False, "tree 0 contains a cycle through (1,2)")


@pytest.mark.parametrize("c, trees, why", [
    (rainbow_k3(), (), "partition has no trees"),
    (rainbow_k3(), (Tree.make([]),), "tree 0 is empty"),
    (rainbow_k3(), (Tree.make([0, 1, 2], [(0, 1), (0, 2)]), Tree.make([3])),
     "tree 1 contains out-of-range vertex 3"),
    (rainbow_k3(), (Tree.make([0, 1], [(1, 2)]), Tree.make([2])),
     "tree 0 edge (1,2) leaves its vertex set"),
    (EdgeColoring(3, 2, {(0, 1): 1, (1, 2): 2}), (Tree.make([0, 1, 2], [(0, 1), (0, 2)]),),
     "tree 0 edge (0,2) is not in the graph"),
    (rainbow_k3(), (Tree.make([0, 1, 2], [(0, 1)]),), "tree 0 has 1 edges for 3 vertices"),
    # True == 1 and hashes like 1, so a set of vertices cannot tell them apart
    (rainbow_complete(3), (Tree.make([0, True, 2], [(0, True), (0, 2)]),),
     "tree 0 contains vertex True, which is not an int"),
    (rainbow_complete(3), (Tree.make([0, 1, 2], [(0, 1), (0, 2)]), Tree.make([1.5])),
     "tree 1 contains vertex 1.5, which is not an int"),
    # an edge end equal to a vertex of the tree, but no int: format_partition
    # would write it as (0,True), which parse_partition rejects
    (rainbow_complete(3), (Tree.make([0, 1, 2], [(0, True), (0, 2)]),),
     "tree 0 edge (0,True) has an end that is not an int"),
    (rainbow_complete(3), (Tree.make([0, 1, 2], [(0, 1), (2.0, 0)]),),
     "tree 0 edge (2.0,0) has an end that is not an int"),
    # an edge that does not unpack into two values, such as a (u, v, color) triple
    (rainbow_complete(3), (Tree.make([0, 1], [(0, 1, 1)]), Tree.make([2])),
     "tree 0 edge (0, 1, 1) is not a (u, v) pair"),
    (rainbow_complete(3), (Tree.make([0, 1], [(0, 1, 1, 1)]), Tree.make([2])),
     "tree 0 edge (0, 1, 1, 1) is not a (u, v) pair"),
    (rainbow_complete(3), (Tree((0, 1), (5,)), Tree.make([2])),
     "tree 0 edge 5 is not a (u, v) pair"),
])
def test_partition_check_names_each_violation(c, trees, why):
    assert is_partition_valid(c, TreePartition(trees)) == (False, why)


@pytest.mark.parametrize("kind", [list, tuple])
def test_partition_check_reads_vertices_that_are_not_a_frozenset(kind):
    # a Tree built without Tree.make keeps whatever container it was given
    edges = ((0, 1), (0, 2))
    assert is_partition_valid(rainbow_k3(), TreePartition((Tree(kind([0, 1, 2]), edges),))) == (
        True, None)
    trees = (Tree(kind([0, 1]), ((0, 1),)), Tree(kind([1, 2]), ((1, 2),)))
    assert is_partition_valid(rainbow_k3(), TreePartition(trees)) == (
        False, "vertex 1 appears in more than one tree")
    # the frozenset of [0, 0, 1] has two vertices, which one edge spans
    trees = (Tree(kind([0, 0, 1]), ((0, 1),)),)
    assert is_partition_valid(rainbow_complete(2), TreePartition(trees)) == (
        False, "tree 0 lists vertex 0 more than once")


def reference_is_partition_valid(c, p):
    """is_partition_valid as it read every edge through c._position and
    joined trees with UnionFind calls, kept as a reference: the same checks
    in the same order, with the same messages, each edge's color read from
    c."""
    if not p.trees:
        return False, "partition has no trees"
    n = c.n
    covered: set = set()
    uf = UnionFind(n)
    for i, t in enumerate(p.trees):
        vs = t.vertices
        if type(vs) is not frozenset:
            vs = frozenset(t.vertices)
            if len(vs) < len(t.vertices):
                repeated = next(v for j, v in enumerate(t.vertices) if v in t.vertices[:j])
                return False, f"tree {i} lists vertex {repeated!r} more than once"
        if not vs:
            return False, f"tree {i} is empty"
        overlap = covered & vs
        if overlap:
            return False, f"vertex {min(overlap)} appears in more than one tree"
        covered |= vs
        for v in vs:
            if not _is_int(v):
                return False, f"tree {i} contains vertex {v!r}, which is not an int"
            if not 0 <= v < n:
                return False, f"tree {i} contains out-of-range vertex {v}"
        if len(t.edges) != len(vs) - 1:
            return False, f"tree {i} has {len(t.edges)} edges for {len(vs)} vertices"
        tree_colors: set = set()
        for e in t.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                return False, f"tree {i} edge {e!r} is not a (u, v) pair"
            if not (_is_int(u) and _is_int(v)):
                return False, f"tree {i} edge ({u!r},{v!r}) has an end that is not an int"
            if u not in vs or v not in vs:
                return False, f"tree {i} edge ({u},{v}) leaves its vertex set"
            if (pos := c._position(u, v)) < 0:
                return False, f"tree {i} edge ({u},{v}) is not in the graph"
            col = c._cols[pos]
            if col in tree_colors:
                return False, f"tree {i} repeats color {col}"
            tree_colors.add(col)
            if not uf.union(u, v):
                return False, f"tree {i} contains a cycle through ({u},{v})"
    if covered != set(range(n)):
        missing = min(set(range(n)) - covered)
        return False, f"vertex {missing} is not covered"
    return True, None


def sparse_coloring(n, r, keep, rng):
    """A surjective r-coloring of a random subgraph of K_n with about a
    `keep` share of the edges (at least r of them)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    kept = pairs[:max(r, round(keep * len(pairs)))]
    cols = [*range(1, r + 1), *(rng.randint(1, r) for _ in kept[r:])]
    return EdgeColoring(n, r, dict(zip(kept, cols)))


def corrupted_partitions(c, p, rng):
    """(kind, partition) pairs: p itself, and seeded corruptions of it."""
    trees = p.trees

    def swap(i, vertices, edges):
        return TreePartition(trees[:i] + (Tree(frozenset(vertices), tuple(edges)),) + trees[i + 1:])

    out = [("valid", p)]
    if len(trees) >= 2:  # a vertex moved to another tree, its edges left behind
        i, j = rng.sample(range(len(trees)), 2)
        v = rng.choice(sorted(trees[i].vertices))
        moved = list(trees)
        moved[i] = Tree(trees[i].vertices - {v}, trees[i].edges)
        moved[j] = Tree(trees[j].vertices | {v}, trees[j].edges)
        out.append(("moved vertex", TreePartition(tuple(moved))))
        moved[i] = trees[i]
        out.append(("shared vertex", TreePartition(tuple(moved))))
        out.append(("dropped tree", TreePartition(trees[:i] + trees[i + 1:])))
    for i, t in enumerate(trees):
        if not t.edges:
            continue
        vs, edges, k = t.vertices, list(t.edges), rng.randrange(len(t.edges))
        u, v = edges[k]
        # a repeated color: edge 1 replaced by another pair of edge 0's color
        same = [(a, b) for a in sorted(vs) for b in sorted(vs)
                if a < b and c.has_edge(a, b) and (a, b) not in edges
                and c.color_of(a, b) == c.color_of(*edges[0])]
        if len(edges) >= 2 and same:
            out.append(("repeated color", swap(i, vs, [edges[0], rng.choice(same), *edges[2:]])))
        out.append(("reversed edge", swap(i, vs, edges[:k] + [(v, u)] + edges[k + 1:])))
        out.append(("loop", swap(i, vs, edges[:k] + [(u, u)] + edges[k + 1:])))
        if 1 in vs:  # vertex 1 written as True, in the vertex set or at one edge end
            out.append(("bool vertex", swap(i, vs - {1} | {True}, edges)))
            j = next(j for j, e in enumerate(edges) if 1 in e)
            a, b = edges[j]
            out.append(("bool end", swap(i, vs, edges[:j] + [(a == 1 or a, b == 1 or b)]
                                         + edges[j + 1:])))
        out.append(("out-of-range end", swap(i, vs, edges[:k] + [(u, c.n)] + edges[k + 1:])))
        out.append(("out-of-range end", swap(i, vs | {c.n}, edges[:k] + [(u, c.n)]
                                             + edges[k + 1:])))
        # a cycle: edge k replaced by a pair that the other edges already join
        rest = edges[:k] + edges[k + 1:]
        uf = UnionFind(c.n)
        for a, b in rest:
            uf.union(a, b)
        chords = [(a, b) for a in sorted(vs) for b in sorted(vs)
                  if a < b and uf.find(a) == uf.find(b) and c.has_edge(a, b)
                  and not any({a, b} == {x, y} for x, y in rest)]
        if chords:
            out.append(("cycle", swap(i, vs, rest + [rng.choice(chords)])))
        absent = [(a, b) for a in sorted(vs) for b in sorted(vs) if a < b and not c.has_edge(a, b)]
        if absent:
            out.append(("absent edge", swap(i, vs, edges[:k] + [rng.choice(absent)] + edges[k + 1:])))
    return out


def test_partition_check_matches_the_reference_on_valid_and_corrupted_partitions():
    rng = random.Random(3131)
    cases = [(c, solve(c).partition) for c in
             [rainbow_complete(n) for n in (3, 5, 7)]
             + [random_surjective_coloring(n, r, rng) for n in (4, 6, 8, 9) for r in (2, 3, 5)]
             + [sparse_coloring(n, r, keep, rng) for n in (5, 7, 9) for r in (2, 4)
                for keep in (0.4, 0.8)]]
    cases += [(c, partition_complete(c)) for c in
              [random_surjective_coloring(n, r, rng) for n in (20, 40) for r in (3, 8, 20)]]
    seen: dict = {}
    for c, p in cases:
        for kind, q in corrupted_partitions(c, p, rng):
            expected = reference_is_partition_valid(c, q)
            assert is_partition_valid(c, q) == expected, (kind, format_coloring(c), q)
            seen.setdefault((kind, c.complete), set()).add(expected[1])
    # every corruption was met on both kinds of coloring and was caught
    for kind in ("moved vertex", "shared vertex", "dropped tree", "repeated color", "loop", "bool vertex", "bool end", "out-of-range end",
                 "cycle"):
        for complete in (True, False):
            assert None not in seen[kind, complete], (kind, complete)
    assert seen["valid", True] == seen["valid", False] == seen["reversed edge", True] == {None}
    assert None not in seen["absent edge", False]
    messages = " ".join(m for found in seen.values() for m in found if m)
    for fragment in ("appears in more than one tree", "is not covered", "edges for",
                     "repeats color", "is not in the graph",
                     "which is not an int", "has an end that is not an int",
                     "leaves its vertex set", "out-of-range vertex", "contains a cycle"):
        assert fragment in messages, fragment


def test_matching_trees_pair_consecutive_vertices_as_sorted_edges():
    vertices = [0, 3, 5, 4, 8, 1, 2]  # the pair (5, 4) is written as (4, 5)
    trees = matching_trees(vertices)
    assert trees == [Tree(frozenset((a, b)), ((min(a, b), max(a, b)),))
                     for a, b in zip(vertices[::2], vertices[1::2])] + [Tree(frozenset((2,)), ())]
    assert matching_trees(range(4, 8)) == [Tree.make([4, 5], [(4, 5)]), Tree.make([6, 7], [(6, 7)])]


# ------------------------------------------------------------ merge_colors


def test_merge_rainbow_triangle():
    merged = merge_colors(rainbow_k3(), 3, 2)
    assert merged.r == 2
    assert merged.colors == {(0, 1): 1, (0, 2): 2, (1, 2): 2}
    assert tuple(merged.color_sequence) == (1, 2, 2)  # stored as K_n, as the input is


def test_merge_down_to_monochromatic():
    c = EdgeColoring(3, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
    merged = merge_colors(c, 2, 1)
    assert merged.r == 1
    assert set(merged.colors.values()) == {1}
    sparse = merge_colors(EdgeColoring(4, 2, {(0, 1): 1, (2, 3): 2}), 2, 1)
    assert not sparse.complete and sparse.colors == {(0, 1): 1, (2, 3): 1}


def test_merge_renumbers_colors_above_src():
    c = EdgeColoring(3, 3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    merged = merge_colors(c, 1, 2)
    # color 1 became 2, then 2 -> 1 and 3 -> 2 after renumbering
    assert merged.colors == {(0, 1): 1, (0, 2): 1, (1, 2): 2}
    assert validate(merged) == []


def test_merge_rejects_bad_arguments():
    c = rainbow_k3()
    with pytest.raises(ValueError):
        merge_colors(c, 2, 2)
    with pytest.raises(ValueError):
        merge_colors(c, 0, 1)
    with pytest.raises(ValueError):
        merge_colors(c, 1, 4)
    with pytest.raises(KeyError):  # an edge color above r
        merge_colors(EdgeColoring(3, 2, [1, 2, 3]), 1, 2)


def test_merge_rejects_a_bool_color():
    # True == 1, so without the type check it would merge color 1
    with pytest.raises(ValueError, match=r"^src must be an int in 1\.\.3, got True$"):
        merge_colors(rainbow_k3(), True, 2)
    with pytest.raises(ValueError, match=r"^dst must be an int in 1\.\.3, got 4$"):
        merge_colors(rainbow_k3(), 1, 4)


@settings(max_examples=60, derandomize=True)
@given(st.integers(3, 6), st.data())
def test_merge_always_yields_valid_coloring(n, data):
    c = rainbow_complete(n)
    src = data.draw(st.integers(1, c.r))
    dst = data.draw(st.integers(1, c.r - 1))
    if dst >= src:
        dst += 1
    merged = merge_colors(c, src, dst)
    assert merged.r == c.r - 1
    assert validate(merged) == []


# ---------------------------------------------------------------- restrict


def test_restrict_to_identity():
    c = rainbow_k3()
    sub, maps = restrict(c, range(3))
    assert sub == c
    assert maps.vertex_map == {0: 0, 1: 1, 2: 2}
    assert maps.color_map == {1: 1, 2: 2, 3: 3}


def test_restriction_maps_are_read_only():
    _, maps = restrict(rainbow_complete(4), {0, 1, 2})
    with pytest.raises(TypeError):
        maps.vertex_map[3] = 3
    with pytest.raises(TypeError):
        maps.color_map[4] = 4
    assert maps.vertex_map == {0: 0, 1: 1, 2: 2}
    assert maps.color_map == {1: 1, 2: 2, 4: 3}


def test_restrict_rainbow_k4_to_triangle():
    sub, maps = restrict(rainbow_complete(4), {0, 1, 2})
    assert sub.n == 3 and sub.r == 3
    assert validate(sub) == []
    assert maps.color_map == {1: 1, 2: 2, 4: 3}


def test_restrict_canonical_5_3_outside_block():
    from rainbowtrees import generate_canonical

    c, _ = generate_canonical(5, 3)
    sub, maps = restrict(c, {3, 4})
    # every edge outside the core block carries the single fill color
    assert sub.n == 2 and sub.r == 1
    assert sub.colors == {(0, 1): 1}
    assert maps.vertex_map == {3: 0, 4: 1}


def test_restrict_rejects_bad_sets():
    c = rainbow_k3()
    with pytest.raises(ValueError):
        restrict(c, [])
    with pytest.raises(ValueError):
        restrict(c, [0, 5])


def test_restrict_rejects_a_bool_vertex():
    with pytest.raises(ValueError, match="^vertex True is not an int$"):
        restrict(rainbow_k3(), [True, 0])


def induced_edges_reference(c, within):
    """The induced edges as a filter over every edge of c."""
    inside = set(within)
    return sorted(inside), [e for e in c.edges() if e[0] in inside and e[1] in inside]


def random_sparse_coloring(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return EdgeColoring(n, 3, {e: rng.randint(1, 3) for e in pairs})


def test_induced_edges_match_a_filter_over_every_edge():
    rng = random.Random(24)
    colorings = [EdgeColoring(n, 3, [rng.randint(1, 3) for _ in range(n * (n - 1) // 2)])
                 for n in range(1, 10)]
    colorings += [random_sparse_coloring(rng, n) for n in range(3, 10) for _ in range(3)]
    assert sum(not c.complete for c in colorings) >= 15
    for c in colorings:
        # every vertex, one vertex, and random subsets
        cases = [range(c.n), [rng.randrange(c.n)]]
        cases += [rng.sample(range(c.n), rng.randint(1, c.n)) for _ in range(5)]
        for within in cases:
            assert coloring._induced_edges(c, within) == induced_edges_reference(c, within)


@pytest.mark.parametrize("read", [restrict, max_rainbow_forest], ids=["restrict", "forest"])
@pytest.mark.parametrize("within, message", [
    ([], "vertex set must be nonempty"),
    ([0, 5], "vertex set out of range"),
    ([-1, 0], "vertex set out of range"),
    ([0, True], "vertex True is not an int"),
], ids=["empty", "above", "below", "bool"])
def test_induced_reads_reject_bad_vertex_sets(read, within, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read(rainbow_k3(), within)


@settings(max_examples=40, derandomize=True)
@given(st.integers(4, 7), st.data())
def test_restrict_composes(n, data):
    c = rainbow_complete(n)
    outer = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n)))
    inner_old = sorted(data.draw(st.sets(st.sampled_from(outer), min_size=1)))
    first, fmaps = restrict(c, outer)
    inner_new = [fmaps.vertex_map[v] for v in inner_old]
    twice, _ = restrict(first, inner_new)
    direct, _ = restrict(c, inner_old)
    assert twice == direct


def test_color_sequence_rows():
    n = 7
    c = EdgeColoring(n, 21, range(1, 22))
    assert tuple(c.color_sequence) == tuple(range(1, 22))
    for u in range(n):
        for v in range(u + 1, n):
            assert row_offset(n, u) + v == edge_index(n, u, v)
            assert c.color_sequence[row_offset(n, u) + v] == c.color_of(u, v)
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, {(0, 1): 1, (1, 2): 2}).color_sequence


# ------------------------------------------------------------------ file I/O


def test_coloring_round_trip(tmp_path):
    c = rainbow_complete(5)
    assert parse_coloring(format_coloring(c)) == c
    for c in (c, EdgeColoring(4, 2, {(0, 1): 1, (2, 3): 2})):
        write_coloring(c, tmp_path / "c.txt")
        assert (tmp_path / "c.txt").read_text() == format_coloring(c)
        assert read_coloring(tmp_path / "c.txt") == c


def test_coloring_format_is_deterministic():
    a, b = rainbow_complete(6), rainbow_complete(6)
    assert format_coloring(a) == format_coloring(b)


@st.composite
def loosely_typed_colorings(draw):
    """Colorings whose colors may be bools or floats equal to an int."""
    n = draw(st.integers(1, 4))
    m = n * (n - 1) // 2
    r = draw(st.integers(0, m + 1))
    value = st.one_of(st.integers(0, m + 1), st.booleans(), st.sampled_from([1.0, 2.0]))
    return EdgeColoring(n, r, draw(st.lists(value, min_size=m, max_size=m)))


@settings(max_examples=300, derandomize=True)
@given(loosely_typed_colorings())
@example(EdgeColoring(3, 2, [1, True, 2]))
@example(EdgeColoring(3, 2, [1, 2, 2.0]))
def test_every_coloring_validate_accepts_survives_a_file_round_trip(c):
    if validate(c) == []:
        assert parse_coloring(format_coloring(c)) == c


def test_a_k_n_file_missing_one_edge_parses_like_its_mapping():
    # long enough to list K_5, so its colors go to a list, which has a gap
    lines = format_coloring(rainbow_complete(5)).splitlines(keepends=True)
    text = "".join(lines[:4] + lines[5:])  # drops "0 4 4"
    assert len(text) >= 5 * 10
    colors = dict(rainbow_complete(5).colors)
    del colors[(0, 4)]
    c = parse_coloring(text)
    assert not c.complete and c == EdgeColoring(5, 10, colors)


def test_parse_coloring_comments_and_blanks():
    text = "# a comment\n\n3 2\n0 1 1\n# another\n0 2 2\n1 2 1\n"
    c = parse_coloring(text)
    assert c.n == 3 and c.r == 2 and c.complete


def test_parse_coloring_errors_carry_line_numbers():
    with pytest.raises(FileFormatError) as exc:
        parse_coloring("3 2\n0 1 1\n1 0 2\n")
    assert exc.value.line == 3
    with pytest.raises(FileFormatError) as exc:
        parse_coloring("3 2\n0 1 1\n0 1 2\n")
    assert exc.value.line == 3
    # too short to list the 6 edges of K_4, so its colors go to a dict
    with pytest.raises(FileFormatError, match=r"duplicate edge \(0,1\)") as exc:
        parse_coloring("4 2\n0 1 1\n2 3 2\n0 1 2\n")
    assert exc.value.line == 4
    with pytest.raises(FileFormatError) as exc:
        parse_coloring("3 2\n0 1 5\n")
    assert exc.value.line == 2
    with pytest.raises(FileFormatError) as exc:
        parse_coloring("3\n")
    assert exc.value.line == 1
    with pytest.raises(FileFormatError):
        parse_coloring("# nothing\n")


def test_partition_round_trip():
    c = rainbow_complete(5)
    p = TreePartition(
        (
            Tree.make([0, 1, 2], [(0, 1), (1, 2)]),
            Tree.make([3, 4], [(3, 4)]),
        )
    )
    text = format_partition(p)
    assert parse_partition(text, c) == p


def test_every_producer_writes_trees_that_read_back_and_check_out():
    # solve, partition_complete and extremal_partition on seeded colorings:
    # each tree's edges read back equal only when they are (u, v) pairs,
    # u < v, in sorted order, as parse_partition builds them
    rng = random.Random(3030)
    cases = [(c, solve(c).partition) for c in
             [random_surjective_coloring(n, r, rng) for n in range(2, 9)
              for r in range(1, min(comb(n, 2), 12) + 1) for _ in range(3)]]
    cases += [(c, partition_complete(c)) for c in
              [random_surjective_coloring(n, r, rng) for n in (9, 20, 40) for r in (1, 3, 8, 20)
               if r <= comb(n, 2)]
              + [generate_canonical(n, r)[0] for n in (9, 30) for r in (2, 5, 12, 30)]]
    cases += [(c, extremal_partition(c, layout)) for c, layout in
              [generate_canonical(n, r) for n in range(3, 10) for r in range(2, comb(n, 2) + 1, 3)]]
    for c, p in cases:
        assert parse_partition(format_partition(p), c) == p, format_coloring(c)
        assert is_partition_valid(c, p) == (True, None), format_coloring(c)


def test_partition_format_single_vertex():
    p = TreePartition((Tree.make([4]),))
    assert format_partition(p) == "tree 4 ; edges\n"


def test_parse_partition_rejects_unknown_edge():
    c = EdgeColoring(3, 1, {(0, 1): 1})
    with pytest.raises(FileFormatError):
        parse_partition("tree 0 2 ; edges (0,2)\n", c)


def test_parse_partition_rejects_a_repeated_vertex():
    c = EdgeColoring(3, 1, {(0, 1): 1})
    with pytest.raises(FileFormatError, match="line 2: vertex 0 repeated in tree line"):
        parse_partition("tree 2 ; edges\ntree 0 0 1 ; edges (0,1)\n", c)


def test_parse_partition_rejects_a_malformed_edge_list():
    c = rainbow_k3()
    with pytest.raises(FileFormatError, match="line 2: edge list must start with `edges`"):
        parse_partition("tree 2 ; edges\ntree 0 1 ; (0,1)\n", c)
    with pytest.raises(FileFormatError, match="line 3: bad edge token '1,2'"):
        parse_partition("# header\ntree 0 ; edges\ntree 1 2 ; edges 1,2\n", c)


def test_parse_partition_rejects_an_out_of_range_vertex():
    c = rainbow_complete(3)
    with pytest.raises(FileFormatError, match=r"line 1: vertex 7 out of range 0\.\.2"):
        parse_partition("tree 7 ; edges\n", c)
    with pytest.raises(FileFormatError, match=r"line 2: vertex -1 out of range 0\.\.2"):
        parse_partition("# header\ntree -1 0 1 2 ; edges (0,1) (1,2)\n", c)


# every separator str.splitlines() knows; parse errors count lines by it
LINE_SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                   "\u2028", "\u2029"]


def test_lines_split_like_splitlines_across_blocks():
    # about 200 KB each, so every text spans several 64 KiB blocks
    alphabet = LINE_SEPARATORS + ["a", "b", " ", "\n\n", "\r\r"]
    for seed in range(6):
        rng = random.Random(seed)
        text = "".join(rng.choices(alphabet, k=80000))
        assert list(coloring._lines(text)) == text.splitlines(), seed
    for text in ("", "\n", "a", "a\n", "a\r", "\r\n", "a\x0b\nb", "\n" * 0x10001 + "x\r\n"):
        assert list(coloring._lines(text)) == text.splitlines(), repr(text)


def test_parse_errors_name_the_line_for_every_separator():
    c = rainbow_complete(120)  # 7141 lines, about 87 KB: more than one block
    good = format_coloring(c).splitlines()
    rng = random.Random(5)
    for sep in LINE_SEPARATORS + ["mixed"]:
        def join(lines):
            if sep != "mixed":
                return sep.join(lines) + sep
            return "".join(line + rng.choice(LINE_SEPARATORS) for line in lines)

        assert parse_coloring(join(good)) == c, repr(sep)
        for at in (1, 2, 5000, len(good) - 1):
            lines = good[:at] + ["# comment", "", f"{good[at]} 9"] + good[at + 1:]
            with pytest.raises(FileFormatError, match="expected edge line") as exc:
                parse_coloring(join(lines))
            assert exc.value.line == at + 3, (repr(sep), at)


# Fuzzed file text: free text, and lines shaped like both file grammars
# (integer lines, tree lines, loose tokens) so that generated input also
# reaches the checks behind the line-shape checks.
_ints = st.integers(-2, 7).map(str)
_edge_tokens = st.one_of(
    st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map("({0[0]},{0[1]})".format),
    st.sampled_from(["(0,1,2)", "(x,1)", "()", "(1,", "0,1"]),
)
_lines = st.one_of(
    st.lists(_ints, min_size=2, max_size=3).map(" ".join),
    st.builds(
        "tree {} ; edges {}".format,
        st.lists(_ints, max_size=4).map(" ".join),
        st.lists(_edge_tokens, max_size=3).map(" ".join),
    ),
    st.lists(st.one_of(_ints, st.sampled_from(["#", ";", "tree", "edges"]), st.text(max_size=3)),
             max_size=5).map(" ".join),
)
_file_texts = st.one_of(st.text(max_size=40), st.lists(_lines, max_size=6).map("\n".join))


@settings(max_examples=400, derandomize=True)
@given(_file_texts)
def test_parse_coloring_fuzz_returns_or_names_a_line(text):
    try:
        c = parse_coloring(text)
    except FileFormatError as exc:
        assert exc.line is not None or str(exc) == "empty coloring file", exc
    else:
        assert parse_coloring(format_coloring(c)) == c


@settings(max_examples=400, derandomize=True)
@given(_file_texts)
def test_parse_partition_fuzz_returns_or_names_a_line(text):
    c = EdgeColoring(4, 2, {(0, 1): 1, (1, 2): 2, (0, 3): 2})
    try:
        p = parse_partition(text, c)
    except FileFormatError as exc:
        assert exc.line is not None, exc
    else:
        assert parse_partition(format_partition(p), c) == p


# ------------------------------------------------------------------ storage


def sorted_edges(colors):
    """Reference edge list: every pair normalized, then sorted."""
    return sorted((min(u, v), max(u, v), col) for (u, v), col in colors.items())


def sorted_classes(colors):
    classes = {}
    for u, v, col in sorted_edges(colors):
        classes.setdefault(col, []).append((u, v))
    return classes


def dict_restrict(colors, keep):
    """Reference restrict: induced dict, surviving colors renumbered in order."""
    kept = sorted(set(keep))
    vmap = {old: new for new, old in enumerate(kept)}
    induced = {
        (min(vmap[u], vmap[v]), max(vmap[u], vmap[v])): col
        for (u, v), col in colors.items()
        if u in vmap and v in vmap
    }
    cmap = {old: new for new, old in enumerate(sorted(set(induced.values())), start=1)}
    return {e: cmap[col] for e, col in induced.items()}, vmap, cmap


@st.composite
def colorings(draw):
    """(n, colors dict, complete?) with colors 1..4 on all pairs or a subset."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    complete = draw(st.booleans())
    if not complete:
        pairs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    cols = draw(st.lists(st.integers(1, 4), min_size=len(pairs), max_size=len(pairs)))
    return n, dict(zip(pairs, cols)), complete


@settings(max_examples=200, derandomize=True)
@given(colorings(), st.data())
def test_storage_matches_sort_based_reference(case, data):
    n, colors, complete = case
    r = max(colors.values(), default=0)
    c = EdgeColoring(n, r, colors)
    if complete:
        assert c == EdgeColoring(n, r, [colors[e] for e in sorted(colors)])
    assert c.colors == colors and len(c.colors) == len(colors)
    assert c.edges() == sorted_edges(colors)
    classes = c.color_classes()
    assert list(classes) == list(sorted_classes(colors))
    assert {col: [edge_pair(code) for code in codes]
            for col, codes in classes.items()} == sorted_classes(colors)
    for u in range(n):
        for v in range(n):
            known = (u, v) in colors or (v, u) in colors
            assert c.has_edge(u, v) == known
            if known:
                assert c.color_of(u, v) == colors.get((u, v), colors.get((v, u)))
    keep = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    sub, maps = restrict(c, keep)
    ref_colors, vmap, cmap = dict_restrict(colors, keep)
    assert (sub.n, sub.r) == (len(keep), len(cmap))
    assert sub.colors == ref_colors
    assert (maps.vertex_map, maps.color_map) == (vmap, cmap)


def test_coloring_is_immutable_and_copies_its_input():
    given_colors = {(0, 1): 1, (0, 2): 2, (1, 2): 3}
    c = EdgeColoring(3, 3, given_colors)
    with pytest.raises(TypeError):
        c.colors[(0, 1)] = 2
    with pytest.raises(TypeError):
        c.color_classes()[1] = ()
    with pytest.raises(TypeError):
        c.color_classes()[1][0] = 2 << 16 | 3
    with pytest.raises(AttributeError):
        c.colors = {}
    with pytest.raises(AttributeError):
        c.n = 4
    with pytest.raises(AttributeError):
        del c.r
    given_colors[(0, 1)] = 3
    del given_colors[(1, 2)]
    assert c.colors == {(0, 1): 1, (0, 2): 2, (1, 2): 3}
    assert c == rainbow_k3() and validate(c) == []
    assert pickle.loads(pickle.dumps(c)) == c


def test_color_classes_are_packed_and_cached():
    c = EdgeColoring(4, 2, [1, 2, 1, 2, 1, 1])
    classes = c.color_classes()
    assert c.color_classes() is classes
    assert {col: codes.tolist() for col, codes in classes.items()} == {
        1: [0 << 16 | 1, 0 << 16 | 3, 1 << 16 | 3, 2 << 16 | 3],
        2: [0 << 16 | 2, 1 << 16 | 2],
    }
    assert all(codes.readonly and codes.format == "I" for codes in classes.values())
    assert edge_pair(65534 << 16 | 65535) == (65534, 65535)
    assert EdgeColoring(65536, 1, {(65534, 65535): 1}).color_classes()[1].tolist() == [
        65534 << 16 | 65535]


@pytest.mark.parametrize("make", [
    lambda: random_surjective_coloring(300, 12, random.Random(3)),
    lambda: random_surjective_coloring(300, 300, random.Random(3)),
    lambda: EdgeColoring(300, 12, {(u, v): u * v % 12 + 1
                                   for u in range(0, 300, 2) for v in range(u + 1, 300)}),
], ids=["bytes", "tuple", "sparse"])
def test_color_classes_peak_near_their_own_size(make):
    # each class is built at its exact size and kept, not copied once built
    c = make()
    tracemalloc.start()
    try:
        classes = c.color_classes()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * live
    assert sum(map(len, classes.values())) == len(c.edges())


def test_color_classes_reject_vertices_above_16_bits():
    c = EdgeColoring(70000, 1, {(0, 69999): 1})
    assert validate(c) == []
    with pytest.raises(ValueError, match="65536"):
        c.color_classes()


def test_pickling_a_complete_coloring_builds_no_colors_dict():
    c = EdgeColoring(6, 3, [1, 2, 3] * 5)
    assert pickle.loads(pickle.dumps(c)) == c
    assert c._colors is None
    sparse = EdgeColoring(6, 2, {(0, 5): 2, (1, 2): 1})
    assert pickle.loads(pickle.dumps(sparse)) == sparse
    assert sparse._colors is None


def test_colors_is_one_cached_read_only_dict():
    for c in (rainbow_k3(), EdgeColoring(4, 2, {(2, 3): 2, (0, 1): 1})):
        colors = c.colors
        assert c.colors is colors
        assert list(colors.items()) == [((u, v), col) for u, v, col in c.edges()]
        with pytest.raises(TypeError):
            colors[(0, 1)] = 2
        with pytest.raises(TypeError):
            del colors[(0, 1)]
        with pytest.raises(KeyError):
            colors[(1, 0)]
        # a dict, not a Mapping view: an unhashable key is a TypeError
        with pytest.raises(TypeError):
            colors[[0, 1]]
        assert c == EdgeColoring(c.n, c.r, dict(colors))
        assert pickle.loads(pickle.dumps(c)) == c
        assert eval(repr(c)) == c
        assert c.colors is colors


def test_color_sequence_must_cover_every_pair():
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, [1, 2])


# ------------------------------------------------------------- byte storage


def tuple_twin(c):
    """c with its colors held in a tuple, as every coloring was before byte storage."""
    twin = object.__new__(EdgeColoring)
    twin._hold(c.n, c.r, c._pairs, tuple(c._cols))
    return twin


def _file(n, r, lines):
    return f"{n} {r}\n" + "".join(f"{u} {v} {col}\n" for u, v, col in lines)


def reference_text(c):
    """c's file, written from a tuple of its colors."""
    pairs = c._pairs if c._pairs is not None else itertools.combinations(range(c.n), 2)
    return _file(c.n, c.r, [(u, v, col) for (u, v), col in zip(pairs, tuple(c._cols))])


_sparse = EdgeColoring(5, 3, {(0, 1): 1, (1, 2): 2, (3, 4): 3, (0, 4): 3})
_producers = [
    ("canonical", lambda: generate_canonical(9, 20)[0], lambda: generate_canonical(25, 256)[0]),
    ("canonical-every-edge-placed", lambda: generate_canonical(5, 10)[0],
     lambda: generate_canonical(24, 276)[0]),
    ("random", lambda: random_surjective_coloring(9, 12, random.Random(3)),
     lambda: random_surjective_coloring(24, 260, random.Random(3))),
    ("rainbow", lambda: rainbow_complete(23), lambda: rainbow_complete(24)),
    ("merge", lambda: merge_colors(rainbow_complete(23), 4, 9),
     lambda: merge_colors(rainbow_complete(24), 4, 9)),
    ("merge-sparse", lambda: merge_colors(_sparse, 1, 3), None),
    ("restrict", lambda: restrict(rainbow_complete(24), range(1, 24))[0],
     lambda: restrict(rainbow_complete(25), range(1, 25))[0]),
    ("restrict-sparse", lambda: restrict(_sparse, [0, 1, 2, 4])[0], None),
    ("monochromatic", lambda: monochromatic_complete(7), None),
    ("exhaustive", lambda: list(iter_surjective_colorings(4, 3))[-1], None),
    ("parse", lambda: parse_coloring(format_coloring(generate_canonical(9, 20)[0])),
     lambda: parse_coloring(format_coloring(rainbow_complete(24)))),
]


@pytest.mark.parametrize("small, large", [p[1:] for p in _producers],
                         ids=[p[0] for p in _producers])
def test_every_producer_stores_bytes_up_to_r_255_and_a_tuple_above(small, large):
    for make, kind in ((small, bytes), (large, tuple)):
        if make is None:
            continue
        c = make()
        assert (c.r <= 255) == (kind is bytes)
        assert type(c._cols) is kind
        assert validate(c) == []
        assert c == tuple_twin(c) and tuple_twin(c) == c
        assert format_coloring(c) == reference_text(c)
        assert all(type(col) is int for col in c._cols)


@pytest.mark.parametrize("bad", [True, 2.0, -1, 256], ids=["bool", "float", "negative", "256"])
def test_colors_that_do_not_fit_a_byte_keep_a_tuple(bad):
    # bytes([True]) is b"\x01": a bool must not pass as the color 1
    for c, edge in ((EdgeColoring(3, 2, [1, 2, bad]), (1, 2)),
                    (EdgeColoring(4, 2, {(0, 1): 1, (1, 2): 2, (2, 3): bad}), (2, 3))):
        assert type(c._cols) is tuple
        assert Violation("BadColor", (*edge, bad)) in validate(c)
        assert c.color_of(*edge) is bad


@pytest.mark.parametrize("end", [1.0, 2.0, True, -1, 4], ids=["float", "float-2", "bool", "negative", "n"])
def test_an_end_that_is_no_vertex_has_no_edge_and_no_color(end):
    # an int-valued float or a bool is treated as an out-of-range end, not as the vertex it equals
    for c in (rainbow_complete(4), EdgeColoring(4, 2, {(0, 1): 1, (1, 2): 2})):
        for held in (c, tuple_twin(c)):
            assert held.has_edge(2, 1) and held.color_of(2, 1) == c.color_of(1, 2)
            for u in range(4):
                assert not held.has_edge(u, end) and not held.has_edge(end, u)
                for ends in ((u, end), (end, u)):
                    with pytest.raises(KeyError):
                        held.color_of(*ends)


def test_equal_colorings_are_equal_across_storages():
    c = EdgeColoring(4, 2, [1, 2, 1, 2, 1, 1])
    assert type(c._cols) is bytes and c == tuple_twin(c) and tuple_twin(c) == c
    other = tuple_twin(EdgeColoring(4, 2, [1, 2, 1, 2, 1, 2]))
    assert c != other and other != c
    assert _sparse == tuple_twin(_sparse) and type(_sparse._cols) is bytes
    assert EdgeColoring(3, 2, b"\x01\x02\x02") == EdgeColoring(3, 2, (1, 2, 2))


def test_pickling_keeps_byte_storage_and_builds_no_colors_dict():
    for c in (generate_canonical(20, 12)[0], _sparse):
        restored = pickle.loads(pickle.dumps(c))
        assert type(restored._cols) is bytes and restored == c
        assert c._colors is None and restored._colors is None


def test_pickling_rebuilds_through_the_constructor_and_keeps_tuple_colors():
    # a tuple holding True and 2.0 stays a tuple of the same objects, for K_n and sparse
    for c in (EdgeColoring(3, 2, [1, True, 2.0]),
              EdgeColoring(5, 2, {(0, 4): True, (1, 2): 2.0, (3, 4): 1})):
        assert c.__reduce__()[0] is EdgeColoring
        restored = pickle.loads(pickle.dumps(c))
        assert type(restored._cols) is tuple and restored == c
        assert [(type(col), col) for col in restored._cols] == [(type(col), col) for col in c._cols]
        assert restored._pairs == c._pairs and validate(restored) == validate(c)


def test_a_bytes_input_is_kept_and_a_bytearray_copied():
    given_colors = b"\x01\x02\x02"
    assert EdgeColoring(3, 2, given_colors).color_sequence is given_colors
    buffer = bytearray(given_colors)
    c = EdgeColoring(3, 2, buffer)
    buffer[0] = 2
    assert type(c._cols) is bytes and tuple(c.color_sequence) == (1, 2, 2)
    assert validate(c) == []


@settings(max_examples=150, derandomize=True)
@given(st.integers(2, 8), st.sampled_from(["complete", "missing", "r300", "duplicate"]),
       st.randoms(use_true_random=False))
def test_dense_and_dict_parses_agree(n, case, rnd):
    # a file long enough to list K_n is read into one bytearray (r <= 255)
    # or list (r = 300); a shorter one, and a file that misses an edge, is
    # read into a dict, whose coloring the constructor builds
    m = comb(n, 2)
    r = 300 if case == "r300" else rnd.randint(1, m)
    lines = [(u, v, rnd.randint(1, r)) for u, v in itertools.combinations(range(n), 2)]
    if case == "r300":  # one color above a byte keeps the whole sequence in a tuple
        i = rnd.randrange(m)
        lines[i] = lines[i][:2] + (300,)
    rnd.shuffle(lines)
    if case == "missing":
        del lines[rnd.randrange(m)]
    if case == "duplicate":
        at = rnd.randrange(m)
        again = rnd.randrange(at + 1, m + 1)
        lines.insert(again, lines[at][:2] + (rnd.randint(1, r),))
        u, v, _ = lines[at]
        for text in (_file(n, r, lines), _file(n, r, lines[:again + 1])):  # dense, often dict
            message = re.escape(f"duplicate edge ({u},{v})")
            with pytest.raises(FileFormatError, match=message) as exc:
                parse_coloring(text)
            assert exc.value.line == again + 2
        return
    text = _file(n, r, lines)
    assert 5 * m <= len(text) or m == 1 and case == "missing"  # the dense path
    c = parse_coloring(text)
    assert c == EdgeColoring(n, r, {(u, v): col for u, v, col in lines})
    assert c.complete == (case != "missing")
    assert type(c._cols) is (tuple if case == "r300" else bytes)
    assert format_coloring(c) == _file(n, r, sorted(lines))
