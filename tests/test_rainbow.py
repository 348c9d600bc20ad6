import random

import pytest

from rainbowtrees import (
    EdgeColoring,
    RainbowTreeMissingError,
    SizeGuardError,
    generate_canonical,
    has_rainbow_spanning_tree,
    max_rainbow_forest,
    max_rainbow_forest_bruteforce,
    max_rainbow_forest_size,
    monochromatic_complete,
    rainbow_complete,
    rainbow_spanning_tree,
)
from rainbowtrees.unionfind import UnionFind


def random_coloring(rng, n, edge_prob=0.8):
    """Random subgraph with random (not necessarily surjective) colors."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kept = [p for p in pairs if rng.random() < edge_prob]
    if not kept:
        kept = [pairs[0]]
    colors = {p: rng.randint(1, len(kept)) for p in kept}
    return EdgeColoring(n, max(colors.values()), colors)


def test_monochromatic_k4_max_forest_is_one_edge():
    c = monochromatic_complete(4)
    assert max_rainbow_forest_size(c, range(4)) == 1
    assert max_rainbow_forest(c, range(4)).edges == ((0, 1, 1),)


def test_rainbow_k4_has_spanning_tree():
    c = rainbow_complete(4)
    assert max_rainbow_forest_size(c, range(4)) == 3
    assert has_rainbow_spanning_tree(c, range(4))


def test_canonical_5_3_core_block():
    c, _ = generate_canonical(5, 3)
    block = [0, 1, 2, 3]
    assert max_rainbow_forest_bruteforce(c, block) == 3
    forest = max_rainbow_forest(c, block)
    assert forest.size == 3
    assert forest.edges == ((0, 2, 2), (0, 3, 1), (1, 2, 3))
    assert has_rainbow_spanning_tree(c, block)
    # the whole graph needs 4 distinct colors but only 3 exist
    assert not has_rainbow_spanning_tree(c, range(5))


def test_single_vertex_always_has_spanning_tree():
    c = monochromatic_complete(4)
    assert has_rainbow_spanning_tree(c, [2])
    assert max_rainbow_forest(c, [2]).size == 0


def test_rainbow_spanning_tree_is_loud_when_missing():
    c = monochromatic_complete(4)
    with pytest.raises(RainbowTreeMissingError):
        rainbow_spanning_tree(c, range(4))


def test_rainbow_spanning_tree_really_spans():
    c = rainbow_complete(6)
    forest = rainbow_spanning_tree(c, [1, 3, 4, 5])
    assert forest.size == 3
    touched = {x for u, v, _ in forest.edges for x in (u, v)}
    assert touched == {1, 3, 4, 5}


def test_bruteforce_guard():
    c = rainbow_complete(7)  # 21 induced edges
    with pytest.raises(SizeGuardError):
        max_rainbow_forest_bruteforce(c, range(7))
    assert max_rainbow_forest_bruteforce(c, range(7), max_edges=21) == 6


def test_matroid_intersection_agrees_with_bruteforce():
    rng = random.Random(424242)
    for _ in range(200):
        n = rng.randint(2, 6)
        c = random_coloring(rng, n)
        within = rng.sample(range(n), rng.randint(1, n))
        fast = max_rainbow_forest_size(c, within)
        slow = max_rainbow_forest_bruteforce(c, within)
        assert fast == slow, (c.colors, within)
        assert max_rainbow_forest(c, within).size == slow, (c.colors, within)


def test_forest_invariants_hold():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(2, 7)
        c = random_coloring(rng, n)
        within = rng.sample(range(n), rng.randint(1, n))
        forest = max_rainbow_forest(c, within)
        cols = [col for _, _, col in forest.edges]
        assert len(set(cols)) == len(cols)
        verts = sorted(set(within))
        index = {v: i for i, v in enumerate(verts)}
        uf = UnionFind(len(verts))
        for u, v, _ in forest.edges:
            assert u in index and v in index
            assert uf.union(index[u], index[v]), "forest contains a cycle"


def test_enlarging_within_never_shrinks_the_maximum():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(3, 7)
        c = random_coloring(rng, n)
        small = rng.sample(range(n), rng.randint(1, n - 1))
        big = small + [v for v in range(n) if v not in small][:1]
        assert max_rainbow_forest_size(c, small) <= max_rainbow_forest_size(c, big)


def test_spanning_size_maximizers_are_returned_as_trees():
    # size |W|-1 forces connectivity, so the returned forest must span
    rng = random.Random(31)
    found = 0
    for _ in range(200):
        n = rng.randint(3, 6)
        c = random_coloring(rng, n, edge_prob=1.0)
        within = rng.sample(range(n), rng.randint(2, n))
        if has_rainbow_spanning_tree(c, within):
            found += 1
            forest = max_rainbow_forest(c, within)
            assert forest.size == len(set(within)) - 1
            index = {v: i for i, v in enumerate(sorted(set(within)))}
            uf = UnionFind(len(index))
            for u, v, _ in forest.edges:
                uf.union(index[u], index[v])
            assert uf.component_size(0) == len(index)
    assert found > 20


def test_within_validation():
    c = rainbow_complete(4)
    with pytest.raises(ValueError):
        max_rainbow_forest_size(c, [])
    with pytest.raises(ValueError):
        max_rainbow_forest_size(c, [0, 9])
