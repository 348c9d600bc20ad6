import random
from collections import deque

import pytest

from rainbowtrees import (
    EdgeColoring,
    SizeGuardError,
    generate_canonical,
    max_rainbow_forest,
    max_rainbow_forest_bruteforce,
    monochromatic_complete,
    rainbow_complete,
)
from rainbowtrees.rainbow import _max_common_set
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
    assert len(max_rainbow_forest(c, range(4))) == 1
    assert max_rainbow_forest(c, range(4)) == ((0, 1, 1),)


def test_rainbow_k4_has_spanning_tree():
    c = rainbow_complete(4)
    # |W| - 1 = 3 edges: a rainbow spanning tree
    assert len(max_rainbow_forest(c, range(4))) == 3


def test_canonical_5_3_core_block():
    c, _ = generate_canonical(5, 3)
    block = [0, 1, 2, 3]
    assert max_rainbow_forest_bruteforce(c, block) == 3
    forest = max_rainbow_forest(c, block)
    assert len(forest) == len(block) - 1
    assert forest == ((0, 2, 2), (0, 3, 1), (1, 2, 3))
    # the whole graph needs 4 distinct colors but only 3 exist
    assert len(max_rainbow_forest(c, range(5))) < 5 - 1


def test_single_vertex_always_has_spanning_tree():
    c = monochromatic_complete(4)
    # no edges, |W| - 1 = 0: a single vertex spans itself
    assert max_rainbow_forest(c, [2]) == ()


def test_a_spanning_size_forest_really_spans():
    c = rainbow_complete(6)
    forest = max_rainbow_forest(c, [1, 3, 4, 5])
    assert len(forest) == 3
    touched = {x for u, v, _ in forest for x in (u, v)}
    assert touched == {1, 3, 4, 5}


def test_bruteforce_guard():
    with pytest.raises(SizeGuardError):
        max_rainbow_forest_bruteforce(rainbow_complete(8), range(8))  # 28 induced edges
    assert max_rainbow_forest_bruteforce(rainbow_complete(7), range(7)) == 6  # 21


def test_matroid_intersection_agrees_with_bruteforce():
    rng = random.Random(424242)
    for _ in range(200):
        n = rng.randint(2, 6)
        c = random_coloring(rng, n)
        within = rng.sample(range(n), rng.randint(1, n))
        fast = max_rainbow_forest(c, within)
        slow = max_rainbow_forest_bruteforce(c, within)
        assert len(fast) == slow, (c.colors, within)
        assert max_rainbow_forest(c, within) == fast, (c.colors, within)


def test_forest_invariants_hold():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(2, 7)
        c = random_coloring(rng, n)
        within = rng.sample(range(n), rng.randint(1, n))
        forest = max_rainbow_forest(c, within)
        cols = [col for _, _, col in forest]
        assert len(set(cols)) == len(cols)
        verts = sorted(set(within))
        index = {v: i for i, v in enumerate(verts)}
        uf = UnionFind(len(verts))
        for u, v, _ in forest:
            assert u in index and v in index
            assert uf.union(index[u], index[v]), "forest contains a cycle"


def test_enlarging_within_never_shrinks_the_maximum():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(3, 7)
        c = random_coloring(rng, n)
        small = rng.sample(range(n), rng.randint(1, n - 1))
        big = small + [v for v in range(n) if v not in small][:1]
        assert len(max_rainbow_forest(c, small)) <= len(max_rainbow_forest(c, big))


def test_spanning_size_maximizers_are_returned_as_trees():
    # size |W|-1 forces connectivity, so the returned forest must span
    rng = random.Random(31)
    found = 0
    for _ in range(200):
        n = rng.randint(3, 6)
        c = random_coloring(rng, n, edge_prob=1.0)
        within = rng.sample(range(n), rng.randint(2, n))
        forest = max_rainbow_forest(c, within)
        if len(forest) == len(within) - 1:
            found += 1
            assert len(forest) == len(set(within)) - 1
            index = {v: i for i, v in enumerate(sorted(set(within)))}
            uf = UnionFind(len(index))
            for u, v, _ in forest:
                uf.union(index[u], index[v])
            assert uf.size[uf.find(0)] == len(index)
    assert found > 20


def test_within_validation():
    c = rainbow_complete(4)
    with pytest.raises(ValueError):
        max_rainbow_forest(c, [])
    with pytest.raises(ValueError):
        max_rainbow_forest(c, [0, 9])


# ------------------------------------------------- augmenting-phase reference


def bfs_forest_path_reference(adj, a, b):
    """Edge indices on the unique a..b path of the chosen forest."""
    prev = {a: None}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        if x == b:
            break
        for y, idx in adj[x]:
            if y not in prev:
                prev[y] = (x, idx)
                queue.append(y)
    path = []
    node = b
    while prev[node] is not None:
        node, idx = prev[node]
        path.append(idx)
    return path


def bfs_augment_reference(ends, cols, nv, in_set) -> bool:
    """One augmenting phase with a union-find and a forest BFS per edge."""
    m = len(cols)
    uf = UnionFind(nv)
    adj = [[] for _ in range(nv)]
    holder = {}
    for i in range(m):
        if in_set[i]:
            a, b = ends[i]
            uf.union(a, b)
            adj[a].append((b, i))
            adj[b].append((a, i))
            holder[cols[i]] = i
    sources = []
    sinks = set()
    cycle_path = {}
    for i in range(m):
        if in_set[i]:
            continue
        a, b = ends[i]
        if uf.find(a) != uf.find(b):
            sources.append(i)
        else:
            cycle_path[i] = bfs_forest_path_reference(adj, a, b)
        if cols[i] not in holder:
            sinks.add(i)
    fan_out = {}
    for w, path in cycle_path.items():
        for y in path:
            fan_out.setdefault(y, []).append(w)
    prev = {}
    visited = set(sources)
    queue = deque(sources)
    end = None
    while queue:
        x = queue.popleft()
        if not in_set[x] and x in sinks:
            end = x
            break
        if not in_set[x]:
            y = holder[cols[x]]
            if y not in visited:
                visited.add(y)
                prev[y] = x
                queue.append(y)
        else:
            for w in fan_out.get(x, ()):
                if w not in visited:
                    visited.add(w)
                    prev[w] = x
                    queue.append(w)
    if end is None:
        return False
    node = end
    while True:
        in_set[node] = not in_set[node]
        if node not in prev:
            break
        node = prev[node]
    return True


def reference_common_set(items):
    """(indices, phases): the greedy seed, then reference phases until none grows."""
    vid = {}
    for a, b, _ in items:
        vid.setdefault(a, len(vid))
        vid.setdefault(b, len(vid))
    ends = [(vid[a], vid[b]) for a, b, _ in items]
    cols = [col for _, _, col in items]
    in_set = [False] * len(items)
    uf = UnionFind(len(vid))
    used = set()
    for i, (a, b) in enumerate(ends):
        if cols[i] not in used and uf.find(a) != uf.find(b):
            uf.union(a, b)
            used.add(cols[i])
            in_set[i] = True
    phases = 0
    while bfs_augment_reference(ends, cols, len(vid), in_set):
        phases += 1
    return [i for i, chosen in enumerate(in_set) if chosen], phases


def reference_item_lists(rng):
    """Seeded item lists: K_n, random subgraphs and disjoint unions of two."""
    for n in range(2, 31):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for r in sorted({1, 2, 3, n - 1, n, 2 * n, 3 * n, rng.randint(1, 3 * n)} - {0}):
            yield [(u, v, rng.randint(1, r)) for u, v in pairs]
            p = rng.choice((0.15, 0.3, 0.6))
            yield [(u, v, rng.randint(1, r)) for u, v in pairs if rng.random() < p]
            cut = rng.randint(1, n - 1)
            yield [
                (u, v, rng.randint(1, r))
                for u, v in pairs
                if (u < cut) == (v < cut) and rng.random() < 0.7
            ]


def component_count(items):
    verts = sorted({x for a, b, _ in items for x in (a, b)})
    index = {v: i for i, v in enumerate(verts)}
    uf = UnionFind(len(verts))
    for a, b, _ in items:
        uf.union(index[a], index[b])
    return len({uf.find(i) for i in range(len(verts))})


def test_max_common_set_matches_the_bfs_augment_reference():
    rng = random.Random(20070)
    multi_phase = disconnected = 0
    for items in reference_item_lists(rng):
        ref, phases = reference_common_set(items)
        assert _max_common_set(items) == ref, items
        multi_phase += phases >= 2
        disconnected += component_count(items) > 1
    # 45 and 184 of the 660 lists at this seed
    assert multi_phase >= 20
    assert disconnected >= 50
