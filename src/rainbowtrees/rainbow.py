"""Maximum rainbow forests and rainbow-spanning-tree existence.

A rainbow forest is an edge set that is independent in two matroids at once:
the graphic matroid (acyclic) and the partition matroid induced by colors
(at most one edge per color).  One matroid intersection, the exchange-graph
augmenting-path algorithm seeded by a greedy pass over the edges in
lexicographic order, finds a maximum common independent set, and every query
here reads its result: a maximum rainbow forest, deterministic for a given
input.  Each augmenting phase roots the chosen forest once and reads every
exchange arc from it, by climbing to where the two ends of an edge meet.

Spanning-tree existence is a length check on that one result: an acyclic
edge set of size |W| - 1 on the vertex set W has exactly one component, so
W spans a rainbow tree iff max_rainbow_forest(c, W) has |W| - 1 edges.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from .coloring import EdgeColoring
from .errors import SizeGuardError
from .unionfind import UnionFind

_MAX_BRUTE_EDGES = 21  # every block of K_7, so solve_bruteforce reaches n = 7


def _induced_items(c: EdgeColoring, within) -> tuple[list[int], list[tuple[int, int, int]]]:
    verts = sorted(set(within))
    if not verts:
        raise ValueError("vertex set must be nonempty")
    if verts[0] < 0 or verts[-1] >= c.n:
        raise ValueError("vertex set out of range")
    inside = set(verts)
    items = [(u, v, col) for u, v, col in c.edges() if u in inside and v in inside]
    return verts, items


def _augment(ends, cols, nv, in_set) -> bool:
    """One augmenting-path phase; returns True if the set grew by one.

    The chosen forest is rooted once: each vertex gets its tree's `root`,
    its `depth` and `up` = (parent, edge).  A non-chosen edge whose ends have
    different roots is a source.  Any other closes a cycle, which is walked
    by climbing the deeper end until the ends meet; each chosen edge passed
    gets an arc to it.  A non-chosen edge whose color no chosen edge holds is
    a sink.  Edges are taken in index order, so the BFS is deterministic.
    """
    m = len(cols)
    adj: list[list] = [[] for _ in range(nv)]
    holder: dict[int, int] = {}
    for i in range(m):
        if in_set[i]:
            a, b = ends[i]
            adj[a].append((b, i))
            adj[b].append((a, i))
            holder[cols[i]] = i

    root = [-1] * nv
    depth = [0] * nv
    up: list = [None] * nv
    for s in range(nv):
        if root[s] >= 0:
            continue
        root[s] = s
        stack = [s]
        while stack:
            x = stack.pop()
            for y, i in adj[x]:
                if root[y] < 0:
                    root[y] = s
                    depth[y] = depth[x] + 1
                    up[y] = (x, i)
                    stack.append(y)

    sources = []
    # arcs from a chosen edge to the non-chosen edges whose cycle contains it
    fan_out: dict[int, list[int]] = {}
    for i in range(m):
        if in_set[i]:
            continue
        a, b = ends[i]
        if root[a] != root[b]:
            sources.append(i)
            continue
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            a, y = up[a]
            fan_out.setdefault(y, []).append(i)

    prev = dict.fromkeys(sources)
    queue = deque(sources)
    while queue:
        x = queue.popleft()
        if in_set[x]:
            nxt = fan_out.get(x, ())
        elif cols[x] in holder:
            nxt = (holder[cols[x]],)
        else:
            while x is not None:
                in_set[x] = not in_set[x]
                x = prev[x]
            return True
        for w in nxt:
            if w not in prev:
                prev[w] = x
                queue.append(w)
    return False


def _max_common_set(items) -> list[int]:
    """Indices of a maximum common independent set (deterministic)."""
    m = len(items)
    vid: dict[int, int] = {}
    for a, b, _ in items:
        vid.setdefault(a, len(vid))
        vid.setdefault(b, len(vid))
    ends = [(vid[a], vid[b]) for a, b, _ in items]
    cols = [col for _, _, col in items]
    nv = len(vid)

    in_set = [False] * m
    uf = UnionFind(nv)
    used = set()
    for i in range(m):
        a, b = ends[i]
        if cols[i] not in used and uf.union(a, b):
            used.add(cols[i])
            in_set[i] = True
    while _augment(ends, cols, nv, in_set):
        pass
    return [i for i in range(m) if in_set[i]]


def max_rainbow_forest(c: EdgeColoring, within) -> tuple:
    """The (u, v, color) edges of a maximum rainbow forest of the subgraph
    induced by `within`, deterministic for a given input.

    The result is a rainbow spanning tree of `within` exactly when it has
    |within| - 1 edges.
    """
    _, items = _induced_items(c, within)
    return tuple(items[i] for i in _max_common_set(items))


def max_rainbow_forest_bruteforce(c: EdgeColoring, within) -> int:
    """Exact maximum rainbow forest size by subset enumeration (test oracle)."""
    verts, items = _induced_items(c, within)
    m = len(items)
    if m > _MAX_BRUTE_EDGES:
        raise SizeGuardError(f"{m} induced edges exceeds brute-force guard {_MAX_BRUTE_EDGES}")
    vid = {x: i for i, x in enumerate(verts)}
    distinct = len({col for _, _, col in items})
    upper = min(m, len(verts) - 1, distinct)
    for k in range(upper, 0, -1):
        for combo in combinations(items, k):
            if len({col for _, _, col in combo}) < k:
                continue
            uf = UnionFind(len(verts))
            if all(uf.union(vid[u], vid[v]) for u, v, _ in combo):
                return k
    return 0
