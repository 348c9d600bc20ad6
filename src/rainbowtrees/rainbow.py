"""Maximum rainbow forests and rainbow-spanning-tree existence.

A rainbow forest is an edge set that is independent in two matroids at once:
the graphic matroid (acyclic) and the partition matroid induced by colors
(at most one edge per color).  One matroid intersection, the exchange-graph
augmenting-path algorithm seeded by a greedy pass over the edges in
lexicographic order, finds a maximum common independent set, and every query
here reads its result: a maximum rainbow forest, deterministic for a given
input.

Spanning-tree existence reduces to the maximum size: an acyclic edge set of
size |W| - 1 on the vertex set W has exactly one component, so a maximum
rainbow forest of that size is itself a rainbow spanning tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .coloring import EdgeColoring
from .errors import RainbowTreeMissingError, SizeGuardError
from .unionfind import UnionFind


@dataclass(frozen=True)
class RainbowForest:
    """An acyclic edge set whose colors are pairwise distinct."""

    edges: tuple

    @property
    def size(self) -> int:
        return len(self.edges)


def _induced_items(c: EdgeColoring, within) -> tuple[list[int], list[tuple[int, int, int]]]:
    verts = sorted(set(within))
    if not verts:
        raise ValueError("vertex set must be nonempty")
    if verts[0] < 0 or verts[-1] >= c.n:
        raise ValueError("vertex set out of range")
    inside = set(verts)
    items = [(u, v, col) for u, v, col in c.edges() if u in inside and v in inside]
    return verts, items


def _forest_path(adj, a, b):
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


def _augment(ends, cols, nv, in_set) -> bool:
    """One augmenting-path phase; returns True if the set grew by one."""
    m = len(cols)
    uf = UnionFind(nv)
    adj: list[list] = [[] for _ in range(nv)]
    holder: dict[int, int] = {}
    for i in range(m):
        if in_set[i]:
            a, b = ends[i]
            uf.union(a, b)
            adj[a].append((b, i))
            adj[b].append((a, i))
            holder[cols[i]] = i

    sources = []
    sinks = set()
    cycle_path: dict[int, list[int]] = {}
    for i in range(m):
        if in_set[i]:
            continue
        a, b = ends[i]
        if uf.find(a) != uf.find(b):
            sources.append(i)
        else:
            cycle_path[i] = _forest_path(adj, a, b)
        if cols[i] not in holder:
            sinks.add(i)

    # arcs from a chosen edge to the non-chosen edges whose cycle contains it
    fan_out: dict[int, list[int]] = {}
    for w, path in cycle_path.items():
        for y in path:
            fan_out.setdefault(y, []).append(w)

    prev: dict[int, int] = {}
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


def _max_common_set(items) -> list[int]:
    """Indices of a maximum common independent set (deterministic)."""
    m = len(items)
    if m == 0:
        return []
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
        if cols[i] not in used and uf.find(a) != uf.find(b):
            uf.union(a, b)
            used.add(cols[i])
            in_set[i] = True
    while _augment(ends, cols, nv, in_set):
        pass
    return [i for i in range(m) if in_set[i]]


def max_rainbow_forest_size(c: EdgeColoring, within) -> int:
    """Size of a maximum rainbow forest inside the induced subgraph."""
    return max_rainbow_forest(c, within).size


def max_rainbow_forest(c: EdgeColoring, within) -> RainbowForest:
    """A maximum rainbow forest of the induced subgraph, deterministic for a
    given input."""
    _, items = _induced_items(c, within)
    return RainbowForest(tuple(items[i] for i in _max_common_set(items)))


def has_rainbow_spanning_tree(c: EdgeColoring, within) -> bool:
    """True iff the induced subgraph has a spanning tree with distinct colors."""
    within = set(within)
    return max_rainbow_forest(c, within).size == len(within) - 1


def rainbow_spanning_tree(c: EdgeColoring, within) -> RainbowForest:
    """A rainbow spanning tree of the induced subgraph, or a loud failure."""
    within = set(within)
    forest = max_rainbow_forest(c, within)
    if forest.size != len(within) - 1:
        raise RainbowTreeMissingError(
            f"no rainbow spanning tree on vertex set {sorted(within)}"
        )
    return forest


def max_rainbow_forest_bruteforce(c: EdgeColoring, within, max_edges: int = 20) -> int:
    """Exact maximum rainbow forest size by subset enumeration (test oracle)."""
    verts, items = _induced_items(c, within)
    m = len(items)
    if m > max_edges:
        raise SizeGuardError(f"{m} induced edges exceeds brute-force guard {max_edges}")
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
