"""Polynomial-time rainbow tree partition of an edge-colored complete graph.

The algorithm keeps one representative edge per color and hill-climbs: while
some single representative reassignment strictly enlarges the largest
component of the chosen edges, apply the first such move (colors scanned in
increasing order, replacement edges in lexicographic order).  At a local
optimum the largest component is split off as one rainbow tree (its edges
all carry distinct colors, so any spanning tree of it is rainbow) and the
algorithm recurses on the complete graph induced by the remaining vertices.

Base cases: a single vertex is one tree; with one color a maximum matching
plus an optional singleton is optimal.

The number of trees produced is asserted against the closed-form bound
ceil((n - t) / 2) at every call; a violation raises ConstructionDefect
carrying the serialized instance, it is never accepted silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import (
    EdgeColoring,
    Tree,
    TreePartition,
    format_coloring,
    is_partition_valid,
    matching_trees,
    require_valid,
    restrict,
    validate,
)
from .errors import ConstructionDefect
from .formula import f_of_r, partition_number
from .unionfind import UnionFind


@dataclass(frozen=True)
class RepresentativeSubgraph:
    """One chosen edge per color; components ordered by decreasing size."""

    rep_edges: dict    # color -> (u, v)
    components: tuple  # frozensets, sorted by (-size, min vertex)

    @classmethod
    def from_edges(cls, rep_edges: dict) -> "RepresentativeSubgraph":
        """The components spanned by the given color -> edge choice."""
        verts = sorted({x for e in rep_edges.values() for x in e})
        index = {v: i for i, v in enumerate(verts)}
        uf = UnionFind(len(verts))
        for u, v in rep_edges.values():
            uf.union(index[u], index[v])
        groups: dict[int, set] = {}
        for v in verts:
            groups.setdefault(uf.find(index[v]), set()).add(v)
        comps = sorted(groups.values(), key=lambda g: (-len(g), min(g)))
        return cls(dict(rep_edges), tuple(frozenset(g) for g in comps))

    @property
    def largest_size(self) -> int:
        return len(self.components[0])

    @property
    def component_count(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class SwapMove:
    """Reassigning one color's representative to strictly grow the largest component."""

    color: int
    old_edge: tuple
    new_edge: tuple
    new_largest_size: int


def initial_representatives(c: EdgeColoring) -> RepresentativeSubgraph:
    """The lexicographically smallest edge of each color."""
    classes = c.color_classes()
    return RepresentativeSubgraph.from_edges({col: edges[0] for col, edges in classes.items()})


def find_swap(s: RepresentativeSubgraph, c: EdgeColoring) -> SwapMove | None:
    """First single-representative reassignment that strictly increases the
    largest component, or None when the subgraph is locally maximal.

    Dropping one representative only splits a component, so every component
    left has order at most n1 = s.largest_size: a replacement edge grows the
    largest component exactly when it joins two components of total order
    above n1, and that total is then the new largest order.  The dropped
    edge itself never qualifies, as it at most rejoins its old component.
    """
    n1 = s.largest_size
    classes = c.color_classes()
    touched = {x for e in s.rep_edges.values() for x in e}
    for color in sorted(s.rep_edges):
        h = s.rep_edges[color]
        # component label and order of each vertex, representatives minus h
        uf = UnionFind(c.n)
        for col2, (u, v) in s.rep_edges.items():
            if col2 != color:
                uf.union(u, v)
        label = list(range(c.n))
        for x in touched:
            label[x] = uf.find(x)
        size = uf.size
        for g in classes[color]:
            a, b = label[g[0]], label[g[1]]
            if a != b and size[a] + size[b] > n1:
                return SwapMove(color, h, g, size[a] + size[b])
    return None


def apply_swap(s: RepresentativeSubgraph, move: SwapMove) -> RepresentativeSubgraph:
    reps = dict(s.rep_edges)
    reps[move.color] = move.new_edge
    return RepresentativeSubgraph.from_edges(reps)


def _spanning_tree_of_component(c: EdgeColoring, s: RepresentativeSubgraph) -> Tree:
    comp = s.components[0]
    inside = sorted(
        (min(e), max(e)) for e in s.rep_edges.values() if e[0] in comp and e[1] in comp
    )
    index = {v: i for i, v in enumerate(sorted(comp))}
    uf = UnionFind(len(comp))
    picked = []
    for u, v in inside:
        if uf.union(index[u], index[v]):
            picked.append((u, v, c.color_of(u, v)))
    return Tree.make(comp, picked)


def _defect(message: str, c: EdgeColoring) -> ConstructionDefect:
    return ConstructionDefect(message, instance_text=format_coloring(c))


def _construct(c: EdgeColoring, root: EdgeColoring, trace: list | None) -> list[Tree]:
    n, r = c.n, c.r
    if n == 1:
        if trace is not None:
            trace.append({"n": n, "r": r, "moves": 0, "largest": 1, "components": 0})
        return [Tree.make([0])]
    if r == 1:
        if trace is not None:
            trace.append({"n": n, "r": r, "moves": 0, "largest": 2, "components": 0})
        return matching_trees(c, range(n))

    s = initial_representatives(c)
    moves = 0
    while (move := find_swap(s, c)) is not None:
        s = apply_swap(s, move)
        moves += 1
        if moves > n - 2:
            raise _defect(f"hill-climb exceeded {n - 2} moves at n={n}, r={r}", root)

    n1 = s.largest_size
    k = s.component_count
    t = f_of_r(r)
    if k == 1 and n1 < t + 2 and n1 != n:
        raise _defect(
            f"locally maximal single component has order {n1} < t+2 = {t + 2} (n={n}, r={r})",
            root,
        )
    if trace is not None:
        trace.append({"n": n, "r": r, "moves": moves, "largest": n1, "components": k})

    first = _spanning_tree_of_component(c, s)
    leftover = [v for v in range(n) if v not in s.components[0]]
    if not leftover:
        return [first]
    sub, maps = restrict(c, leftover)
    vback = maps.vertices_back()
    cback = maps.colors_back()
    out = [first]
    for tree in _construct(sub, root, trace):
        verts = [vback[v] for v in tree.vertices]
        edges = []
        for u, v, col in tree.edges:
            a, b = vback[u], vback[v]
            if a > b:
                a, b = b, a
            edges.append((a, b, cback[col]))
        out.append(Tree.make(verts, edges))
    return out


def partition_complete(c: EdgeColoring, trace: list | None = None) -> TreePartition:
    """Partition a complete edge-colored graph into rainbow trees.

    The tree count is guaranteed at most ceil((n - t) / 2) by construction;
    pass a list as `trace` to collect one record per recursion level
    (n, r, accepted swap moves, largest component, component count).
    """
    require_valid(validate(c))
    if not c.complete:
        raise ValueError("partition_complete requires a complete graph")
    result = TreePartition(tuple(_construct(c, c, trace)))
    ok, why = is_partition_valid(c, result)
    if not ok:
        raise _defect(f"constructed partition is invalid: {why}", c)
    bound = partition_number(c.n, c.r)
    if result.count > bound:
        raise _defect(
            f"constructed {result.count} trees, above the bound {bound} (n={c.n}, r={c.r})",
            c,
        )
    return result
