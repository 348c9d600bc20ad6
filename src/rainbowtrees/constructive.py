"""Polynomial-time rainbow tree partition of an edge-colored complete graph.

The algorithm keeps one representative edge per color and hill-climbs: while
some single representative reassignment strictly enlarges the largest
component of the chosen edges, apply the first such move (colors scanned in
increasing order, replacement edges in lexicographic order).  At a local
optimum the largest component is split off as one rainbow tree (its edges
all carry distinct colors, so any spanning tree of it is rainbow) and the
next level runs on the complete graph induced by the remaining vertices.

All levels work in place on the input coloring: the split-off vertices are
marked dead, and each color's representative at a new level is its first
lexicographic edge with no dead end, found by a cursor into the color's
edge list that only moves forward.  A level's n and r count the live
vertices and the colors that still have a live edge.

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
    restrict,  # not called here; bench/spans.py traces it under this module name
    row_offset,
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


def find_swap(s: RepresentativeSubgraph, c: EdgeColoring, alive=None) -> SwapMove | None:
    """First single-representative reassignment that strictly increases the
    largest component, or None when the subgraph is locally maximal.

    Only edges with both ends in `alive` (default: every vertex) are
    candidates; colors are scanned in increasing order, each color's edges
    in lexicographic order.  Dropping one representative only splits a
    component, so every component left has order at most n1 =
    s.largest_size: a replacement edge grows the largest component exactly
    when it joins two components of total order above n1, and that total
    is then the new largest order.  The dropped edge itself never
    qualifies, as it at most rejoins its old component.  A vertex on no
    representative edge is a singleton and n1 >= 2, so a qualifying edge
    has an end on some representative edge: only those edges are read, and
    the union-find of each color spans only the representative endpoints.
    A call costs O(r·n' + r^2) for n' vertices in `alive`, plus two
    n-entry arrays built once.
    """
    if not c.complete:
        raise ValueError("find_swap requires a complete graph")
    seq, n1 = c.color_sequence, s.largest_size
    verts = range(c.n) if alive is None else sorted(alive)
    touched = sorted({x for e in s.rep_edges.values() for x in e})
    slot = {x: i for i, x in enumerate(touched)}
    live_touched = [x for x in verts if x in slot]
    # candidate edges of each color, in lexicographic order
    cands: dict = {color: [] for color in s.rep_edges}
    j = 0
    for i, u in enumerate(verts):
        if u in slot:
            partners = verts[i + 1:]
        else:
            while j < len(live_touched) and live_touched[j] < u:
                j += 1
            partners = live_touched[j:]
        row = row_offset(c.n, u)  # (u, v) sits at seq[row + v]
        for v in partners:
            bucket = cands.get(seq[row + v])
            if bucket is not None:
                bucket.append((u, v))
    # component label and order of each vertex, representatives minus one
    # color; a vertex off the representatives keeps its own label and order 1
    label = list(range(c.n))
    size = [1] * c.n
    for color in sorted(s.rep_edges):
        uf = UnionFind(len(touched))
        for col2, (u, v) in s.rep_edges.items():
            if col2 != color:
                uf.union(slot[u], slot[v])
        for i, x in enumerate(touched):
            root = uf.find(i)
            label[x] = touched[root]
            size[touched[root]] = uf.size[root]
        for g in cands[color]:
            a, b = label[g[0]], label[g[1]]
            if a != b and size[a] + size[b] > n1:
                return SwapMove(color, s.rep_edges[color], g, size[a] + size[b])
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


def _construct(c: EdgeColoring, trace: list | None) -> list[Tree]:
    classes = c.color_classes()
    cursor = dict.fromkeys(sorted(classes), 0)  # first edge of each class not yet dead
    dead = bytearray(c.n)
    live = list(range(c.n))
    out: list[Tree] = []
    while True:
        reps = {}
        for color, i in cursor.items():
            es = classes[color]
            while i < len(es) and (dead[es[i][0]] or dead[es[i][1]]):
                i += 1
            cursor[color] = i
            if i < len(es):
                reps[color] = es[i]
        n, r = len(live), len(reps)
        if n == 1:
            if trace is not None:
                trace.append({"n": n, "r": r, "moves": 0, "largest": 1, "components": 0})
            return out + [Tree.make(live)]
        if r == 1:
            if trace is not None:
                trace.append({"n": n, "r": r, "moves": 0, "largest": 2, "components": 0})
            return out + matching_trees(c, live)

        s = RepresentativeSubgraph.from_edges(reps)
        moves = 0
        while (move := find_swap(s, c, live)) is not None:
            s = apply_swap(s, move)
            moves += 1
            if moves > n - 2:
                raise _defect(f"hill-climb exceeded {n - 2} moves at n={n}, r={r}", c)

        n1 = s.largest_size
        k = s.component_count
        t = f_of_r(r)
        if k == 1 and n1 < t + 2 and n1 != n:
            raise _defect(
                f"locally maximal single component has order {n1} < t+2 = {t + 2} (n={n}, r={r})",
                c,
            )
        if trace is not None:
            trace.append({"n": n, "r": r, "moves": moves, "largest": n1, "components": k})

        out.append(_spanning_tree_of_component(c, s))
        for v in s.components[0]:
            dead[v] = 1
        live = [v for v in live if not dead[v]]
        if not live:
            return out


def partition_complete(c: EdgeColoring, trace: list | None = None) -> TreePartition:
    """Partition a complete edge-colored graph into rainbow trees.

    The tree count is guaranteed at most ceil((n - t) / 2) by construction;
    pass a list as `trace` to collect one record per level
    (n, r, accepted swap moves, largest component, component count).
    """
    require_valid(validate(c))
    if not c.complete:
        raise ValueError("partition_complete requires a complete graph")
    result = TreePartition(tuple(_construct(c, trace)))
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
