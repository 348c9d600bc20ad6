"""Polynomial-time rainbow tree partition of an edge-colored complete graph.

The algorithm keeps one representative edge per color and hill-climbs: while
some single representative reassignment strictly enlarges the largest
component of the chosen edges, apply the first such move (colors scanned in
increasing order, replacement edges in lexicographic order).  The search
stops at once when the largest component already has r + 1 vertices, or
every live one, which no r edges can exceed; otherwise one bridge pass
over the chosen edges tells, for every color, how dropping its
representative splits the components, and each replacement edge is judged
in O(1).  At a local optimum the largest component is split off as one
rainbow tree: its edges all carry distinct colors, so any spanning tree of
it is rainbow, and the tree taken is that component's part of the spanning
forest the representative subgraph kept when it was built (Kruskal over the
representatives in lexicographic order).  The next level runs on the
complete graph induced by the remaining vertices.

All levels work in place on the input coloring: the split-off vertices are
marked dead, and each color's representative at a new level is its first
lexicographic edge with no dead end.  A cursor finds it, moving only forward
through the color's packed class (one int u << 16 | v per edge, in
lexicographic order, from EdgeColoring.color_classes).  The class edges of
row u are contiguous, so a dead u lets the cursor jump past them all by
bisection.  A level's n and r count the live vertices and the colors that
still have a live edge.

Base case: with at most one color left (r = 0 means one live vertex) a
maximum matching plus an optional singleton is optimal.

The number of trees produced is asserted against the closed-form bound
ceil((n - t) / 2) at every call; a violation raises ConstructionDefect
carrying the serialized instance, it is never accepted silently.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .coloring import (
    EdgeColoring,
    Tree,
    TreePartition,
    edge_pair,
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

    rep_edges: Mapping  # color -> (u, v), read-only
    components: tuple  # frozensets, sorted by (-size, min vertex)
    forest: tuple      # (u, v), u < v: the edges that join components, in order

    @classmethod
    def from_edges(cls, rep_edges: dict) -> "RepresentativeSubgraph":
        """The components spanned by the given color -> edge choice, and the
        spanning forest Kruskal keeps when it reads the edges in
        lexicographic order."""
        edges = sorted((min(e), max(e)) for e in rep_edges.values())
        verts = sorted({x for e in edges for x in e})
        index = {v: i for i, v in enumerate(verts)}
        uf = UnionFind(len(verts))
        forest = tuple(e for e in edges if uf.union(index[e[0]], index[e[1]]))
        groups: dict[int, set] = {}
        for v in verts:
            groups.setdefault(uf.find(index[v]), set()).add(v)
        comps = sorted(groups.values(), key=lambda g: (-len(g), min(g)))
        return cls(MappingProxyType(dict(rep_edges)), tuple(frozenset(g) for g in comps), forest)

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
    return RepresentativeSubgraph.from_edges(
        {col: edge_pair(codes[0]) for col, codes in classes.items()})


def find_swap(s: RepresentativeSubgraph, c: EdgeColoring, alive=None) -> SwapMove | None:
    """First single-representative reassignment that strictly increases the
    largest component, or None when the subgraph is locally maximal.

    Only edges with both ends in `alive` (a collection of vertices holding
    every representative edge; default: every vertex) are candidates;
    colors are scanned in increasing order, each color's edges in
    lexicographic order.  The r representatives never span a component of
    more than r + 1 vertices, nor of more than the n' vertices in `alive`,
    so a largest component of that order returns None at once.

    Dropping one representative only splits a component, so every component
    left has order at most n1 = s.largest_size: a replacement edge grows
    the largest component exactly when it joins two components of total
    order above n1, and that total is then the new largest order.  The
    dropped edge itself never qualifies, as it at most rejoins its old
    component.  A vertex on no representative edge is a singleton and
    n1 >= 2, so a qualifying edge has an end on some representative edge:
    only those edges are read.

    Each endpoint's component and each component's order are read from
    s.components.  One depth-first pass over the representative graph gives
    each vertex its entry and exit times tin/tout and its low-link, which
    finds the bridges (Tarjan, Inf. Process. Lett. 2 (1974)).  Dropping a
    representative that is no bridge leaves the components as they are;
    dropping a bridge whose end away from the DFS root is x cuts off
    exactly the vertices y of that component with tin[x] <= tin[y] <
    tout[x].  Each candidate is so judged in O(1), and a call costs
    O(n'·|T| + r) for the set T of representative endpoints.
    """
    if not c.complete:
        raise ValueError("find_swap requires a complete graph")
    n1 = s.largest_size
    if n1 >= min(len(s.rep_edges) + 1, c.n if alive is None else len(alive)):
        return None
    seq = c.color_sequence
    verts = range(c.n) if alive is None else sorted(alive)
    adj: dict = {}  # representative endpoint -> [(neighbour, color)]
    for color, (u, v) in s.rep_edges.items():
        adj.setdefault(u, []).append((v, color))
        adj.setdefault(v, []).append((u, color))
    live_touched = [x for x in verts if x in adj]
    # candidate edges of each color, in lexicographic order
    cands: dict = {color: [] for color in s.rep_edges}
    for i, u in enumerate(verts):
        if u in adj:
            partners = verts[i + 1:]
        else:
            partners = live_touched[bisect_right(live_touched, u):]
        row = row_offset(c.n, u)  # (u, v) sits at seq[row + v]
        for v in partners:
            bucket = cands.get(seq[row + v])
            if bucket is not None:
                bucket.append((u, v))
    # each endpoint's component, and each component's order, by component id
    comp = {v: k for k, g in enumerate(s.components) for v in g}
    order = [len(g) for g in s.components]
    # one iterative DFS: tin, tout and low of each endpoint, and the end away
    # from the root of each bridge, keyed by the bridge's color
    tin: dict = {}
    tout: dict = {}
    low: dict = {}
    child: dict = {}
    clock = 0
    for root in adj:
        if root in tin:
            continue
        tin[root] = low[root] = clock
        clock += 1
        stack = [(root, None, iter(adj[root]))]
        while stack:
            x, via, it = stack[-1]
            for y, color in it:
                if color == via:
                    continue
                if y in tin:
                    low[x] = min(low[x], tin[y])
                    continue
                tin[y] = low[y] = clock
                clock += 1
                stack.append((y, color, iter(adj[y])))
                break
            else:
                stack.pop()
                tout[x] = clock
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[x])
                    if low[x] > tin[p]:
                        child[via] = x
    cut_off = len(order)  # label of the side a dropped bridge cuts off
    cut = lo = hi = -1

    def part(v):
        """Label and order of v's component once the scanned color is dropped."""
        if v not in comp:
            return -1 - v, 1
        k = comp[v]
        if k != cut:
            return k, order[k]
        if lo <= tin[v] < hi:
            return cut_off, hi - lo
        return k, order[k] - (hi - lo)

    for color in sorted(s.rep_edges):
        x = child.get(color)
        if x is None:
            cut = -1
        else:
            cut, lo, hi = comp[x], tin[x], tout[x]
        for g in cands[color]:
            (a, size_a), (b, size_b) = part(g[0]), part(g[1])
            if a != b and size_a + size_b > n1:
                return SwapMove(color, s.rep_edges[color], g, size_a + size_b)
    return None


def apply_swap(s: RepresentativeSubgraph, move: SwapMove) -> RepresentativeSubgraph:
    reps = dict(s.rep_edges)
    reps[move.color] = move.new_edge
    return RepresentativeSubgraph.from_edges(reps)


def _defect(message: str, c: EdgeColoring) -> ConstructionDefect:
    return ConstructionDefect(message, instance_text=format_coloring(c))


def _construct(c: EdgeColoring, trace: list) -> list[Tree]:
    classes = c.color_classes()
    cursor = dict.fromkeys(sorted(classes), 0)  # first edge of each class not yet dead
    dead = bytearray(c.n)
    live = list(range(c.n))
    out: list[Tree] = []
    while live:
        reps = {}
        for color, i in cursor.items():
            codes = classes[color]
            end = len(codes)
            while i < end:
                code = codes[i]
                u, v = code >> 16, code & 0xFFFF  # edge_pair(code), inlined
                if dead[u]:  # the rest of row u is dead too: jump past it
                    i = bisect_left(codes, (u + 1) << 16, i + 1)
                elif dead[v]:
                    i += 1
                else:
                    reps[color] = u, v
                    break
            cursor[color] = i
        n, r = len(live), len(reps)
        if r <= 1:  # one live vertex (r = 0) or one color
            trace.append({"n": n, "r": r, "moves": 0, "largest": min(n, 2), "components": 0})
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
        trace.append({"n": n, "r": r, "moves": moves, "largest": n1, "components": k})

        largest = s.components[0]
        out.append(Tree.make(largest, [(u, v, c.color_of(u, v)) for u, v in s.forest
                                       if u in largest]))
        for v in largest:
            dead[v] = 1
        live = [v for v in live if not dead[v]]
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
    result = TreePartition(tuple(_construct(c, [] if trace is None else trace)))
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
