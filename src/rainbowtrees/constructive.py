"""Polynomial-time rainbow tree partition of an edge-colored complete graph.

The algorithm keeps one representative edge per color and hill-climbs: while
some single representative reassignment strictly enlarges the largest
component of the chosen edges, apply the first such move (colors scanned in
increasing order, replacement edges in lexicographic order).  The search
stops at once when the largest component already has r + 1 vertices, or
every live one, which no r edges can exceed; otherwise one bridge pass
over the chosen edges tells, for every color, how dropping its
representative splits the components, a color whose split leaves no two
parts large enough is not searched, and each replacement edge is judged
in O(1).  The candidates are the live edges with an end in a component of
more than half the largest order: the pairs that enter that set from a
smaller vertex are bucketed by color up front, and a color's edges in the
set's own rows are read from its packed class only when the scan reaches
that color, so the colors after the first move are never read.

At a local optimum the largest component is split off as one rainbow tree:
its edges all carry distinct colors, so any spanning tree of it is rainbow,
and the tree taken is that component's part of the spanning forest the
representative subgraph kept when it was built (Kruskal over the
representatives in lexicographic order, in one merge pass that also yields
the components).  The next level runs on the complete graph induced by the
remaining vertices.

All levels work in place on the input coloring: the split-off vertices are
marked dead, and each color's representative at a new level is its first
lexicographic edge with no dead end.  A cursor finds it, moving only forward
through the color's packed class (one int u << 16 | v per edge, in
lexicographic order, from EdgeColoring.color_classes).  The class edges of
row u are contiguous, so a dead u lets the cursor jump by bisection to the
row of the next live vertex, past every dead row between, or to the end of
the class when no live vertex follows.  A level's n and r count the live
vertices and the colors that still have a live edge.

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
    _defect,
    edge_pair,
    is_partition_valid,
    matching_trees,
    require_valid,
    restrict,  # not called here; bench/spans.py traces it under this module name
    row_offset,
    validate,
)
from .formula import f_of_r, partition_number


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
        lexicographic order.  One pass over the sorted edges keeps each
        endpoint's component as a list, and an edge that joins two lists
        enters the forest and moves the smaller list into the larger."""
        group: dict = {}  # endpoint -> the list of its component's vertices
        forest = []
        for u, v in sorted((min(e), max(e)) for e in rep_edges.values()):
            a = group.setdefault(u, [u])
            b = group.setdefault(v, [v])
            if a is b:
                continue
            forest.append((u, v))
            if len(a) < len(b):
                a, b = b, a
            a += b
            for x in b:
                group[x] = a
        comps = sorted({id(g): g for g in group.values()}.values(), key=lambda g: (-len(g), min(g)))
        return cls(MappingProxyType(dict(rep_edges)), tuple(frozenset(g) for g in comps),
                   tuple(forest))

    @property
    def largest_size(self) -> int:
        """Order of the largest component; 0 when no edge was chosen."""
        return len(self.components[0]) if self.components else 0

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
    so a largest component of that order returns None at once.  Past that,
    a vertex of `alive` that is not an int (a bool included) in 0..n-1, or a
    representative endpoint not in `alive`, raises ValueError.

    Dropping one representative only splits a component, so every component
    left has order at most n1 = s.largest_size: a replacement edge grows
    the largest component exactly when it joins two components of total
    order above n1, and that total is then the new largest order.  The
    dropped edge itself never qualifies, as it at most rejoins its old
    component.  One of the two joined parts has order above n1 / 2, and
    each part lies inside a component of s (a vertex on no representative
    edge is a singleton part), so a qualifying edge has an end in a
    component of order above n1 / 2: only those edges are read, for the
    set B of vertices in such components (all of them in `alive`).  The
    column pairs (u, b) with u not in B and u < b in B are bucketed by
    color in one pass over the rows before the last vertex of B.  The row
    edges (b, v), b in B, of a color are read from its packed class
    (EdgeColoring.color_classes) only when the scan reaches that color: a
    bisection finds the class's first row of B, a row not in B is jumped by
    bisection to the next row of B, and an edge to a vertex not in `alive`
    is passed over.  The color's first qualifying column pair (u, b), if
    any, bounds the walk to the rows before u, so its candidates are judged
    as one merged lexicographic sequence.

    Each endpoint's component and each component's order are read from
    s.components.  One depth-first pass over the representative graph gives
    each vertex its entry and exit times tin/tout and its low-link, which
    finds the bridges (Tarjan, Inf. Process. Lett. 2 (1974)).  Dropping a
    representative that is no bridge leaves the components as they are;
    dropping a bridge whose end away from the DFS root is x cuts off
    exactly the vertices y of that component with tin[x] <= tin[y] <
    tout[x].  A color whose dropped bridge leaves no two parts of total
    order above n1 (a bridge of the largest component, whose sides are
    both at least as large as every other part) has no qualifying edge,
    and none of its edges is read.  Each candidate is judged in O(1).  A
    call costs O((n' - |B|)·|B| + r) for the buckets and the bridge pass,
    plus, for each color the scan reaches, O(log n') bisections and one
    step per class edge in the rows of B before the bound: a color with no
    edge in those rows costs O(1) bisections.
    """
    if not c.complete:
        raise ValueError("find_swap requires a complete graph")
    n, n1 = c.n, s.largest_size
    if n1 == 0 or n1 >= min(len(s.rep_edges) + 1, n if alive is None else len(alive)):
        return None
    verts = range(n) if alive is None else sorted(alive)
    if not set(map(type, verts)) <= {int} or verts[0] < 0 or verts[-1] >= n:
        raise ValueError(f"alive holds a vertex outside 0..{n - 1}")
    is_live = bytearray(n)
    for v in verts:
        is_live[v] = 1
    adj: dict = {}  # representative endpoint -> [(neighbour, color)]
    for color, (u, v) in s.rep_edges.items():
        if not (0 <= u < n and 0 <= v < n and is_live[u] and is_live[v]):
            raise ValueError(f"representative edge ({u}, {v}) of color {color} leaves alive")
        adj.setdefault(u, []).append((v, color))
        adj.setdefault(v, []).append((u, color))
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
    # the sides of a bridge of component 0 sum to n1, so two parts join
    # above n1 unless the largest other part (a singleton when there is no
    # other component, as n1 < n' leaves a live vertex outside it) is no
    # larger than either side; any other drop leaves a part of order n1
    other = order[1] if len(order) > 1 else 1
    open_colors = []
    for color in sorted(s.rep_edges):
        x = child.get(color)
        if x is not None and comp[x] == 0:
            side = tout[x] - tin[x]
            if other <= min(side, n1 - side):
                continue
        open_colors.append(color)
    # B: the vertices in components of order above n1 / 2, every one of them
    # alive, as every representative endpoint is.  The column pairs (u, b),
    # u < b, u alive and not in B, of each open color, in lexicographic
    # order; rows past the last vertex of B hold none
    big = sorted(v for g in s.components if 2 * len(g) > n1 for v in g)
    in_big = bytearray(n)
    for b in big:
        in_big[b] = 1
    cols: dict = {color: [] for color in open_colors}
    seq = c.color_sequence
    for u in verts[:bisect_left(verts, big[-1])]:
        if in_big[u]:
            continue
        row = row_offset(n, u)  # (u, v) sits at seq[row + v]
        for b in big[bisect_right(big, u):]:
            bucket = cols.get(seq[row + b])
            if bucket is not None:
                bucket.append((u, b))
    classes = c.color_classes()
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

    def grown(u, v):
        """Order of the part the edge (u, v) forms, or 0 when it is no larger than n1."""
        (a, size_a), (b, size_b) = part(u), part(v)
        return size_a + size_b if a != b and size_a + size_b > n1 else 0

    for color in open_colors:
        x = child.get(color)
        if x is None:
            cut = -1
        else:
            cut, lo, hi = comp[x], tin[x], tout[x]
        # the first qualifying column pair, then the first qualifying row
        # edge (b, v) of B before its row: whichever comes first is the
        # color's first qualifying edge in lexicographic order
        best = None
        for g in cols[color]:
            if size := grown(*g):
                best = g, size
                break
        codes = classes[color]
        end = len(codes) if best is None else bisect_left(codes, best[0][0] << 16)
        i = bisect_left(codes, big[0] << 16, 0, end)
        while i < end:
            code = codes[i]
            b, v = code >> 16, code & 0xFFFF  # edge_pair(code), inlined
            if not in_big[b]:  # jump to the row of the next vertex of B
                j = bisect_right(big, b)
                i = end if j == len(big) else bisect_left(codes, big[j] << 16, i + 1, end)
                continue
            if is_live[v] and (size := grown(b, v)):
                best = (b, v), size
                break
            i += 1
        if best is not None:
            return SwapMove(color, s.rep_edges[color], *best)
    return None


def apply_swap(s: RepresentativeSubgraph, move: SwapMove) -> RepresentativeSubgraph:
    reps = dict(s.rep_edges)
    reps[move.color] = move.new_edge
    return RepresentativeSubgraph.from_edges(reps)


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
                if dead[u]:  # jump to the row of the next live vertex
                    j = bisect_right(live, u)
                    i = end if j == len(live) else bisect_left(codes, live[j] << 16, i + 1)
                elif dead[v]:
                    i += 1
                else:
                    reps[color] = u, v
                    break
            cursor[color] = i
        n, r = len(live), len(reps)
        if r <= 1:  # one live vertex (r = 0) or one color
            trace.append({"n": n, "r": r, "moves": 0, "largest": min(n, 2), "components": 0})
            return out + matching_trees(live)

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

        largest = s.components[0]  # its forest edges, u < v, are in lexicographic order
        out.append(Tree(largest, tuple(e for e in s.forest if e[0] in largest)))
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
