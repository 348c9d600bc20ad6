"""Edge-colored graphs and rainbow tree partitions: data model, validation, I/O.

Vertices are integers 0..n-1, colors are integers 1..r, and every color must
appear on at least one edge.  Edges are unordered pairs, normally stored as
(u, v) with u < v.  A coloring may describe any simple graph; the `complete`
flag marks the usual case where the edge set is all C(n, 2) pairs.  The one
degenerate case is the single-vertex graph, which has r = 0.

Values are immutable and all operations here are pure functions, so they
are safe to share across concurrent workers.  A coloring of K_n stores its
edge colors as one tuple in lexicographic edge order.

File formats
------------
Coloring file: the first data line is ``n r``, then one line ``u v c`` per
edge with 0 <= u < v < n and 1 <= c <= r.  Lines starting with ``#`` are
comments, blank lines are skipped, duplicate edges are rejected, and
completeness is inferred from the edge count.  Writing is deterministic
(edges in lexicographic order), so equal colorings produce identical files.

Partition file: one line per tree, for example::

    tree 0 2 3 ; edges (0,2) (2,3)
    tree 4 ; edges

Edge colors are not stored in partition files; they are looked up from the
accompanying coloring when the file is read back.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from types import MappingProxyType

from .errors import FileFormatError
from .unionfind import UnionFind


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validate()."""

    code: str
    info: tuple = ()

    def __str__(self) -> str:
        if self.info:
            return f"{self.code}{self.info!r}"
        return self.code


def edge_index(n: int, u: int, v: int) -> int:
    """Position of the edge (u, v), 0 <= u < v < n, in the lexicographic
    edge order of K_n."""
    return u * (2 * n - u - 3) // 2 + v - 1


def row_offset(n: int, u: int) -> int:
    """Where row u starts in the lexicographic edge order of K_n:
    edge_index(n, u, v) == row_offset(n, u) + v for every v > u."""
    return u * (2 * n - u - 3) // 2 - 1


class EdgeColoring:
    """An immutable edge-colored simple graph.

    `colors` is either a mapping from vertex pairs to colors or, for K_n, a
    sequence of the C(n, 2) edge colors in lexicographic edge order.  A
    coloring whose pairs are exactly those of K_n stores one color tuple in
    that order; any other pair set is kept as a sorted tuple of the pairs
    as given, so validate() can still report malformed ones.  The input is
    copied, and `colors` is a read-only mapping view of the stored data.
    The constructor does not check the invariants (vertex ranges, color
    surjectivity, completeness); use validate() for that.
    """

    __slots__ = ("n", "r", "complete", "_pairs", "_cols", "_classes")

    def __init__(self, n: int, r: int, colors, complete: bool | None = None):
        m = comb(n, 2)
        if not isinstance(colors, Mapping):
            cols = tuple(colors)
            if len(cols) != m:
                raise ValueError(f"a color sequence for K_{n} needs {m} colors, got {len(cols)}")
            pairs = None
        elif len(colors) == m and all(
            isinstance(u, int) and isinstance(v, int) and 0 <= u < v < n for u, v in colors
        ):
            placed = [None] * m
            for (u, v), col in colors.items():
                placed[edge_index(n, u, v)] = col
            cols, pairs = tuple(placed), None
        else:
            items = sorted(colors.items())
            pairs = tuple(e for e, _ in items)
            cols = tuple(col for _, col in items)
        if complete is None:
            complete = len(cols) == m
        for name, value in zip(self.__slots__, (n, r, complete, pairs, cols, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"EdgeColoring is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"EdgeColoring is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return EdgeColoring, (self.n, self.r, dict(self.colors), self.complete)

    def __eq__(self, other):
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return (self.n, self.r, self.complete, self._pairs, self._cols) == (
            other.n, other.r, other.complete, other._pairs, other._cols)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"EdgeColoring(n={self.n}, r={self.r}, colors={dict(self.colors)!r}, "
                f"complete={self.complete})")

    @property
    def colors(self) -> Mapping:
        """Read-only mapping (u, v) -> color over the stored pairs."""
        return _ColorView(self)

    @property
    def num_edges(self) -> int:
        return len(self._cols)

    def _pairs_in_order(self):
        if self._pairs is not None:
            return self._pairs
        return combinations(range(self.n), 2)

    def _position(self, u, v) -> int:
        """Storage index of the pair (u, v) exactly as stored, or -1."""
        if self._pairs is None:
            return edge_index(self.n, u, v) if 0 <= u < v < self.n else -1
        i = bisect_left(self._pairs, (u, v))
        return i if i < len(self._pairs) and self._pairs[i] == (u, v) else -1

    def has_edge(self, u: int, v: int) -> bool:
        return self._position(u, v) >= 0 or self._position(v, u) >= 0

    def color_of(self, u: int, v: int) -> int:
        i = self._position(u, v)
        if i < 0:
            i = self._position(v, u)
            if i < 0:
                raise KeyError((u, v))
        return self._cols[i]

    @property
    def color_sequence(self) -> tuple[int, ...]:
        """The C(n, 2) edge colors in lexicographic edge order, as the
        constructor takes them for K_n; ValueError for any other storage."""
        if self._pairs is not None:
            raise ValueError("color_sequence requires a coloring stored as K_n")
        return self._cols

    def edges(self) -> list[tuple[int, int, int]]:
        """All edges as (u, v, color) with u < v, in lexicographic order."""
        if self._pairs is None:
            n, cols = self.n, iter(self._cols)
            return [(u, v, next(cols)) for u in range(n) for v in range(u + 1, n)]
        out = [(min(u, v), max(u, v), c) for (u, v), c in zip(self._pairs, self._cols)]
        out.sort()  # only pairs stored as (v, u) can be out of order
        return out

    def color_classes(self) -> Mapping[int, tuple[tuple[int, int], ...]]:
        """Map each color to its lexicographically sorted edges (read-only,
        computed once per coloring)."""
        if self._classes is None:
            if self._pairs is None:
                pairs, cols = self._pairs_in_order(), self._cols
            else:
                edges = self.edges()
                pairs, cols = [(u, v) for u, v, _ in edges], [c for _, _, c in edges]
            classes = {c: [] for c in dict.fromkeys(cols)}
            for e, c in zip(pairs, cols):
                classes[c].append(e)
            frozen = MappingProxyType({c: tuple(es) for c, es in classes.items()})
            object.__setattr__(self, "_classes", frozen)
        return self._classes


class _ColorView(Mapping):
    """The `colors` mapping of an EdgeColoring, backed by its storage."""

    __slots__ = ("_c",)

    def __init__(self, c: EdgeColoring):
        self._c = c

    def __getitem__(self, key):
        try:
            u, v = key
            i = self._c._position(u, v)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if i < 0:
            raise KeyError(key)
        return self._c._cols[i]

    def __iter__(self):
        return iter(self._c._pairs_in_order())

    def __len__(self) -> int:
        return len(self._c._cols)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class Tree:
    """One tree of a partition: a vertex set plus colored edges."""

    vertices: frozenset
    edges: tuple

    @classmethod
    def make(cls, vertices, edges=()) -> "Tree":
        return cls(frozenset(vertices), tuple(sorted(edges)))


@dataclass(frozen=True)
class TreePartition:
    """Vertex-disjoint trees covering all vertices of a coloring."""

    trees: tuple

    @property
    def count(self) -> int:
        return len(self.trees)

    def covered_vertices(self) -> frozenset:
        out: set = set()
        for t in self.trees:
            out |= t.vertices
        return frozenset(out)


def rainbow_complete(n: int) -> EdgeColoring:
    """K_n with every edge its own color, in lexicographic edge order."""
    m = comb(n, 2)
    return EdgeColoring(n, m, range(1, m + 1), complete=True)


def monochromatic_complete(n: int) -> EdgeColoring:
    """K_n with every edge colored 1 (r = 0 for the single-vertex graph)."""
    return EdgeColoring(n, 1 if n >= 2 else 0, (1,) * comb(n, 2), complete=True)


def validate(c: EdgeColoring) -> list[Violation]:
    """Check every invariant; return all violations (empty list = valid)."""
    out: list[Violation] = []
    n, r = c.n, c.r
    if n < 1:
        out.append(Violation("BadVertexCount", (n,)))
        return out
    if n == 1:
        if r != 0:
            out.append(Violation("BadColorCount", (r,)))
    elif r < 1:
        out.append(Violation("BadColorCount", (r,)))

    used_colors = set(c._cols)
    if c._pairs is not None or not (
        all(isinstance(col, int) for col in used_colors)
        and (not used_colors or (min(used_colors) >= 1 and max(used_colors) <= r))
    ):
        # pairs given as a mapping, or a bad color: check edge by edge
        seen: set = set()
        used_colors = set()
        for (u, v), col in zip(c._pairs_in_order(), c._cols):
            ints = isinstance(u, int) and isinstance(v, int)
            if not (ints and 0 <= u < v < n):
                out.append(Violation("BadVertex", (u, v)))
            if ints:
                norm = (u, v) if u <= v else (v, u)
                if norm in seen:
                    out.append(Violation("DuplicateEdge", norm))
                seen.add(norm)
            if not (isinstance(col, int) and 1 <= col <= r):
                out.append(Violation("BadColor", (u, v, col)))
            else:
                used_colors.add(col)
    for col in range(1, r + 1):
        if col not in used_colors:
            out.append(Violation("MissingColor", (col,)))
    if c.complete and c.num_edges != comb(n, 2):
        out.append(Violation("IncompleteGraph", (c.num_edges, comb(n, 2))))
    return out


def require_valid(violations: list[Violation], path=None) -> None:
    """Raise unless `violations`, the result of validate(), is empty.

    The error is a FileFormatError naming `path` when the coloring was read
    from that file, else a ValueError.
    """
    if violations:
        message = "invalid coloring: " + ", ".join(str(v) for v in violations)
        if path is None:
            raise ValueError(message)
        raise FileFormatError(f"{path}: {message}")


def is_partition_valid(c: EdgeColoring, p: TreePartition) -> tuple[bool, str | None]:
    """True iff p is a family of vertex-disjoint rainbow trees covering c.

    Returns (ok, first_violation_message).
    """
    if not p.trees:
        return False, "partition has no trees"
    covered: set = set()
    for i, t in enumerate(p.trees):
        if not t.vertices:
            return False, f"tree {i} is empty"
        overlap = covered & t.vertices
        if overlap:
            return False, f"vertex {min(overlap)} appears in more than one tree"
        covered |= t.vertices
        for v in t.vertices:
            if not (0 <= v < c.n):
                return False, f"tree {i} contains out-of-range vertex {v}"
        if len(t.edges) != len(t.vertices) - 1:
            return False, f"tree {i} has {len(t.edges)} edges for {len(t.vertices)} vertices"
        index = {v: j for j, v in enumerate(sorted(t.vertices))}
        uf = UnionFind(len(index))
        tree_colors: set = set()
        for (u, v, col) in t.edges:
            if u not in t.vertices or v not in t.vertices:
                return False, f"tree {i} edge ({u},{v}) leaves its vertex set"
            if not c.has_edge(u, v):
                return False, f"tree {i} edge ({u},{v}) is not in the graph"
            if c.color_of(u, v) != col:
                return False, f"tree {i} edge ({u},{v}) recorded with wrong color {col}"
            if col in tree_colors:
                return False, f"tree {i} repeats color {col}"
            tree_colors.add(col)
            if not uf.union(index[u], index[v]):
                return False, f"tree {i} contains a cycle through ({u},{v})"
    if covered != set(range(c.n)):
        missing = min(set(range(c.n)) - covered)
        return False, f"vertex {missing} is not covered"
    return True, None


def merge_colors(c: EdgeColoring, src: int, dst: int) -> EdgeColoring:
    """Recolor every `src` edge to `dst`, then renumber colors densely.

    Colors above `src` shift down by one, so the result is a valid
    (r-1)-edge-coloring: `dst` only gains edges, every other color keeps its
    edges, and no color index is left unused.
    """
    if src == dst:
        raise ValueError("merge_colors requires two distinct colors")
    for col in (src, dst):
        if not 1 <= col <= c.r:
            raise ValueError(f"color {col} out of range 1..{c.r}")
    merged = []
    for col in c._cols:
        if col == src:
            col = dst
        if col > src:
            col -= 1
        merged.append(col)
    return EdgeColoring(c.n, c.r - 1, dict(zip(c.colors, merged)), complete=c.complete)


@dataclass(frozen=True)
class RestrictionMaps:
    """Old-to-new renumberings produced by restrict()."""

    vertex_map: dict
    color_map: dict

    def vertices_back(self) -> dict:
        return {new: old for old, new in self.vertex_map.items()}

    def colors_back(self) -> dict:
        return {new: old for old, new in self.color_map.items()}


def restrict(c: EdgeColoring, keep) -> tuple[EdgeColoring, RestrictionMaps]:
    """Induced coloring on `keep`, with vertices and colors renumbered.

    Vertices are renumbered 0..|keep|-1 in increasing order; surviving colors
    are renumbered 1..r0 preserving their relative order.
    """
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("restrict requires a nonempty vertex set")
    if kept[0] < 0 or kept[-1] >= c.n:
        raise ValueError("restrict vertex set out of range")
    vmap = {old: new for new, old in enumerate(kept)}
    if c._pairs is None:
        # K_n stays complete: pick the kept rows of the triangular color tuple
        seq, pairs, induced = c.color_sequence, None, []
        for i, u in enumerate(kept):
            row = row_offset(c.n, u)  # (u, v) sits at row + v
            induced.extend([seq[row + v] for v in kept[i + 1:]])
    else:
        keep_set = set(kept)
        pairs, induced = [], []
        for (u, v), col in zip(c._pairs, c._cols):
            if u in keep_set and v in keep_set:
                a, b = vmap[u], vmap[v]
                pairs.append((a, b) if a < b else (b, a))
                induced.append(col)
    surviving = sorted(set(induced))
    cmap = {old: new for new, old in enumerate(surviving, start=1)}
    recolored = [cmap[col] for col in induced]
    colors = recolored if pairs is None else dict(zip(pairs, recolored))
    sub = EdgeColoring(len(kept), len(surviving), colors)
    return sub, RestrictionMaps(vmap, cmap)


def matching_trees(c: EdgeColoring, vertices) -> list[Tree]:
    """Consecutive vertices paired into one-edge trees, plus a single-vertex
    tree for the last vertex when their number is odd."""
    trees = []
    for i in range(0, len(vertices) - 1, 2):
        a, b = vertices[i], vertices[i + 1]
        trees.append(Tree.make([a, b], [(a, b, c.color_of(a, b))]))
    if len(vertices) % 2 == 1:
        trees.append(Tree.make([vertices[-1]]))
    return trees


# ---------------------------------------------------------------------------
# file I/O


def format_coloring(c: EdgeColoring) -> str:
    lines = [f"{c.n} {c.r}"]
    for u, v, col in c.edges():
        lines.append(f"{u} {v} {col}")
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> EdgeColoring:
    n = r = None
    colors: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2:
                raise FileFormatError("expected header `n r`", lineno)
            try:
                n, r = int(parts[0]), int(parts[1])
            except ValueError:
                raise FileFormatError("header values must be integers", lineno) from None
            if n < 1 or r < 0:
                raise FileFormatError(f"bad header n={n} r={r}", lineno)
            continue
        if len(parts) != 3:
            raise FileFormatError("expected edge line `u v c`", lineno)
        try:
            u, v, col = (int(x) for x in parts)
        except ValueError:
            raise FileFormatError("edge values must be integers", lineno) from None
        if not 0 <= u < v < n:
            raise FileFormatError(f"bad edge ({u},{v}); need 0 <= u < v < {n}", lineno)
        if not 1 <= col <= r:
            raise FileFormatError(f"color {col} out of range 1..{r}", lineno)
        if (u, v) in colors:
            raise FileFormatError(f"duplicate edge ({u},{v})", lineno)
        colors[(u, v)] = col
    if n is None:
        raise FileFormatError("empty coloring file")
    return EdgeColoring(n, r, colors)


def read_coloring(path) -> EdgeColoring:
    return parse_coloring(Path(path).read_text())


def write_coloring(c: EdgeColoring, path) -> None:
    Path(path).write_text(format_coloring(c))


def format_partition(p: TreePartition) -> str:
    lines = []
    for t in p.trees:
        verts = " ".join(str(v) for v in sorted(t.vertices))
        edge_part = " ".join(f"({u},{v})" for u, v, _ in sorted(t.edges))
        line = f"tree {verts} ; edges"
        if edge_part:
            line += " " + edge_part
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_partition(text: str, c: EdgeColoring) -> TreePartition:
    trees = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ";" not in line:
            raise FileFormatError("expected `tree ... ; edges ...`", lineno)
        head, tail = line.split(";", 1)
        head_parts = head.split()
        if not head_parts or head_parts[0] != "tree":
            raise FileFormatError("tree line must start with `tree`", lineno)
        try:
            verts = [int(x) for x in head_parts[1:]]
        except ValueError:
            raise FileFormatError("tree vertices must be integers", lineno) from None
        if not verts:
            raise FileFormatError("tree has no vertices", lineno)
        tail_parts = tail.split()
        if not tail_parts or tail_parts[0] != "edges":
            raise FileFormatError("edge list must start with `edges`", lineno)
        edges = []
        for token in tail_parts[1:]:
            if not (token.startswith("(") and token.endswith(")")):
                raise FileFormatError(f"bad edge token {token!r}", lineno)
            try:
                u, v = (int(x) for x in token[1:-1].split(","))
            except ValueError:
                raise FileFormatError(f"bad edge token {token!r}", lineno) from None
            if not c.has_edge(u, v):
                raise FileFormatError(f"edge ({u},{v}) not present in the coloring", lineno)
            edges.append((min(u, v), max(u, v), c.color_of(u, v)))
        trees.append(Tree.make(verts, edges))
    return TreePartition(tuple(trees))


def read_partition(path, c: EdgeColoring) -> TreePartition:
    return parse_partition(Path(path).read_text(), c)


def write_partition(p: TreePartition, path) -> None:
    Path(path).write_text(format_partition(p))
