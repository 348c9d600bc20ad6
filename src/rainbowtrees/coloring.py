"""Edge-colored graphs and rainbow tree partitions: data model, validation, I/O.

Vertices are integers 0..n-1, colors are integers 1..r, and every color must
appear on at least one edge.  Edges are unordered pairs, stored as (u, v) with
u < v.  A coloring may describe any simple graph; the usual case is K_n,
whose edge set is all C(n, 2) pairs.  The one degenerate case is the
single-vertex graph, which has r = 0.

Values are immutable and all operations here are pure functions, so they
are safe to share across concurrent workers.  A coloring of K_n stores its
edge colors as one tuple in lexicographic edge order; the `colors` dict and
the packed color classes are derived from that storage on first use and
cached.

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

from array import array
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


def _is_int(x) -> bool:
    """An int that is not a bool (True == 1 folds into 1 in any set)."""
    return isinstance(x, int) and not isinstance(x, bool)


def edge_index(n: int, u: int, v: int) -> int:
    """Position of the edge (u, v), 0 <= u < v < n, in the lexicographic
    edge order of K_n."""
    return u * (2 * n - u - 3) // 2 + v - 1


def edge_pair(code: int) -> tuple[int, int]:
    """The edge (u, v) that EdgeColoring.color_classes() packs as u << 16 | v."""
    return code >> 16, code & 0xFFFF


def row_offset(n: int, u: int) -> int:
    """Where row u starts in the lexicographic edge order of K_n:
    edge_index(n, u, v) == row_offset(n, u) + v for every v > u."""
    return u * (2 * n - u - 3) // 2 - 1


class EdgeColoring:
    """An immutable edge-colored simple graph.

    `colors` is either a mapping from vertex pairs to colors or, for K_n, a
    sequence of the C(n, 2) edge colors in lexicographic edge order.  Every
    mapping key must be a pair (u, v) of ints, not bools, with 0 <= u < v <
    n, and a sequence must have exactly C(n, 2) colors; anything else raises
    ValueError.  A coloring whose pairs are exactly those of K_n stores one
    color tuple in that order, and any other pair set is kept as a sorted
    tuple of pairs.  The input is copied, and `colors` is a read-only dict
    (a MappingProxyType) built from the stored data on first access and
    cached, as is the set of color types that validate() reads.  The
    constructor does not check n, r or the colors (type, range and
    surjectivity); use validate() for that.
    """

    __slots__ = ("n", "r", "_pairs", "_cols", "_colors", "_classes", "_types")

    def __init__(self, n: int, r: int, colors):
        m = comb(n, 2)
        if not isinstance(colors, Mapping):
            cols = tuple(colors)
            if len(cols) != m:
                raise ValueError(f"a color sequence for K_{n} needs {m} colors, got {len(cols)}")
            pairs = None
        else:
            for key in colors:
                if not (isinstance(key, tuple) and len(key) == 2 and _is_int(key[0])
                        and _is_int(key[1]) and 0 <= key[0] < key[1] < n):
                    raise ValueError(f"edge {key!r} is not a pair (u, v) of ints with "
                                     f"0 <= u < v < {n}")
            if len(colors) == m:
                placed = [None] * m
                for (u, v), col in colors.items():
                    placed[edge_index(n, u, v)] = col
                cols, pairs = tuple(placed), None
            else:
                items = sorted(colors.items())
                pairs = tuple(e for e, _ in items)
                cols = tuple(col for _, col in items)
        for name, value in zip(self.__slots__, (n, r, pairs, cols, None, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"EdgeColoring is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"EdgeColoring is immutable; cannot delete {name!r}")

    def __reduce__(self):
        if self._pairs is None:
            return EdgeColoring, (self.n, self.r, self._cols)
        return EdgeColoring, (self.n, self.r, dict(zip(self._pairs, self._cols)))

    def __eq__(self, other):
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return (self.n, self.r, self._pairs, self._cols) == (
            other.n, other.r, other._pairs, other._cols)

    __hash__ = None

    def __repr__(self) -> str:
        return f"EdgeColoring(n={self.n}, r={self.r}, colors={dict(self.colors)!r})"

    @property
    def complete(self) -> bool:
        """True iff the edge set is all C(n, 2) pairs of K_n."""
        return self._pairs is None

    @property
    def colors(self) -> Mapping:
        """Read-only dict (u, v) -> color in lexicographic edge order
        (computed once per coloring)."""
        if self._colors is None:
            frozen = MappingProxyType(dict(zip(self._pairs_in_order(), self._cols)))
            object.__setattr__(self, "_colors", frozen)
        return self._colors

    def _pairs_in_order(self):
        if self._pairs is not None:
            return self._pairs
        return combinations(range(self.n), 2)

    def _position(self, u, v) -> int:
        """Storage index of the edge joining u and v, in either order, or -1."""
        if u > v:
            u, v = v, u
        if self._pairs is None:
            return edge_index(self.n, u, v) if 0 <= u < v < self.n else -1
        i = bisect_left(self._pairs, (u, v))
        return i if i < len(self._pairs) and self._pairs[i] == (u, v) else -1

    def has_edge(self, u: int, v: int) -> bool:
        return self._position(u, v) >= 0

    def color_of(self, u: int, v: int) -> int:
        i = self._position(u, v)
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
        return [(u, v, c) for (u, v), c in zip(self._pairs_in_order(), self._cols)]

    def color_classes(self) -> Mapping[int, memoryview]:
        """Map each color to its edges, packed: the edge (u, v) is the int
        u << 16 | v (edge_pair() decodes it), and each class is a read-only
        memoryview of unsigned ints in lexicographic edge order.  Colors
        appear in the order of their first edge.  Computed once per
        coloring; ValueError when n > 65536, which only a sparse coloring
        can have, since the C(n, 2) colors of K_65537 do not fit in memory.
        """
        if self._classes is None:
            if self.n > 0x10000:
                raise ValueError(f"color_classes packs vertices in 16 bits; n={self.n} > 65536")
            cols = self._cols
            classes = {c: array("I") for c in dict.fromkeys(cols)}
            for (u, v), c in zip(self._pairs_in_order(), cols):
                classes[c].append(u << 16 | v)
            frozen = MappingProxyType(
                {c: memoryview(codes.tobytes()).cast("I") for c, codes in classes.items()})
            object.__setattr__(self, "_classes", frozen)
        return self._classes


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


def rainbow_complete(n: int) -> EdgeColoring:
    """K_n with every edge its own color, in lexicographic edge order."""
    m = comb(n, 2)
    return EdgeColoring(n, m, range(1, m + 1))


def monochromatic_complete(n: int) -> EdgeColoring:
    """K_n with every edge colored 1 (r = 0 for the single-vertex graph)."""
    return EdgeColoring(n, 1 if n >= 2 else 0, (1,) * comb(n, 2))


def validate(c: EdgeColoring) -> list[Violation]:
    """Check n, r and the colors (the constructor already checked the
    pairs), a bool counting as no int; return all violations (empty list =
    valid)."""
    out: list[Violation] = []
    n, r = c.n, c.r
    if not _is_int(n) or n < 1:
        out.append(Violation("BadVertexCount", (n,)))
        return out
    # more colors than edges: report r once, not one MissingColor per color
    too_many = r > len(c._cols)
    if too_many or not _is_int(r) or (r != 0 if n == 1 else r < 1):
        out.append(Violation("BadColorCount", (r,)))

    # a set folds True into 1 and 2.0 into 2, so unless every color is a
    # plain int in range, each edge's color is checked; the type scan costs
    # more than the set, so it runs once per coloring
    if c._types is None:
        object.__setattr__(c, "_types", frozenset(map(type, c._cols)))
    used = set(c._cols)
    if not (c._types <= {int} and all(1 <= col <= r for col in used)):
        out += [Violation("BadColor", (u, v, col))
                for (u, v), col in zip(c._pairs_in_order(), c._cols)
                if not (_is_int(col) and 1 <= col <= r)]
        used = {col for col in c._cols if _is_int(col) and 1 <= col <= r}
    if not too_many:
        out += [Violation("MissingColor", (col,)) for col in range(1, r + 1) if col not in used]
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
    n = c.n
    covered: set = set()
    uf = UnionFind(n)  # trees are disjoint and in range before their edges are read
    for i, t in enumerate(p.trees):
        if not t.vertices:
            return False, f"tree {i} is empty"
        overlap = covered & t.vertices
        if overlap:
            return False, f"vertex {min(overlap)} appears in more than one tree"
        covered |= t.vertices
        for v in t.vertices:
            if type(v) is not int and not _is_int(v):  # a plain int skips the call
                return False, f"tree {i} contains vertex {v!r}, which is not an int"
            if not 0 <= v < n:
                return False, f"tree {i} contains out-of-range vertex {v}"
        if len(t.edges) != len(t.vertices) - 1:
            return False, f"tree {i} has {len(t.edges)} edges for {len(t.vertices)} vertices"
        tree_colors: set = set()
        for (u, v, col) in t.edges:
            if not (type(u) is type(v) is int or _is_int(u) and _is_int(v)):
                return False, f"tree {i} edge ({u!r},{v!r}) has an end that is not an int"
            if u not in t.vertices or v not in t.vertices:
                return False, f"tree {i} edge ({u},{v}) leaves its vertex set"
            if (pos := c._position(u, v)) < 0:
                return False, f"tree {i} edge ({u},{v}) is not in the graph"
            if c._cols[pos] != col:
                return False, f"tree {i} edge ({u},{v}) recorded with wrong color {col}"
            if col in tree_colors:
                return False, f"tree {i} repeats color {col}"
            tree_colors.add(col)
            if not uf.union(u, v):
                return False, f"tree {i} contains a cycle through ({u},{v})"
    if covered != set(range(n)):
        missing = min(set(range(n)) - covered)
        return False, f"vertex {missing} is not covered"
    return True, None


def merge_colors(c: EdgeColoring, src: int, dst: int) -> EdgeColoring:
    """Recolor every `src` edge to `dst`, then renumber colors densely.

    Colors above `src` shift down by one, so the result is a valid
    (r-1)-edge-coloring: `dst` only gains edges, every other color keeps its
    edges, and no color index is left unused.  The result is stored as c
    is (a K_n coloring as its color sequence), and an edge color outside
    1..r raises KeyError.
    """
    if src == dst:
        raise ValueError("merge_colors requires two distinct colors")
    for col in (src, dst):
        if not 1 <= col <= c.r:
            raise ValueError(f"color {col} out of range 1..{c.r}")
    lut = {col: col - (col > src) for col in range(1, c.r + 1)}
    lut[src] = lut[dst]
    merged = map(lut.__getitem__, c._cols)
    if c._pairs is not None:
        merged = dict(zip(c._pairs, merged))
    return EdgeColoring(c.n, c.r - 1, merged)


@dataclass(frozen=True)
class RestrictionMaps:
    """Old-to-new renumberings produced by restrict(), read-only."""

    vertex_map: Mapping
    color_map: Mapping

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
    pairs, induced = [], []
    for (u, v), col in zip(c._pairs_in_order(), c._cols):
        if u in vmap and v in vmap:
            pairs.append((vmap[u], vmap[v]))
            induced.append(col)
    surviving = sorted(set(induced))
    cmap = {old: new for new, old in enumerate(surviving, start=1)}
    recolored = [cmap[col] for col in induced]
    sub = EdgeColoring(len(kept), len(surviving), dict(zip(pairs, recolored)))
    return sub, RestrictionMaps(MappingProxyType(vmap), MappingProxyType(cmap))


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


def _coloring_lines(c: EdgeColoring):
    """The lines of c's file, newline included, read straight from its storage."""
    yield f"{c.n} {c.r}\n"
    for (u, v), col in zip(c._pairs_in_order(), c._cols):
        yield f"{u} {v} {col}\n"


def format_coloring(c: EdgeColoring) -> str:
    return "".join(_coloring_lines(c))


def _lines(text: str):
    """The lines of text.splitlines(), split about 64 KiB at a time; each
    block ends just after a newline, where no separator can straddle it."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + 0x10000) + 1 or len(text)
        yield from text[start:stop].splitlines()
        start = stop


def _data_lines(text: str):
    """(line number, stripped line) of each line that is not blank or a comment."""
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_coloring(text: str) -> EdgeColoring:
    """Read a coloring file body.  Colors are placed in one list in
    lexicographic edge order when the text is long enough to list every
    edge of K_n (each edge line takes at least 5 characters), else kept in
    a dict, as they are when the file turns out to miss an edge."""
    n = r = None
    placed: list | None = None
    colors: dict = {}
    for lineno, line in _data_lines(text):
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
            if 5 * comb(n, 2) <= len(text):
                placed = [None] * comb(n, 2)
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
        if placed is None:
            duplicate = (u, v) in colors
            colors[(u, v)] = col
        else:
            i = edge_index(n, u, v)
            duplicate = placed[i] is not None
            placed[i] = col
        if duplicate:
            raise FileFormatError(f"duplicate edge ({u},{v})", lineno)
    if n is None:
        raise FileFormatError("empty coloring file")
    if placed is not None:
        if None not in placed:
            return EdgeColoring(n, r, placed)
        colors = {e: col for e, col in zip(combinations(range(n), 2), placed) if col is not None}
    return EdgeColoring(n, r, colors)


def read_coloring(path) -> EdgeColoring:
    return parse_coloring(Path(path).read_text())


def write_coloring(c: EdgeColoring, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_coloring_lines(c))


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
    for lineno, line in _data_lines(text):
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
        if len(set(verts)) < len(verts):
            repeated = next(v for i, v in enumerate(verts) if v in verts[:i])
            raise FileFormatError(f"vertex {repeated} repeated in tree line", lineno)
        for v in verts:
            if not 0 <= v < c.n:
                raise FileFormatError(f"vertex {v} out of range 0..{c.n - 1}", lineno)
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
            if (pos := c._position(u, v)) < 0:
                raise FileFormatError(f"edge ({u},{v}) not present in the coloring", lineno)
            edges.append((min(u, v), max(u, v), c._cols[pos]))
        trees.append(Tree.make(verts, edges))
    return TreePartition(tuple(trees))


def read_partition(path, c: EdgeColoring) -> TreePartition:
    return parse_partition(Path(path).read_text(), c)


def write_partition(p: TreePartition, path) -> None:
    Path(path).write_text(format_partition(p))
