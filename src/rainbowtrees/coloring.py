"""Edge-colored graphs and rainbow tree partitions: data model, validation, I/O.

Vertices are integers 0..n-1, colors are integers 1..r, and every color must
appear on at least one edge.  Edges are unordered pairs, stored as (u, v) with
u < v.  A coloring may describe any simple graph; the usual case is K_n,
whose edge set is all C(n, 2) pairs.  The one degenerate case is the
single-vertex graph, which has r = 0.

Values are immutable and all operations here are pure functions, so they
are safe to share across concurrent workers.  A coloring checks its n and
r when it is built, and validate() reports its colors and r's range.  A
coloring of K_n stores its edge colors as one sequence in lexicographic
edge order, and any other coloring stores its pairs in order beside one.
That sequence is `bytes`, one byte per edge, whenever every color is a
plain int in 0..255, which every coloring this package makes with r <= 255
satisfies; any other colors are kept in a tuple.  This module alone
applies that rule.  Readers see the same ints either way.  The `colors`
dict and the packed color classes are derived from that storage on first
use and cached.

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

Edge colors are stored neither in partition files nor in a Tree, whose
edges are (u, v) pairs with u < v; each edge's color is read from the
coloring.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb
from pathlib import Path
from types import MappingProxyType

from .errors import ConstructionDefect, FileFormatError


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validate()."""

    code: str
    info: tuple

    def __str__(self) -> str:
        return f"{self.code}{self.info!r}"


def _is_int(x) -> bool:
    """An int that is not a bool (True == 1 folds into 1 in any set)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require_int(name: str, value, lo: int | None = None, hi: int | None = None) -> None:
    """The one argument check of the public entry points: ValueError naming `name`,
    the range and the value unless `value` is an int, not a bool, in lo..hi (None: open)."""
    if not (_is_int(value) and (lo is None or lo <= value) and (hi is None or value <= hi)):
        wanted = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
        raise ValueError(f"{name} must be an int{wanted}, got {value!r}")


def _byte_colors(cols: tuple):
    """cols as bytes when every color is a plain int (not a bool, which
    bytes() would take as 0 or 1) in 0..255, else cols itself."""
    if set(map(type, cols)) <= {int}:
        try:
            return bytes(cols)
        except ValueError:  # a color outside 0..255
            pass
    return cols


def _color_buffer(m: int, r: int, fill: int = 0):
    """m slots for colors in 1..r, each set to `fill`: a bytearray when r <=
    255, else a list.  The constructor copies either into its stored form."""
    return bytearray((fill,)) * m if r <= 255 else [fill] * m


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
    sequence of the C(n, 2) edge colors in lexicographic edge order.  n and
    r are checked when the coloring is built: n must be an int >= 0 and r
    an int, neither a bool, every mapping key a pair (u, v) of ints, not
    bools, with 0 <= u < v < n, and a sequence must have exactly C(n, 2)
    colors; anything else raises ValueError.  validate() reports the colors
    (type, range and surjectivity) and r's range.  A coloring whose pairs
    are exactly those of K_n stores one color sequence in that order, and
    any other pair set is kept as a sorted tuple of pairs beside the colors
    in that order.  The colors are stored as bytes when every one is a
    plain int, not a bool, in 0..255, and as a tuple otherwise: a `bytes`
    input is kept as it is, and any other input is copied and scanned once.
    Every reader returns the same ints from either storage.  `colors` is a
    read-only dict (a MappingProxyType) built from the stored data on first
    access and cached, as is the verdict of validate().
    """

    __slots__ = ("n", "r", "_pairs", "_cols", "_colors", "_classes", "_verdict")

    def __init__(self, n: int, r: int, colors):
        _require_int("n", n, 0)
        _require_int("r", r)
        m = comb(n, 2)
        if not isinstance(colors, Mapping):
            # a bytes input as it is, a bytearray copied, any other sequence scanned
            cols = (bytes(colors) if isinstance(colors, (bytes, bytearray))
                    else _byte_colors(tuple(colors)))
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
                cols, pairs = _byte_colors(tuple(placed)), None
            else:
                items = sorted(colors.items())
                pairs = tuple(e for e, _ in items)
                cols = _byte_colors(tuple(col for _, col in items))
        self._hold(n, r, pairs, cols)

    def _hold(self, n, r, pairs, cols) -> None:
        for name, value in zip(self.__slots__, (n, r, pairs, cols, None, None, None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _stored(cls, n: int, r: int, pairs, cols) -> "EdgeColoring":
        """The coloring that a producer made, unchecked: `pairs` sorted (None
        for K_n) and `cols` ints in 1..r, stored as bytes when r <= 255, else
        as a tuple, so a producer pays for no scan of its colors."""
        c = object.__new__(cls)
        c._hold(n, r, pairs, bytes(cols) if r <= 255 else tuple(cols))
        return c

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
        mine, theirs = self._cols, other._cols
        if type(mine) is not type(theirs):  # bytes and a tuple: compare the color values
            mine, theirs = tuple(mine), tuple(theirs)
        return (self.n, self.r, self._pairs, mine) == (other.n, other.r, other._pairs, theirs)

    __hash__ = None

    def __repr__(self) -> str:
        return f"EdgeColoring(n={self.n!r}, r={self.r!r}, colors={dict(self.colors)!r})"

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
        """The stored pairs in order."""
        return combinations(range(self.n), 2) if self._pairs is None else self._pairs

    def _position(self, u, v) -> int:
        """Storage index of the edge joining u and v, in either order, or -1."""
        if u > v:
            u, v = v, u
        if self._pairs is None:
            return edge_index(self.n, u, v) if 0 <= u < v < self.n else -1
        i = bisect_left(self._pairs, (u, v))
        return i if i < len(self._pairs) and self._pairs[i] == (u, v) else -1

    def has_edge(self, u: int, v: int) -> bool:
        """Whether u and v are joined; False for an end that is no vertex
        (not an int in 0..n-1, a bool included)."""
        return _is_int(u) and _is_int(v) and self._position(u, v) >= 0

    def color_of(self, u: int, v: int) -> int:
        """The color of the edge joining u and v; KeyError when has_edge is False."""
        i = self._position(u, v) if _is_int(u) and _is_int(v) else -1
        if i < 0:
            raise KeyError((u, v))
        return self._cols[i]

    @property
    def color_sequence(self) -> Sequence[int]:
        """The C(n, 2) edge colors in lexicographic edge order, as the
        constructor takes them for K_n: the stored sequence itself, read-only,
        whose items are ints (bytes or a tuple, see EdgeColoring).
        ValueError for any other storage."""
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
            n, cols = self.n, self._cols
            if n > 0x10000:
                raise ValueError(f"color_classes packs vertices in 16 bits; n={n} > 65536")
            # row u of K_n packs to the codes u << 16 | v for v in u+1..n-1
            codes = (chain.from_iterable(range(u << 16 | u + 1, u << 16 | n) for u in range(n))
                     if self._pairs is None else (u << 16 | v for u, v in self._pairs))
            # each class at its exact size, filled in edge order
            classes = {c: array("I", [0]) * k for c, k in Counter(cols).items()}
            filled = dict.fromkeys(classes, 0)
            for code, c in zip(codes, cols):
                i = filled[c]
                classes[c][i] = code
                filled[c] = i + 1
            frozen = MappingProxyType(
                {c: memoryview(packed).toreadonly() for c, packed in classes.items()})
            object.__setattr__(self, "_classes", frozen)
        return self._classes


@dataclass(frozen=True)
class Tree:
    """One tree of a partition: a vertex set plus its edges, a sorted tuple
    of (u, v) pairs with u < v.  An edge's color is read from the coloring
    (c.color_of(u, v)), as partition files are read back."""

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
    """K_n with every edge its own color, in lexicographic edge order; n is an int >= 1."""
    _require_int("n", n, 1)
    m = comb(n, 2)
    return EdgeColoring._stored(n, m, None, range(1, m + 1))


def monochromatic_complete(n: int) -> EdgeColoring:
    """K_n with every edge colored 1 (r = 0 for n = 1); n is an int >= 1."""
    _require_int("n", n, 1)
    return EdgeColoring(n, 1 if n >= 2 else 0, b"\x01" * comb(n, 2))


def validate(c: EdgeColoring) -> list[Violation]:
    """Check the colors, a bool counting as no int, and r's range against n
    (the constructor already checked that n and r are ints and the pairs);
    return all violations (empty list = valid).  Colors stored as bytes are
    plain ints already, so only their range and surjectivity are checked.
    An n of 0 is the only violation reported, since K_0 has no coloring.
    The verdict is computed once per coloring and cached; each call returns
    a fresh list of it."""
    if c._verdict is None:
        object.__setattr__(c, "_verdict", tuple(_violations(c)))
    return list(c._verdict)


def _violations(c: EdgeColoring) -> list[Violation]:
    n, r = c.n, c.r
    if n < 1:
        return [Violation("BadVertexCount", (n,))]
    out: list[Violation] = []
    # more colors than edges: report r once, not one MissingColor per color
    too_many = r > len(c._cols)
    if too_many or (r != 0 if n == 1 else r < 1):
        out.append(Violation("BadColorCount", (r,)))

    # a set folds True into 1 and 2.0 into 2, so unless every edge's color
    # is a plain int and every color in range, each edge's color is checked
    used = set(c._cols)
    plain = type(c._cols) is bytes or set(map(type, c._cols)) <= {int}
    if not (plain and all(1 <= col <= r for col in used)):
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

    Each tree edge is a (u, v) pair of c, and its color is read from c at
    that pair's position, so a tree that repeats a color is rejected.
    Returns (ok, first_violation_message).
    """
    if not p.trees:
        return False, "partition has no trees"
    n = c.n
    cols, complete = c._cols, c._pairs is None
    covered: set = set()
    # union-find forest over all trees, which are disjoint and in range
    # before their edges are read
    parent = list(range(n))
    for i, t in enumerate(p.trees):
        # a Tree built without Tree.make may hold its vertices in a list,
        # where a repeat would vanish into the frozenset
        vs = t.vertices
        if type(vs) is not frozenset:
            vs = frozenset(t.vertices)
            if len(vs) < len(t.vertices):
                repeated = next(v for j, v in enumerate(t.vertices) if v in t.vertices[:j])
                return False, f"tree {i} lists vertex {repeated!r} more than once"
        if not vs:
            return False, f"tree {i} is empty"
        overlap = covered & vs
        if overlap:
            return False, f"vertex {min(overlap)} appears in more than one tree"
        covered |= vs
        for v in vs:
            if type(v) is not int and not _is_int(v):  # a plain int skips the call
                return False, f"tree {i} contains vertex {v!r}, which is not an int"
            if not 0 <= v < n:
                return False, f"tree {i} contains out-of-range vertex {v}"
        if len(t.edges) != len(vs) - 1:
            return False, f"tree {i} has {len(t.edges)} edges for {len(vs)} vertices"
        tree_colors: set = set()
        for e in t.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                return False, f"tree {i} edge {e!r} is not a (u, v) pair"
            if not (type(u) is type(v) is int or _is_int(u) and _is_int(v)):
                return False, f"tree {i} edge ({u!r},{v!r}) has an end that is not an int"
            if u not in vs or v not in vs:
                return False, f"tree {i} edge ({u},{v}) leaves its vertex set"
            if complete:  # every pair but a loop is an edge; edge_index, inlined
                a, b = (u, v) if u < v else (v, u)
                pos = a * (2 * n - a - 3) // 2 + b - 1 if a != b else -1
            else:
                pos = c._position(u, v)
            if pos < 0:
                return False, f"tree {i} edge ({u},{v}) is not in the graph"
            col = cols[pos]
            if col in tree_colors:
                return False, f"tree {i} repeats color {col}"
            tree_colors.add(col)
            a, b = u, v  # their roots, found with path halving
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b:
                return False, f"tree {i} contains a cycle through ({u},{v})"
            parent[a] = b
    if covered != set(range(n)):
        missing = min(set(range(n)) - covered)
        return False, f"vertex {missing} is not covered"
    return True, None


def merge_colors(c: EdgeColoring, src: int, dst: int) -> EdgeColoring:
    """Recolor every `src` edge to `dst`, then renumber colors densely.

    Colors above `src` shift down by one, so the result is a valid
    (r-1)-edge-coloring: `dst` only gains edges, every other color keeps its
    edges, and no color index is left unused.  The result is stored as c
    is (a K_n coloring as its color sequence), its colors as bytes when
    r - 1 <= 255.  `src` and `dst` are distinct ints in 1..r, else
    ValueError; an edge color outside 1..r raises KeyError.
    """
    _require_int("src", src, 1, c.r)
    _require_int("dst", dst, 1, c.r)
    if src == dst:
        raise ValueError("merge_colors requires two distinct colors")
    lut = {col: col - (col > src) for col in range(1, c.r + 1)}
    lut[src] = lut[dst]
    return EdgeColoring._stored(c.n, c.r - 1, c._pairs, map(lut.__getitem__, c._cols))


@dataclass(frozen=True)
class RestrictionMaps:
    """Old-to-new renumberings produced by restrict(), read-only."""

    vertex_map: Mapping
    color_map: Mapping

    def vertices_back(self) -> dict:
        return {new: old for old, new in self.vertex_map.items()}

    def colors_back(self) -> dict:
        return {new: old for old, new in self.color_map.items()}


def _induced_edges(c: EdgeColoring, within) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The sorted vertices of `within` and the (u, v, color) edges of c
    between them, in lexicographic order.  Each of the C(k, 2) pairs is
    looked up by its storage position, so a block of K_n never reads the
    other edges.  ValueError for a vertex that is not an int (checked before
    a set folds True into 1), an empty set or a vertex out of range."""
    seen = set()
    for v in within:
        if not _is_int(v):
            raise ValueError(f"vertex {v!r} is not an int")
        seen.add(v)
    verts = sorted(seen)
    if not verts:
        raise ValueError("vertex set must be nonempty")
    if verts[0] < 0 or verts[-1] >= c.n:
        raise ValueError("vertex set out of range")
    position, cols = c._position, c._cols
    return verts, [(u, v, cols[i]) for u, v in combinations(verts, 2)
                   if (i := position(u, v)) >= 0]


def restrict(c: EdgeColoring, keep) -> tuple[EdgeColoring, RestrictionMaps]:
    """Induced coloring on `keep`, with vertices and colors renumbered.

    Vertices are renumbered 0..|keep|-1 in increasing order; surviving colors
    are renumbered 1..r0 preserving their relative order.  Only the pairs
    inside `keep` are read; ValueError for an empty or out-of-range set or a
    vertex that is not an int.
    """
    kept, items = _induced_edges(c, keep)
    vmap = {old: new for new, old in enumerate(kept)}
    surviving = sorted({col for _, _, col in items})
    cmap = {old: new for new, old in enumerate(surviving, start=1)}
    # items are in lexicographic order, which the increasing renumbering keeps
    pairs = (None if len(items) == comb(len(kept), 2)
             else tuple((vmap[u], vmap[v]) for u, v, _ in items))
    sub = EdgeColoring._stored(len(kept), len(surviving), pairs,
                               (cmap[col] for _, _, col in items))
    return sub, RestrictionMaps(MappingProxyType(vmap), MappingProxyType(cmap))


def matching_trees(vertices) -> list[Tree]:
    """Consecutive vertices paired into one-edge trees, plus a single-vertex
    tree for the last vertex when their number is odd.  Each edge is the
    pair (u, v), u < v, which K_n always has; its color is read from the
    coloring."""
    trees = [Tree(frozenset((a, b)), ((a, b) if a < b else (b, a),))
             for a, b in zip(vertices[::2], vertices[1::2])]
    if len(vertices) % 2 == 1:
        trees.append(Tree(frozenset((vertices[-1],)), ()))
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


def _defect(message: str, c: EdgeColoring) -> ConstructionDefect:
    """A failed self-check of a partition producer on c, carrying c's file."""
    return ConstructionDefect(message, instance_text=format_coloring(c))


def _write_lines(c: EdgeColoring, fh) -> None:
    """Write c's file to the text stream fh, joined 4096 lines at a time, so
    that neither the whole text nor one write call per line is needed."""
    lines = _coloring_lines(c)
    while batch := "".join(islice(lines, 4096)):
        fh.write(batch)


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
    """Read a coloring file body.  Colors are placed in lexicographic edge
    order when the text is long enough to list every edge of K_n (each edge
    line takes at least 5 characters), else kept in a dict, as they are
    when the file turns out to miss an edge.  They are placed in one byte
    each when r <= 255, and 0, which is no color, marks an edge not listed
    yet."""
    n = r = None
    placed: bytearray | list | None = None
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
                placed = _color_buffer(comb(n, 2), r)
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
            duplicate = placed[i] != 0
            placed[i] = col
        if duplicate:
            raise FileFormatError(f"duplicate edge ({u},{v})", lineno)
    if n is None:
        raise FileFormatError("empty coloring file")
    if placed is not None:
        if 0 not in placed:
            return EdgeColoring(n, r, placed)
        colors = {e: col for e, col in zip(combinations(range(n), 2), placed) if col != 0}
    return EdgeColoring(n, r, colors)


def read_coloring(path) -> EdgeColoring:
    return parse_coloring(Path(path).read_text())


def write_coloring(c: EdgeColoring, path) -> None:
    with open(path, "w") as fh:
        _write_lines(c, fh)


def format_partition(p: TreePartition) -> str:
    lines = []
    for t in p.trees:
        verts = " ".join(str(v) for v in sorted(t.vertices))
        edge_part = " ".join(f"({u},{v})" for u, v in sorted(t.edges))
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
            if not c.has_edge(u, v):
                raise FileFormatError(f"edge ({u},{v}) not present in the coloring", lineno)
            edges.append((min(u, v), max(u, v)))
        trees.append(Tree.make(verts, edges))
    return TreePartition(tuple(trees))


def read_partition(path, c: EdgeColoring) -> TreePartition:
    return parse_partition(Path(path).read_text(), c)


def write_partition(p: TreePartition, path) -> None:
    Path(path).write_text(format_partition(p))
