"""The canonical extremal coloring of K_n and its explicit optimal partition.

For a color count r with threshold t (see formula.f_of_r), the construction
picks a core set of t vertices and one hub vertex, then

  1. gives the core clique distinct colors 1..C(t,2), in lexicographic
     edge order;
  2. assigns each leftover color C(t,2)+1, C(t,2)+2, ... to a core-hub edge,
     in core vertex order;
  3. colors every remaining edge with the one still-unused color if there is
     one (exactly the case r = C(t+1,2)+1), otherwise with color 1.

The step-3 tie-break is a documented choice: any single already-used color
keeps the outside monochromatic, and 1 is the deterministic minimum.  It can
be overridden via `fill_color` to check that results do not depend on it.

This coloring maximizes the number of trees needed: exactly
ceil((n - t) / 2) vertex-disjoint rainbow trees, exhibited by
extremal_partition() as one rainbow spanning tree on the core + hub + one
extra vertex, plus a perfect matching (and possibly a singleton) on the rest.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from math import comb
from types import MappingProxyType

from .coloring import (EdgeColoring, Tree, TreePartition, _color_buffer, _defect, _require_int,
                       edge_index, is_partition_valid, matching_trees)
from .formula import f_of_r, partition_number
from .rainbow import max_rainbow_forest


@dataclass(frozen=True)
class CanonicalLayout:
    """Vertex roles and bookkeeping of the canonical coloring."""

    t: int
    core: tuple            # vertices 0..t-1, a rainbow clique
    hub: int               # vertex t, carries the leftover colors
    extra: int | None      # vertex t+1 when n >= t+2, else None
    fill_color: int | None  # step-3 color, None when no edge remains
    hub_edges: Mapping     # leftover color -> its core-hub edge, read-only


def generate_canonical(n: int, r: int, fill_color: int | None = None):
    """Build the canonical coloring; returns (EdgeColoring, CanonicalLayout).
    ValueError unless n >= 3, 2 <= r <= C(n, 2) and a given `fill_color` is
    in 1..r, each an int; r = C(t+1,2)+1 forces fill color r and refuses any."""
    _require_int("n", n, 3)
    _require_int("r", r, 2, comb(n, 2))
    if fill_color is not None:
        _require_int("fill_color", fill_color, 1, r)
    t = f_of_r(r)
    core = tuple(range(t))
    hub = t
    placed = [(u, v) for u in range(t) for v in range(u + 1, t)]
    placed += [(i, hub) for i in range(min(t, r - len(placed)))]

    if len(placed) == r - 1:
        # exactly one color was never placed; step 3 must use it
        if fill_color is not None:
            raise ValueError(f"fill color is forced to {r} when r = C(t+1,2)+1")
        fill = r
    elif len(placed) < comb(n, 2):  # some edge is left for step 3
        fill = 1 if fill_color is None else fill_color
    else:
        fill = None
    cols = _color_buffer(comb(n, 2), r, fill or 0)  # no fill when every edge is placed
    for col, (u, v) in enumerate(placed, 1):
        cols[edge_index(n, u, v)] = col
    hub_edges = dict(enumerate(placed[comb(t, 2):], comb(t, 2) + 1))

    extra = t + 1 if n >= t + 2 else None
    layout = CanonicalLayout(t, core, hub, extra, fill, MappingProxyType(hub_edges))
    return EdgeColoring(n, r, cols), layout


def extremal_partition(c: EdgeColoring, layout: CanonicalLayout) -> TreePartition:
    """The optimal partition of a canonical coloring: ceil((n-t)/2) trees.

    The partition is checked with is_partition_valid and its count against
    partition_number(n, r) before it is returned; a failed check raises
    ConstructionDefect carrying c's file."""
    block = list(layout.core) + [layout.hub]
    if layout.extra is not None:
        block.append(layout.extra)
    core = Tree.make(block, [(u, v) for u, v, _ in max_rainbow_forest(c, block)])
    p = TreePartition((core, *matching_trees(range(max(block) + 1, c.n))))
    ok, why = is_partition_valid(c, p)
    if not ok:
        raise _defect(f"canonical partition is invalid: {why}", c)
    bound = partition_number(c.n, c.r)
    if p.count != bound:
        raise _defect(f"canonical partition has {p.count} trees, not {bound} (n={c.n}, r={c.r})", c)
    return p
