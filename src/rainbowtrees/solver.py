"""Exact minimum rainbow tree partition for one fixed coloring.

The minimum number of vertex-disjoint rainbow trees covering all vertices is
computed over vertex subsets in two phases.  First the whole vertex set is
tried as one tree, and a tree found there is the witness.  If none, the
feasibility of every block of at most r + 1 vertices (a block of k vertices
needs k - 1 distinct colors) is tabulated once, a block being feasible
exactly when its induced subgraph has a rainbow spanning tree.  The table
runs by increasing block size and keeps the color set of one tree per
feasible block.  Most blocks are decided from the blocks one vertex smaller
by leaf certificates, since every tree has a leaf: B is infeasible if no
B - v is feasible, and feasible if some edge from v into a feasible B - v
has a color missing from the tree kept for B - v.  The colors of v's edges
into B are read from two tables per vertex, indexed by the low n // 2 bits
of B and by the rest.  Only a block with neither certificate goes to the
fallback: a reject when B's edges carry fewer than |B| - 1 colors, then one
matroid intersection, whose tree gives the block's colors.

Then the partitions are counted level by level: level k is one 2^n-bit
integer whose bit M is set iff the subset M splits into at most k feasible
blocks.  A mask of level k + 1 is the feasible block B holding its top
vertex t plus a rest of level k below t, so level k + 1 is level k OR-ed
with each such B shifted onto the masks of level k that lie below t and
miss B; for each t the walk grows the blocks down from t on level k cut to
its first 2^t bits.  The walk skips every block lying inside no feasible
block (read from the downward closure of the table, taken once with n
big-int steps), since no block grown from it is feasible.  The count is
the first level holding the full set; the test is one AND of the feasible
blocks with the level mirrored, bit M moved to bit full ^ M.  One optimal
witness is read back from the levels, taking at each step the smallest
block mask that contains the lowest uncovered vertex; the tree of each
block with an edge is read from max_rainbow_forest.  Desk scale only
(n <= 14 by default).

solve_bruteforce() is the independent oracle: it enumerates all set
partitions of the vertices and checks each block with the subset-enumeration
forest oracle, sharing no code with the DP path.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_
from types import MappingProxyType

from .coloring import (
    EdgeColoring,
    Tree,
    TreePartition,
    is_partition_valid,
    require_valid,
    validate,
)
from .errors import SizeGuardError
from .rainbow import _max_common_set, max_rainbow_forest, max_rainbow_forest_bruteforce


@dataclass(frozen=True)
class SolveResult:
    """The minimum tree count, one optimal partition, and work counters.

    stats keys:
      feasibility_checks - blocks whose feasibility was decided: the full
        vertex set, then every block of at most r + 1 vertices;
      masks - block shifts of the level DP, one per (level, feasible block)
        pair: (count - 1) * (feasible blocks);
      blocks_walked - blocks the level walk visits, summed over levels: the
        nonempty blocks lying inside some feasible block (each costs one
        AND on the level cut below the block's top vertex t, 2^t bits), so
        (count - 1) * (nonempty blocks inside a feasible block);
      cache_hits - feasibility table reads of the witness walk;
      intersections - blocks that ran a matroid intersection: the full
        vertex set, and each table block that neither leaf certificate nor
        a cheap reject decided (at most feasibility_checks).
    For n = 1, feasibility_checks = intersections = 1 (the whole set).
    """

    count: int
    partition: TreePartition
    stats: Mapping  # read-only


# feas bytes to binary digits and back
_BITS = bytes.maketrans(b"\x00\x01", b"01")
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _mirror(bits: int, n: int) -> int:
    """bits with bit M moved to bit full ^ M, full = 2^n - 1, by reversing
    its 2^n binary digits."""
    return int(format(bits, f"0{1 << n}b")[::-1], 2)


def _block_feasible(items, need: int, stats: dict) -> tuple | None:
    """The (u, v, color) edges of a rainbow spanning tree of a block with
    `need` + 1 vertices and induced edges `items`, or None if it has none:
    one matroid intersection, counted in stats["intersections"].  Callers
    reject a block whose edges carry fewer than `need` colors first.  The
    whole set's tree is solve's witness."""
    stats["intersections"] += 1
    tree = _max_common_set(items)
    if len(tree) < need:
        return None
    return tuple(items[i] for i in tree)


def _block_table(c: EdgeColoring, cap: int, stats: dict) -> tuple[bytearray, list[int]]:
    """Feasibility of every block of at most `cap` vertices short of the
    full vertex set, by increasing size, each decided from the blocks one
    vertex smaller.

    feas[M] is 1 iff block M spans a rainbow tree, and colors[M] then holds
    the color bits of one such tree.  Every tree has a leaf v, so B is
    infeasible when no B - v is feasible, and feasible when some v has an
    edge into B - v whose color is not on the stored tree of B - v: that
    tree plus the edge spans B.  The color bits of v's edges into B are two
    table reads, lo[v] at B's low h = n // 2 bits and hi[v] at the rest.
    Only a block with neither certificate goes to _block_feasible, unless
    its edges carry fewer than |B| - 1 colors, and its colors are read from
    the tree it returns.  Every block counts in stats["feasibility_checks"].
    """
    n = c.n
    full = (1 << n) - 1
    pair = [[0] * n for _ in range(n)]  # pair[u][v]: color bit of edge uv, 0 if absent
    for u, v, col in c.edges():
        pair[u][v] = pair[v][u] = 1 << col
    # lo[v][i] / hi[v][j]: OR of pair[v][u] over the u in i / in j << h
    h = n // 2
    lo, hi = [], []
    for row in pair:
        for half, us in ((lo, row[:h]), (hi, row[h:])):
            table = [0]
            for p in us:
                table += [x | p for x in table]
            half.append(table)
    low_half = (1 << h) - 1
    feas = bytearray(full + 1)
    colors = [0] * (full + 1)
    bit = [1 << v for v in range(n)]
    for v in range(n):
        feas[bit[v]] = 1
    stats["feasibility_checks"] += n
    for size in range(2, min(cap, n - 1) + 1):
        stats["feasibility_checks"] += comb(n, size)
        for vs in combinations(range(n), size):
            mask = sum(map(bit.__getitem__, vs))
            ml, mh = mask & low_half, mask >> h
            leaf = False  # some B - v is feasible
            for v in vs:
                rest = mask ^ bit[v]
                if feas[rest]:
                    leaf = True
                    spare = (lo[v][ml] | hi[v][mh]) & ~colors[rest]
                    if spare:
                        feas[mask] = 1
                        colors[mask] = colors[rest] | spare & -spare
                        break
            else:
                if not leaf:
                    continue
                inner = reduce(or_, [lo[v][ml] | hi[v][mh] for v in vs])  # colors inside B
                if inner.bit_count() >= size - 1:
                    items = [(u, v, pair[u][v].bit_length() - 1)
                             for u, v in combinations(vs, 2) if pair[u][v]]
                    tree = _block_feasible(items, size - 1, stats)
                    if tree is not None:
                        feas[mask] = 1
                        colors[mask] = reduce(or_, (1 << col for _, _, col in tree))
    return feas, colors


def solve(c: EdgeColoring, max_n: int = 14) -> SolveResult:
    """Exact minimum rainbow tree partition with one optimal witness.

    The witness is checked with is_partition_valid before it is returned; a
    failed check raises RuntimeError.
    """
    require_valid(validate(c))
    n, r = c.n, c.r
    if n > max_n:
        raise SizeGuardError(f"n={n} exceeds solver guard {max_n}")
    stats = {"masks": 0, "feasibility_checks": 1, "cache_hits": 0, "intersections": 0,
             "blocks_walked": 0}
    full = (1 << n) - 1
    cap = r + 1  # a block of k vertices needs k-1 distinct colors

    def block_tree(mask: int) -> Tree:
        vs = [i for i in range(n) if mask >> i & 1]
        if len(vs) == 1:
            return Tree.make(vs)
        return Tree.make(vs, max_rainbow_forest(c, vs))

    def checked(count: int, trees) -> SolveResult:
        partition = TreePartition(tuple(trees))
        if partition.count != count:
            raise RuntimeError(f"witness has {partition.count} trees, dp count is {count}")
        ok, why = is_partition_valid(c, partition)
        if not ok:
            raise RuntimeError(f"witness is not a rainbow tree partition: {why}")
        return SolveResult(count, partition, MappingProxyType(stats))

    # a valid coloring carries exactly r colors, and a tree needs n - 1
    tree = _block_feasible(c.edges(), n - 1, stats) if r >= n - 1 else None
    if tree is not None:
        return checked(1, [Tree.make(range(n), tree)])

    # feas[M] = 1 iff M is a feasible block; blocks over cap and full stay 0
    feas, _ = _block_table(c, cap, stats)

    # keep[v] has bit M set iff vertex v is not in M: runs of 2^v ones
    # repeated with period 2^(v+1)
    every = (1 << (full + 1)) - 1
    keep = [every // ((1 << (2 << v)) - 1) * ((1 << (1 << v)) - 1) for v in range(n)]

    # bit M of feasible is feas[M]; inside is its downward closure, the
    # blocks that lie inside some feasible block, rendered back to bytes
    feasible = int(feas.translate(_BITS)[::-1], 2)
    inside = feasible
    for v in range(n):
        inside |= (inside & ~keep[v]) >> (1 << v)
    inside = format(inside, f"0{full + 1}b")[::-1].encode().translate(_FLAGS)

    def next_level(level: int) -> int:
        """Level k + 1 from level k.  A mask of level k + 1 is the block B
        holding its top vertex t plus a rest of level k lying below t, so
        each t starts from level k truncated to its first 2^t bits, and
        blocks are grown down from {t} depth first: the rests disjoint from
        a block cost one AND on those disjoint from its parent block.  A
        block inside no feasible block is skipped with everything grown
        from it, none of which can be feasible.  Every feasible block is
        still shifted once and every nonempty block inside one is walked
        once, so solve counts both from the table, not here.  The shifts
        for one t fit in 2^(t+1) bits and are OR-ed into one accumulator,
        which joins level k once."""
        out = level
        for t in range(n):
            top = 1 << t
            part = level & ((1 << top) - 1)
            acc = part << top
            stack = [(top, part, t, cap - 1)]
            while stack:
                block, part, low, room = stack.pop()
                for v in range(low):
                    grown = block | 1 << v
                    if not inside[grown]:
                        continue
                    sub = part & keep[v]
                    if feas[grown]:
                        acc |= sub << grown
                    if room > 1:
                        stack.append((grown, sub, v, room - 1))
            out |= acc
        return out

    # levels[k] marks the masks that split into at most k feasible blocks;
    # the full set is in level k + 1 iff some feasible block B leaves its
    # rest full ^ B in level k, that is, B is in mirror(level k)
    levels = [1]
    while not feasible & _mirror(levels[-1], n):
        levels.append(next_level(levels[-1]))
    count = len(levels)
    stats["masks"] = (count - 1) * feas.count(1)
    stats["blocks_walked"] = (count - 1) * (inside.count(1) - 1)  # less the empty block

    blocks = []
    mask = full
    for rest_level in reversed(levels):
        low = mask & -mask
        rest = mask ^ low
        sub = 0
        while True:  # ascending submasks: the first fit is the smallest mask
            block = sub | low
            stats["cache_hits"] += 1
            if feas[block] and rest_level >> (mask ^ block) & 1:
                break
            if sub == rest:
                raise RuntimeError(f"dp levels are inconsistent at mask {mask:#x}")
            sub = (sub - rest) & rest
        blocks.append(block)
        mask ^= block

    return checked(count, map(block_tree, blocks))


def _set_partitions(elems: tuple):
    """All set partitions; blocks stay sorted because elems is ascending."""
    if not elems:
        yield []
        return
    first = elems[0]
    for sub in _set_partitions(elems[1:]):
        yield [(first,)] + sub
        for i in range(len(sub)):
            yield sub[:i] + [(first,) + sub[i]] + sub[i + 1:]


def solve_bruteforce(c: EdgeColoring, max_n: int = 7) -> int:
    """Minimum over all set partitions, blocks checked by the brute oracle."""
    require_valid(validate(c))
    n = c.n
    if n > max_n:
        raise SizeGuardError(f"n={n} exceeds brute-force guard {max_n}")
    ok_cache: dict[tuple, bool] = {}

    def block_ok(block: tuple) -> bool:
        val = ok_cache.get(block)
        if val is None:
            size = max_rainbow_forest_bruteforce(c, block)
            val = size == len(block) - 1
            ok_cache[block] = val
        return val

    best = n
    for part in _set_partitions(tuple(range(n))):
        if len(part) < best and all(block_ok(b) for b in part):
            best = len(part)
    return best
