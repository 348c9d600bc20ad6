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
of B and by the rest.  The blocks of one size are the masks of the size
below, each extended by every vertex above its top one, which keeps them
in lexicographic order; they depend on n alone, so they are built once per
(n, size) and kept.  Only a block with neither certificate goes to the
fallback: a reject when B's edges carry fewer than |B| - 1 colors, then a
reject when deleting the edges of the coloring's most frequent color
leaves B in 3 or more components (a graph with a rainbow spanning tree
loses at most 2 components when one color is deleted: Suzuki, Graphs
Combin. 22 (2006)), then one matroid intersection, whose tree gives the
block's colors.

Then the partitions are counted level by level.  Every partition has one
block holding vertex 0, and its other blocks avoid vertex 0, so the levels
run on vertices 1..n-1: level k is one 2^(n-1)-bit integer whose bit M' is
set iff the subset M = M' << 1 splits into at most k feasible blocks, and
its blocks are the even half feas[0::2] of the table.  Level 1 is those
blocks themselves.  A mask of level k + 1 is the feasible block B holding
its top vertex t plus a rest of level k below t, so level k + 1 is level k
OR-ed with each such B shifted onto the masks of level k that lie below t
and miss B; for each t the walk grows the blocks down from t on level k
cut to its first 2^t bits.  The walk skips every block lying inside no
feasible block (read from the downward closure of the even half, taken
once with n - 1 big-int steps when a level past 1 is needed; the patterns
of those steps are built once per n), since no block grown from it is
feasible.  The count is k + 1 for the first level k that holds the rest
full ^ B of a feasible block B holding vertex 0.  Those blocks, the odd
half feas[1::2], are mirrored once per solve over the n - 1 vertices, bit
B >> 1 moved to bit (full ^ B) >> 1, and the test is one AND of that
mirror with the level.  One optimal witness is read back from the levels,
taking at each step the smallest block mask that contains the lowest
uncovered vertex: the first holds vertex 0, so every rest read back is a
level mask M' = rest >> 1.  The tree of each block with an edge is read
from max_rainbow_forest.  Desk scale only (n <= 14 by default, and max_n
at most 24, where the table's 2^n bytes and 2^n-entry list still fit).

solve_bruteforce() is the independent oracle: it enumerates all set
partitions of the vertices and checks each block with the subset-enumeration
forest oracle, sharing no code with the DP path.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations
from math import comb
from operator import or_
from types import MappingProxyType

from .coloring import (
    EdgeColoring,
    Tree,
    TreePartition,
    _defect,
    _require_int,
    is_partition_valid,
    require_valid,
    validate,
)
from .errors import SizeGuardError
from .rainbow import _max_common_set, max_rainbow_forest, max_rainbow_forest_bruteforce
from .unionfind import mask_component


@dataclass(frozen=True)
class SolveResult:
    """The minimum tree count, one optimal partition, and work counters.

    stats keys:
      feasibility_checks - blocks whose feasibility was decided: the full
        vertex set, then every block of at most r + 1 vertices;
      masks - (level, feasible block) pairs of the level DP: (count - 1) *
        (feasible blocks of the table), level 1 included; the walk shifts
        only the blocks avoiding vertex 0, and the stop test reads the rest;
      blocks_walked - blocks the level walk on vertices 1..n-1 visits,
        summed over the levels past 1 that it builds: the nonempty blocks
        avoiding vertex 0 that lie inside some feasible block (each costs
        one AND on the level cut below the block's top vertex t, 2^(t-1)
        bits), so (count - 2) * (such blocks), 0 when count <= 2;
      cache_hits - feasibility table reads of the witness walk;
      rejects - table blocks that the dominant-color test decided: after
        both leaf certificates and the color count failed to, they fall
        into 3 or more components once the most frequent color is deleted;
      intersections - blocks that ran a matroid intersection: the full
        vertex set, and each table block that no leaf certificate or reject
        decided (intersections + rejects is at most feasibility_checks).
    For n = 1, feasibility_checks = intersections = 1 (the whole set).
    """

    count: int
    partition: TreePartition
    stats: Mapping  # read-only


# feas bytes to binary digits and back
_BITS = bytes.maketrans(b"\x00\x01", b"01")
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_MAX_BRUTE_N = 7  # solve_bruteforce's guard: rainbow's edge guard holds every block of K_7
# solve's ceiling on max_n: the block table takes 2^n bytes and a 2^n-entry
# colors list, 16 MiB and 128 MiB of pointers at n = 24 (canonical K_22 with
# r = 3 peaks at 69 MiB); every n past it doubles both
_MAX_N_CEILING = 24


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


@cache
def _block_masks(n: int, size: int) -> array:
    """The blocks of `size` vertices out of n, as masks in lexicographic
    order: those of size - 1, each extended by every vertex above its top
    one.  Built once per (n, size) and shared, so callers only read it."""
    bit = [1 << v for v in range(n)]
    if size == 1:
        return array("I", bit)
    return array("I", [m | b for m in _block_masks(n, size - 1) for b in bit[m.bit_length():]])


@cache
def _keep_patterns(n: int) -> tuple[int, ...]:
    """keep[v] has bit M set, for the 2^n masks M, iff vertex v is not in M:
    runs of 2^v ones repeated with period 2^(v+1).  Built once per n."""
    every = (1 << (1 << n)) - 1
    return tuple(every // ((1 << (2 << v)) - 1) * ((1 << (1 << v)) - 1) for v in range(n))


def _other_neighbours(pair: list[list[int]]) -> list[int]:
    """other[v] has bit u set iff uv is an edge whose color is not the most
    frequent one (the smallest of those on a tie); pair[u][v] is the color
    bit of edge uv, 0 if absent."""
    counts = Counter(p for row in pair for p in row if p)
    top = max(sorted(counts), key=counts.__getitem__)
    return [sum(1 << u for u, p in enumerate(row) if p and p != top) for row in pair]


def _splits_in_three(mask: int, other: list[int]) -> bool:
    """Whether block `mask` falls into 3 or more components in the graph
    whose neighbour masks are `other`: it takes out at most two components
    and reports whether any vertex is left."""
    for _ in range(2):
        mask ^= mask_component((mask & -mask).bit_length() - 1, mask, other)
        if not mask:
            return False
    return True


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
    its edges carry fewer than |B| - 1 colors or it splits into 3 or more
    components without the most frequent color (counted in
    stats["rejects"]; other[] is built at the first such block), and its
    colors are read from the tree it returns.  Every block counts in
    stats["feasibility_checks"].
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
    other = None  # other[v]: v's neighbours by an edge not of the most frequent color
    for size in range(2, min(cap, n - 1) + 1):
        stats["feasibility_checks"] += comb(n, size)
        for mask, vs in zip(_block_masks(n, size), combinations(range(n), size)):
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
                if inner.bit_count() < size - 1:
                    continue
                if other is None:
                    other = _other_neighbours(pair)
                if _splits_in_three(mask, other):
                    stats["rejects"] += 1
                    continue
                items = [(u, v, pair[u][v].bit_length() - 1)
                         for u, v in combinations(vs, 2) if pair[u][v]]
                tree = _block_feasible(items, size - 1, stats)
                if tree is not None:
                    feas[mask] = 1
                    colors[mask] = reduce(or_, (1 << col for _, _, col in tree))
    return feas, colors


def _walk_tables(feasible: int, n: int) -> tuple[tuple[int, ...], bytes]:
    """The level walk's tables: keep = _keep_patterns(n), and inside[M] is 1
    iff M lies inside some feasible block (bit M of `feasible`): the
    downward closure, taken with n big-int steps and rendered to bytes."""
    keep = _keep_patterns(n)
    inside = feasible
    for v in range(n):
        inside |= (inside & ~keep[v]) >> (1 << v)
    return keep, format(inside, f"0{1 << n}b")[::-1].encode().translate(_FLAGS)


def _next_level(level: int, feas: bytearray, keep: tuple[int, ...], inside: bytes,
                n: int, cap: int) -> int:
    """Level k + 1 from level k.  A mask of level k + 1 is the block B
    holding its top vertex t plus a rest of level k lying below t, so each
    t starts from level k truncated to its first 2^t bits, and blocks are
    grown down from {t} depth first: the rests disjoint from a block cost
    one AND on those disjoint from its parent block.  A block inside no
    feasible block is skipped with everything grown from it, none of which
    can be feasible.  Every feasible block is still shifted once and every
    nonempty block inside one is walked once, so solve counts both from the
    table, not here.  The shifts for one t fit in 2^(t+1) bits and are
    OR-ed into one accumulator, which joins level k once."""
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


def solve(c: EdgeColoring, max_n: int = 14) -> SolveResult:
    """Exact minimum rainbow tree partition with one optimal witness.

    The witness is checked with is_partition_valid before it is returned; a
    failed check, or levels that hold no witness, raises ConstructionDefect
    carrying c's file.  max_n is an int in 1..24 (_MAX_N_CEILING), checked
    before any table is built; n > max_n raises SizeGuardError.
    """
    _require_int("max_n", max_n, 1, _MAX_N_CEILING)
    require_valid(validate(c))
    n, r = c.n, c.r
    if n > max_n:
        raise SizeGuardError(f"n={n} exceeds solver guard {max_n}")
    stats = {"masks": 0, "feasibility_checks": 1, "cache_hits": 0, "intersections": 0,
             "rejects": 0, "blocks_walked": 0}
    full = (1 << n) - 1
    cap = r + 1  # a block of k vertices needs k-1 distinct colors

    def block_tree(mask: int) -> Tree:
        vs = [i for i in range(n) if mask >> i & 1]
        if len(vs) == 1:
            return Tree.make(vs)
        return Tree.make(vs, [(u, v) for u, v, _ in max_rainbow_forest(c, vs)])

    def checked(count: int, trees) -> SolveResult:
        partition = TreePartition(tuple(trees))
        if partition.count != count:
            raise _defect(f"witness has {partition.count} trees, dp count is {count}", c)
        ok, why = is_partition_valid(c, partition)
        if not ok:
            raise _defect(f"witness is not a rainbow tree partition: {why}", c)
        return SolveResult(count, partition, MappingProxyType(stats))

    # a valid coloring carries exactly r colors, and a tree needs n - 1
    tree = _block_feasible(c.edges(), n - 1, stats) if r >= n - 1 else None
    if tree is not None:
        return checked(1, [Tree.make(range(n), [(u, v) for u, v, _ in tree])])

    # feas[M] = 1 iff M is a feasible block; blocks over cap and full stay 0.
    # The block holding vertex 0 comes first, so the levels run on vertices
    # 1..n-1, mask M' = M >> 1: rests[M'] = feas[M' << 1], bit M' of
    # feasible is rests[M'], and bit (full >> 1) ^ M' of ends is feas[M' << 1 | 1]
    # (feasible reverses its digits so that digit M' is bit M'; ends keeps them)
    feas, _ = _block_table(c, cap, stats)
    rests = feas[0::2]
    feasible = int(rests.translate(_BITS)[::-1], 2)
    ends = int(feas[1::2].translate(_BITS), 2)

    # levels[k] marks the masks that split into at most k feasible blocks;
    # the full set is in level k + 1 iff some feasible block B holding
    # vertex 0 leaves its rest full ^ B in level k, that is, level k meets
    # ends.  Level 1 is feasible | 1, with no walk, and the loop starts
    # there: level 0 would stop it only at a feasible full set, which the
    # table never marks (the whole-set check returned every count-1
    # coloring).  The walk's tables wait for level 2.
    levels = [1, feasible | 1]
    while not ends & levels[-1]:
        if len(levels) == 2:
            keep, inside = _walk_tables(feasible, n - 1)
        levels.append(_next_level(levels[-1], rests, keep, inside, n - 1, cap))
    count = len(levels)
    stats["masks"] = (count - 1) * feas.count(1)
    if count > 2:  # the walk ran from level 2 on; the empty block is not walked
        stats["blocks_walked"] = (count - 2) * (inside.count(1) - 1)

    # the first block taken holds vertex 0, so every rest read avoids it
    blocks = []
    mask = full
    for rest_level in reversed(levels):
        low = mask & -mask
        rest = mask ^ low
        sub = 0
        while True:  # ascending submasks: the first fit is the smallest mask
            block = sub | low
            stats["cache_hits"] += 1
            if feas[block] and rest_level >> ((mask ^ block) >> 1) & 1:
                break
            if sub == rest:
                raise _defect(f"dp levels are inconsistent at mask {mask:#x}", c)
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


def solve_bruteforce(c: EdgeColoring) -> int:
    """Minimum over all set partitions, blocks checked by the brute oracle."""
    require_valid(validate(c))
    n = c.n
    if n > _MAX_BRUTE_N:
        raise SizeGuardError(f"n={n} exceeds brute-force guard {_MAX_BRUTE_N}")
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
