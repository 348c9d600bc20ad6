"""Exact minimum rainbow tree partition for one fixed coloring.

The minimum number of vertex-disjoint rainbow trees covering all vertices is
computed by dynamic programming over vertex subsets: the block containing the
lowest uncovered vertex is enumerated, a block being usable exactly when its
induced subgraph has a rainbow spanning tree.  Feasibility is evaluated
lazily and cached per subset; forcing the lowest uncovered vertex into the
current block removes the block-order symmetry.  Desk scale only (n <= 14 by
default).

solve_bruteforce() is the independent oracle: it enumerates all set
partitions of the vertices and checks each block with the subset-enumeration
forest oracle, sharing no code with the DP path.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class SolveResult:
    count: int
    partition: TreePartition
    stats: dict


def solve(c: EdgeColoring, max_n: int = 14) -> SolveResult:
    """Exact minimum rainbow tree partition with one optimal witness.

    The witness is checked with is_partition_valid before it is returned; a
    failed check raises RuntimeError.
    """
    require_valid(validate(c))
    n, r = c.n, c.r
    if n > max_n:
        raise SizeGuardError(f"n={n} exceeds solver guard {max_n}")
    stats = {"masks": 0, "feasibility_checks": 0, "cache_hits": 0}
    if n == 1:
        return SolveResult(1, TreePartition((Tree.make([0]),)), stats)

    edges = c.edges()
    edge_bits = [((1 << u) | (1 << v), i) for i, (u, v, _) in enumerate(edges)]
    full = (1 << n) - 1
    cap = r + 1  # a block of k vertices needs k-1 distinct colors

    feas: dict[int, bool] = {}

    def feasible(mask: int) -> bool:
        cached = feas.get(mask)
        if cached is not None:
            stats["cache_hits"] += 1
            return cached
        stats["feasibility_checks"] += 1
        size = mask.bit_count()
        if size == 1:
            ok = True
        elif size == 2:
            lo = (mask & -mask).bit_length() - 1
            hi = mask.bit_length() - 1
            ok = c.has_edge(lo, hi)
        else:
            items = [edges[i] for bits, i in edge_bits if bits & mask == bits]
            need = size - 1
            if len(items) < need or len({col for _, _, col in items}) < need:
                ok = False
            else:
                ok = len(_max_common_set(items)) == need
        feas[mask] = ok
        return ok

    def block_tree(mask: int) -> Tree:
        vs = [i for i in range(n) if mask >> i & 1]
        if len(vs) == 1:
            return Tree.make(vs)
        forest = max_rainbow_forest(c, vs)
        return Tree.make(vs, forest.edges)

    def checked(count: int, blocks) -> SolveResult:
        partition = TreePartition(tuple(block_tree(b) for b in blocks))
        if partition.count != count:
            raise RuntimeError(f"witness has {partition.count} trees, dp count is {count}")
        ok, why = is_partition_valid(c, partition)
        if not ok:
            raise RuntimeError(f"witness is not a rainbow tree partition: {why}")
        return SolveResult(count, partition, stats)

    if feasible(full):
        return checked(1, [full])

    inf = n + 1
    dp = [inf] * (full + 1)
    dp[0] = 0
    for mask in range(1, full + 1):
        stats["masks"] += 1
        low = mask & -mask
        rest = mask ^ low
        best = inf
        sub = rest
        while True:
            block = sub | low
            cand = dp[mask ^ block] + 1
            if cand < best and block.bit_count() <= cap and feasible(block):
                best = cand
                if best == 1:
                    break
            if sub == 0:
                break
            sub = (sub - 1) & rest
        dp[mask] = best

    blocks = []
    mask = full
    while mask:
        low = mask & -mask
        rest = mask ^ low
        picked = None
        sub = 0
        while True:  # ascending submasks: the first fit is the smallest mask
            block = sub | low
            if (
                dp[mask ^ block] + 1 == dp[mask]
                and block.bit_count() <= cap
                and feasible(block)
            ):
                picked = block
                break
            if sub == rest:
                break
            sub = (sub - rest) & rest
        if picked is None:
            raise RuntimeError(f"dp table is inconsistent at mask {mask:#x}")
        blocks.append(picked)
        mask ^= picked

    return checked(dp[full], blocks)


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
    """Minimum over all set partitions, blocks checked by the brute oracle.

    The edge guard is raised to 21 so whole blocks of K_7 are accepted.
    """
    require_valid(validate(c))
    n = c.n
    if n > max_n:
        raise SizeGuardError(f"n={n} exceeds brute-force guard {max_n}")
    if n == 1:
        return 1
    ok_cache: dict[tuple, bool] = {}

    def block_ok(block: tuple) -> bool:
        val = ok_cache.get(block)
        if val is None:
            size = max_rainbow_forest_bruteforce(c, block, max_edges=21)
            val = size == len(block) - 1
            ok_cache[block] = val
        return val

    best = n
    for part in _set_partitions(tuple(range(n))):
        if len(part) < best and all(block_ok(b) for b in part):
            best = len(part)
    return best
