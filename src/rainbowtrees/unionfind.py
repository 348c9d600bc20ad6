"""Component searches: a small union-find, and a breadth-first search on
small graphs held as neighbour bitmasks, whose vertex sets are masks."""

from __future__ import annotations


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; return False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def mask_component(start: int, within: int, adj: list[int]) -> int:
    """Mask of the vertices of `within` that paths inside `within` join to
    vertex `start`, which lies in `within`; adj[v] is v's neighbour mask."""
    comp = frontier = 1 << start
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & within & ~comp
        comp |= frontier
    return comp
