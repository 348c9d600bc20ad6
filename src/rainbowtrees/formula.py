"""Closed-form quantities: the color-count threshold and the partition number.

For r >= 2 there is a unique integer t >= 1 with

    C(t, 2) + 2  <=  r  <=  C(t+1, 2) + 1,

and the minimum number of vertex-disjoint rainbow trees needed to cover an
r-edge-colored complete graph K_n (worst case over colorings) is
ceil((n - t) / 2).  For r = 1 a maximum matching is optimal and the value is
ceil(n / 2); the single-vertex graph (r = 0) needs exactly one tree.
"""

from __future__ import annotations

from math import comb, isqrt

from .coloring import _is_int


def f_of_r(r: int) -> int:
    """The unique t >= 1 with C(t,2) + 2 <= r <= C(t+1,2) + 1."""
    if not _is_int(r):
        raise ValueError(f"r must be an int, got {r!r}")
    if r < 2:
        raise ValueError(f"threshold undefined for r={r}; need r >= 2")
    # C(t,2) + 2 <= r  <=>  (2t - 1)^2 <= 8r - 15; the largest such t is the one
    return (1 + isqrt(8 * r - 15)) // 2


def r_range_for_t(t: int) -> tuple[int, int]:
    """Inclusive range of color counts r with f_of_r(r) == t."""
    if not _is_int(t):
        raise ValueError(f"t must be an int, got {t!r}")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    return comb(t, 2) + 2, comb(t + 1, 2) + 1


def partition_number(n: int, r: int) -> int:
    """Worst-case minimum rainbow tree cover size for r-edge-colored K_n."""
    if not (_is_int(n) and _is_int(r)):
        raise ValueError(f"n and r must be ints, got n={n!r}, r={r!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        if r != 0:
            raise ValueError("the single-vertex graph has r = 0")
        return 1
    if r < 1:
        raise ValueError(f"need r >= 1 for n={n}")
    if r > comb(n, 2):
        raise ValueError(f"no {r}-edge-coloring of K_{n} exists (max {comb(n, 2)})")
    if r == 1:
        return (n + 1) // 2
    t = f_of_r(r)
    return (n - t + 1) // 2
