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

from .coloring import _require_int


def f_of_r(r: int) -> int:
    """The unique t >= 1 with C(t,2) + 2 <= r <= C(t+1,2) + 1, for an int r >= 2."""
    _require_int("r", r, 2)
    # C(t,2) + 2 <= r  <=>  (2t - 1)^2 <= 8r - 15; the largest such t is the one
    return (1 + isqrt(8 * r - 15)) // 2


def r_range_for_t(t: int) -> tuple[int, int]:
    """Inclusive range of color counts r with f_of_r(r) == t, for an int t >= 1."""
    _require_int("t", t, 1)
    return comb(t, 2) + 2, comb(t + 1, 2) + 1


def _require_kn_colors(n: int, r: int) -> None:
    """ValueError unless n >= 1 and r is 0 for n = 1, else in 1..C(n, 2)."""
    _require_int("n", n, 1)
    _require_int("r", r, 0 if n == 1 else 1, comb(n, 2))


def partition_number(n: int, r: int) -> int:
    """Worst-case minimum rainbow tree cover size for r-edge-colored K_n."""
    _require_kn_colors(n, r)
    if r < 2:  # a maximum matching, or the single vertex (r = 0)
        return (n + 1) // 2
    return (n - f_of_r(r) + 1) // 2
