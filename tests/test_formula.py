import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import comb

from rainbowtrees import f_of_r, partition_number, r_range_for_t


def scan_threshold(r):
    """Independent oracle: linear scan for the bracketing inequality."""
    t = 1
    while not (comb(t, 2) + 2 <= r <= comb(t + 1, 2) + 1):
        t += 1
    return t


@pytest.mark.parametrize(
    "r,t",
    [(2, 1), (5, 3), (7, 3), (8, 4), (11, 4), (12, 5)],
)
def test_threshold_frozen_values(r, t):
    assert f_of_r(r) == t
    assert scan_threshold(r) == t


def test_threshold_rejects_small_r():
    with pytest.raises(ValueError):
        f_of_r(1)
    with pytest.raises(ValueError):
        f_of_r(0)


@pytest.mark.parametrize("r", [2.5, 3.0, True])
def test_threshold_rejects_an_r_that_is_not_an_int(r):
    with pytest.raises(ValueError, match=f"^r must be an int >= 2, got {r!r}$"):
        f_of_r(r)


@pytest.mark.parametrize("t", [1.5, 2.0, True])
def test_r_range_rejects_a_t_that_is_not_an_int(t):
    with pytest.raises(ValueError, match=f"^t must be an int >= 1, got {t!r}$"):
        r_range_for_t(t)


def test_r_range_rejects_t_below_one():
    with pytest.raises(ValueError, match="^t must be an int >= 1, got 0$"):
        r_range_for_t(0)


@pytest.mark.parametrize("t,lo,hi", [(1, 2, 2), (3, 5, 7), (5, 12, 16)])
def test_r_range_frozen_values(t, lo, hi):
    assert r_range_for_t(t) == (lo, hi)
    assert f_of_r(lo) == t and f_of_r(hi) == t


def test_r_ranges_tile_the_integers():
    expected = 2
    for t in range(1, 101):
        lo, hi = r_range_for_t(t)
        assert lo == expected
        assert lo <= hi
        expected = hi + 1


def test_threshold_is_exact_at_both_ends_of_every_range():
    for t in [*range(1, 10_001), 10**9]:
        lo, hi = r_range_for_t(t)
        assert f_of_r(lo) == t == f_of_r(hi), t


@settings(max_examples=200, derandomize=True)
@given(st.integers(2, 100_000))
def test_threshold_matches_scan_oracle(r):
    t = f_of_r(r)
    assert comb(t, 2) + 2 <= r <= comb(t + 1, 2) + 1


def test_threshold_is_nondecreasing():
    values = [f_of_r(r) for r in range(2, 2000)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert set(values) == set(range(1, max(values) + 1))


@pytest.mark.parametrize(
    "n,r,value",
    [
        (7, 1, 4),   # matching plus a singleton
        (6, 5, 2),   # t = 3
        (3, 3, 1),   # the rainbow triangle has a rainbow spanning path
        (1, 0, 1),
        (2, 1, 1),
    ],
)
def test_partition_number_frozen_values(n, r, value):
    assert partition_number(n, r) == value


def test_partition_number_rejects_impossible_inputs():
    with pytest.raises(ValueError):
        partition_number(3, 4)   # only 3 edges available
    with pytest.raises(ValueError):
        partition_number(1, 1)
    with pytest.raises(ValueError):
        partition_number(2, 0)
    with pytest.raises(ValueError):
        partition_number(0, 0)


def test_partition_number_rejects_bools():
    with pytest.raises(ValueError, match=r"^r must be an int in 1\.\.3, got True$"):
        partition_number(3, True)
    with pytest.raises(ValueError, match="^n must be an int >= 1, got True$"):
        partition_number(True, 0)


def test_rainbow_complete_graphs_need_one_tree():
    for n in range(2, 30):
        assert partition_number(n, comb(n, 2)) == 1
        if n >= 3:
            assert f_of_r(comb(n, 2)) == n - 1


def test_partition_number_nonincreasing_in_r():
    for n in range(3, 12):
        values = [partition_number(n, r) for r in range(1, comb(n, 2) + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))
