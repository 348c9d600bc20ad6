import re

import pytest
from math import comb

from rainbowtrees import (
    ConstructionDefect,
    Tree,
    extremal_partition,
    f_of_r,
    format_coloring,
    generate_canonical,
    is_partition_valid,
    partition_number,
    solve,
    validate,
)
from rainbowtrees import canonical


def test_canonical_4_3_layout():
    c, layout = generate_canonical(4, 3)
    assert layout.t == 2
    assert layout.core == (0, 1)
    assert layout.hub == 2
    assert layout.extra == 3
    assert layout.fill_color == 1
    assert c.colors == {
        (0, 1): 1,
        (0, 2): 2,
        (1, 2): 3,
        (0, 3): 1,
        (1, 3): 1,
        (2, 3): 1,
    }


def test_canonical_layout_hub_edges_are_read_only():
    _, layout = generate_canonical(4, 3)
    with pytest.raises(TypeError):
        layout.hub_edges[3] = (1, 2)
    assert layout.hub_edges == {2: (0, 2), 3: (1, 2)}


def test_canonical_5_4_uses_the_leftover_color_as_fill():
    # r = C(3,2)+1 leaves one color unplaced after the hub edges
    c, layout = generate_canonical(5, 4)
    assert layout.t == 2
    assert layout.fill_color == 4
    fill_edges = [e for e, col in c.colors.items() if col == 4]
    assert len(fill_edges) == 7
    assert c.colors[(0, 1)] == 1
    assert c.colors[(0, 2)] == 2
    assert c.colors[(1, 2)] == 3


def test_canonical_rainbow_case_has_no_fill():
    for n in (3, 4, 5, 6):
        c, layout = generate_canonical(n, comb(n, 2))
        assert layout.t == n - 1
        assert layout.extra is None
        assert layout.fill_color is None
        # every edge carries its own color: a rainbow K_n up to renumbering
        assert sorted(c.colors.values()) == list(range(1, comb(n, 2) + 1))


def test_canonical_always_validates():
    for n in range(3, 9):
        for r in range(2, comb(n, 2) + 1):
            c, layout = generate_canonical(n, r)
            assert validate(c) == [], (n, r)
            assert len(layout.core) == f_of_r(r)


def test_canonical_is_deterministic_byte_for_byte():
    a = format_coloring(generate_canonical(7, 9)[0])
    b = format_coloring(generate_canonical(7, 9)[0])
    assert a == b


def test_canonical_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate_canonical(2, 1)
    with pytest.raises(ValueError):
        generate_canonical(4, 1)
    with pytest.raises(ValueError):
        generate_canonical(4, 7)


def test_fill_override_rules():
    c, layout = generate_canonical(6, 3, fill_color=2)
    assert layout.fill_color == 2
    assert validate(c) == []
    with pytest.raises(ValueError):
        generate_canonical(6, 3, fill_color=9)
    with pytest.raises(ValueError):
        generate_canonical(5, 4, fill_color=2)  # the unused color is forced


@pytest.mark.parametrize("n, r", [(5.0, 3), (5, 3.0), (True, 3), (5, True)])
def test_canonical_rejects_sizes_that_are_not_ints(n, r):
    # n is checked first; r's range for n = 5 is 2..C(5, 2)
    if type(n) is int:
        message = f"r must be an int in 2..10, got {r!r}"
    else:
        message = f"n must be an int >= 3, got {n!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_canonical(n, r)


def test_fill_color_rejects_a_bool():
    # True == 1 would fill with color 1 and write "3 4 True" in the file
    with pytest.raises(ValueError, match=r"^fill_color must be an int in 1\.\.3, got True$"):
        generate_canonical(5, 3, fill_color=True)


def test_fill_color_is_range_checked_when_no_edge_remains():
    # K_3 with r = 3 is rainbow, so step 3 has no edge to color
    c, layout = generate_canonical(3, 3, fill_color=2)
    assert layout.fill_color is None
    with pytest.raises(ValueError, match=r"^fill_color must be an int in 1\.\.3, got 99$"):
        generate_canonical(3, 3, fill_color=99)


def test_extremal_partition_5_3():
    c, layout = generate_canonical(5, 3)
    p = extremal_partition(c, layout)
    assert p.count == 2 == partition_number(5, 3)
    ok, why = is_partition_valid(c, p)
    assert ok, why
    assert sorted(p.trees[0].vertices) == [0, 1, 2, 3]
    assert p.trees[1].vertices == frozenset({4})


def test_extremal_partition_4_3_single_tree():
    c, layout = generate_canonical(4, 3)
    p = extremal_partition(c, layout)
    assert p.count == 1
    colors = {c.color_of(u, v) for u, v in p.trees[0].edges}
    assert colors == {1, 2, 3}


def test_extremal_partition_8_5():
    c, layout = generate_canonical(8, 5)
    p = extremal_partition(c, layout)
    # one spanning tree on 5 vertices, one matching edge, one singleton
    assert p.count == 3 == partition_number(8, 5)
    sizes = sorted(len(t.vertices) for t in p.trees)
    assert sizes == [1, 2, 5]


def test_extremal_partition_is_loud_when_the_core_tree_is_missing(monkeypatch):
    real = canonical.max_rainbow_forest

    def one_edge_short(c, within):
        return real(c, within)[1:]

    monkeypatch.setattr(canonical, "max_rainbow_forest", one_edge_short)
    c, layout = generate_canonical(8, 5)
    missing = r"^canonical partition is invalid: tree 0 has 3 edges for 5 vertices$"
    with pytest.raises(ConstructionDefect, match=missing):
        extremal_partition(c, layout)


def test_extremal_partition_is_loud_when_a_matching_tree_is_dropped(monkeypatch):
    real = canonical.matching_trees
    monkeypatch.setattr(canonical, "matching_trees", lambda *args: real(*args)[:-1])
    c, layout = generate_canonical(8, 5)
    with pytest.raises(ConstructionDefect,
                       match="^canonical partition is invalid: vertex 7 is not covered$") as info:
        extremal_partition(c, layout)
    assert info.value.instance_text == format_coloring(c)


def test_extremal_partition_is_loud_when_its_count_misses_the_formula(monkeypatch):
    # every leftover vertex a singleton: a valid partition, one tree too many
    monkeypatch.setattr(canonical, "matching_trees",
                        lambda *args: [Tree.make([v]) for v in args[-1]])
    c, layout = generate_canonical(8, 5)
    with pytest.raises(ConstructionDefect,
                       match=r"^canonical partition has 4 trees, not 3 \(n=8, r=5\)$") as info:
        extremal_partition(c, layout)
    assert info.value.instance_text == format_coloring(c)


def test_extremal_partition_matches_formula_everywhere():
    for n in range(3, 11):
        for r in range(2, comb(n, 2) + 1):
            c, layout = generate_canonical(n, r)
            p = extremal_partition(c, layout)
            assert p.count == partition_number(n, r), (n, r)
            ok, why = is_partition_valid(c, p)
            assert ok, (n, r, why)


def test_canonical_attains_the_bound_exactly():
    # both directions: the explicit partition gives <=, the solver refuses to do better
    for n in range(3, 8):
        for r in range(2, comb(n, 2) + 1):
            c, _ = generate_canonical(n, r)
            assert solve(c).count == partition_number(n, r), (n, r)


def test_lower_bound_insensitive_to_fill_choice():
    # cells where the fill is not forced, i.e. r != C(t+1,2)+1
    for n, r in ((5, 3), (6, 3), (6, 5), (7, 5)):
        reference = partition_number(n, r)
        for fill in range(1, r + 1):
            c, _ = generate_canonical(n, r, fill_color=fill)
            assert solve(c).count == reference, (n, r, fill)
