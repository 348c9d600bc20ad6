import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowtrees import (
    EdgeColoring,
    FileFormatError,
    Tree,
    TreePartition,
    format_coloring,
    format_partition,
    is_partition_valid,
    merge_colors,
    monochromatic_complete,
    parse_coloring,
    parse_partition,
    rainbow_complete,
    restrict,
    validate,
)
from rainbowtrees.coloring import edge_index, row_offset


def rainbow_k3():
    return EdgeColoring(3, 3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})


# ---------------------------------------------------------------- validate


def test_validate_rainbow_triangle_is_clean():
    assert validate(rainbow_k3()) == []


def test_validate_missing_color():
    c = EdgeColoring(3, 3, {(0, 1): 1, (0, 2): 1, (1, 2): 2})
    codes = [v.code for v in validate(c)]
    assert codes == ["MissingColor"]
    assert validate(c)[0].info == (3,)


def test_validate_incomplete_flag():
    c = EdgeColoring(
        4, 5, {(0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 2): 4, (1, 3): 5}, complete=True
    )
    codes = [v.code for v in validate(c)]
    assert codes == ["IncompleteGraph"]


def test_validate_bad_vertex_and_duplicate():
    c = EdgeColoring(3, 2, {(1, 0): 1, (0, 1): 2, (0, 2): 1, (1, 2): 2})
    codes = {v.code for v in validate(c)}
    assert "BadVertex" in codes      # (1, 0) is not normalized
    assert "DuplicateEdge" in codes  # (1, 0) and (0, 1) are the same pair


def test_validate_color_out_of_range():
    c = EdgeColoring(3, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 7})
    assert "BadColor" in {v.code for v in validate(c)}


def test_validate_degenerate_single_vertex():
    assert validate(EdgeColoring(1, 0, {})) == []
    assert "BadColorCount" in {v.code for v in validate(EdgeColoring(1, 1, {}))}
    assert "BadColorCount" in {v.code for v in validate(EdgeColoring(2, 0, {}))}


def test_completeness_is_inferred():
    assert rainbow_k3().complete
    assert not EdgeColoring(3, 1, {(0, 1): 1}).complete


# ------------------------------------------------------- is_partition_valid


def test_partition_spanning_star_on_rainbow_triangle():
    c = rainbow_k3()
    p = TreePartition((Tree.make([0, 1, 2], [(0, 1, 1), (0, 2, 2)]),))
    ok, why = is_partition_valid(c, p)
    assert ok and why is None


def test_partition_repeated_color_rejected():
    c = monochromatic_complete(3)
    p = TreePartition((Tree.make([0, 1, 2], [(0, 1, 1), (1, 2, 1)]),))
    ok, why = is_partition_valid(c, p)
    assert not ok
    assert "repeats color" in why


def test_partition_vertex_reuse_rejected():
    c = rainbow_complete(4)
    p = TreePartition(
        (
            Tree.make([0, 1], [(0, 1, 1)]),
            Tree.make([1, 2, 3], [(1, 2, 4), (2, 3, 6)]),
        )
    )
    ok, why = is_partition_valid(c, p)
    assert not ok
    assert "more than one tree" in why


def test_partition_must_cover_everything():
    c = rainbow_k3()
    p = TreePartition((Tree.make([0, 1], [(0, 1, 1)]),))
    ok, why = is_partition_valid(c, p)
    assert not ok and "not covered" in why


def test_partition_cycle_rejected():
    c = rainbow_k3()
    p = TreePartition((Tree.make([0, 1, 2], [(0, 1, 1), (0, 2, 2), (1, 2, 3)]),))
    ok, why = is_partition_valid(c, p)
    assert not ok


def test_partition_wrong_color_rejected():
    c = rainbow_k3()
    p = TreePartition((Tree.make([0, 1, 2], [(0, 1, 2), (0, 2, 2)]),))
    ok, _ = is_partition_valid(c, p)
    assert not ok


# ------------------------------------------------------------ merge_colors


def test_merge_rainbow_triangle():
    merged = merge_colors(rainbow_k3(), 3, 2)
    assert merged.r == 2
    assert merged.colors == {(0, 1): 1, (0, 2): 2, (1, 2): 2}


def test_merge_down_to_monochromatic():
    c = EdgeColoring(3, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
    merged = merge_colors(c, 2, 1)
    assert merged.r == 1
    assert set(merged.colors.values()) == {1}


def test_merge_renumbers_colors_above_src():
    c = EdgeColoring(3, 3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    merged = merge_colors(c, 1, 2)
    # color 1 became 2, then 2 -> 1 and 3 -> 2 after renumbering
    assert merged.colors == {(0, 1): 1, (0, 2): 1, (1, 2): 2}
    assert validate(merged) == []


def test_merge_rejects_bad_arguments():
    c = rainbow_k3()
    with pytest.raises(ValueError):
        merge_colors(c, 2, 2)
    with pytest.raises(ValueError):
        merge_colors(c, 0, 1)
    with pytest.raises(ValueError):
        merge_colors(c, 1, 4)


@settings(max_examples=60, derandomize=True)
@given(st.integers(3, 6), st.data())
def test_merge_always_yields_valid_coloring(n, data):
    c = rainbow_complete(n)
    src = data.draw(st.integers(1, c.r))
    dst = data.draw(st.integers(1, c.r - 1))
    if dst >= src:
        dst += 1
    merged = merge_colors(c, src, dst)
    assert merged.r == c.r - 1
    assert validate(merged) == []


# ---------------------------------------------------------------- restrict


def test_restrict_to_identity():
    c = rainbow_k3()
    sub, maps = restrict(c, range(3))
    assert sub == c
    assert maps.vertex_map == {0: 0, 1: 1, 2: 2}
    assert maps.color_map == {1: 1, 2: 2, 3: 3}


def test_restrict_rainbow_k4_to_triangle():
    sub, maps = restrict(rainbow_complete(4), {0, 1, 2})
    assert sub.n == 3 and sub.r == 3
    assert validate(sub) == []
    assert maps.color_map == {1: 1, 2: 2, 4: 3}


def test_restrict_canonical_5_3_outside_block():
    from rainbowtrees import generate_canonical

    c, _ = generate_canonical(5, 3)
    sub, maps = restrict(c, {3, 4})
    # every edge outside the core block carries the single fill color
    assert sub.n == 2 and sub.r == 1
    assert sub.colors == {(0, 1): 1}
    assert maps.vertex_map == {3: 0, 4: 1}


def test_restrict_rejects_bad_sets():
    c = rainbow_k3()
    with pytest.raises(ValueError):
        restrict(c, [])
    with pytest.raises(ValueError):
        restrict(c, [0, 5])


@settings(max_examples=40, derandomize=True)
@given(st.integers(4, 7), st.data())
def test_restrict_composes(n, data):
    c = rainbow_complete(n)
    outer = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n)))
    inner_old = sorted(data.draw(st.sets(st.sampled_from(outer), min_size=1)))
    first, fmaps = restrict(c, outer)
    inner_new = [fmaps.vertex_map[v] for v in inner_old]
    twice, _ = restrict(first, inner_new)
    direct, _ = restrict(c, inner_old)
    assert twice == direct


def test_color_sequence_rows():
    n = 7
    c = EdgeColoring(n, 21, range(1, 22))
    assert c.color_sequence == tuple(range(1, 22))
    for u in range(n):
        for v in range(u + 1, n):
            assert row_offset(n, u) + v == edge_index(n, u, v)
            assert c.color_sequence[row_offset(n, u) + v] == c.color_of(u, v)
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, {(0, 1): 1, (1, 2): 2}).color_sequence


# ------------------------------------------------------------------ file I/O


def test_coloring_round_trip():
    c = rainbow_complete(5)
    assert parse_coloring(format_coloring(c)) == c


def test_coloring_format_is_deterministic():
    a, b = rainbow_complete(6), rainbow_complete(6)
    assert format_coloring(a) == format_coloring(b)


def test_parse_coloring_comments_and_blanks():
    text = "# a comment\n\n3 2\n0 1 1\n# another\n0 2 2\n1 2 1\n"
    c = parse_coloring(text)
    assert c.n == 3 and c.r == 2 and c.complete


def test_parse_coloring_errors_carry_line_numbers():
    with pytest.raises(FileFormatError) as exc:
        parse_coloring("3 2\n0 1 1\n1 0 2\n")
    assert exc.value.line == 3
    with pytest.raises(FileFormatError) as exc:
        parse_coloring("3 2\n0 1 1\n0 1 2\n")
    assert exc.value.line == 3
    with pytest.raises(FileFormatError) as exc:
        parse_coloring("3 2\n0 1 5\n")
    assert exc.value.line == 2
    with pytest.raises(FileFormatError) as exc:
        parse_coloring("3\n")
    assert exc.value.line == 1
    with pytest.raises(FileFormatError):
        parse_coloring("# nothing\n")


def test_partition_round_trip():
    c = rainbow_complete(5)
    p = TreePartition(
        (
            Tree.make([0, 1, 2], [(0, 1, 1), (1, 2, 5)]),
            Tree.make([3, 4], [(3, 4, 10)]),
        )
    )
    text = format_partition(p)
    assert parse_partition(text, c) == p


def test_partition_format_single_vertex():
    p = TreePartition((Tree.make([4]),))
    assert format_partition(p) == "tree 4 ; edges\n"


def test_parse_partition_rejects_unknown_edge():
    c = EdgeColoring(3, 1, {(0, 1): 1})
    with pytest.raises(FileFormatError):
        parse_partition("tree 0 2 ; edges (0,2)\n", c)


# Fuzzed file text: free text, and lines shaped like both file grammars
# (integer lines, tree lines, loose tokens) so that generated input also
# reaches the checks behind the line-shape checks.
_ints = st.integers(-2, 7).map(str)
_edge_tokens = st.one_of(
    st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map("({0[0]},{0[1]})".format),
    st.sampled_from(["(0,1,2)", "(x,1)", "()", "(1,", "0,1"]),
)
_lines = st.one_of(
    st.lists(_ints, min_size=2, max_size=3).map(" ".join),
    st.builds(
        "tree {} ; edges {}".format,
        st.lists(_ints, max_size=4).map(" ".join),
        st.lists(_edge_tokens, max_size=3).map(" ".join),
    ),
    st.lists(st.one_of(_ints, st.sampled_from(["#", ";", "tree", "edges"]), st.text(max_size=3)),
             max_size=5).map(" ".join),
)
_file_texts = st.one_of(st.text(max_size=40), st.lists(_lines, max_size=6).map("\n".join))


@settings(max_examples=400, derandomize=True)
@given(_file_texts)
def test_parse_coloring_fuzz_returns_or_names_a_line(text):
    try:
        c = parse_coloring(text)
    except FileFormatError as exc:
        assert exc.line is not None or str(exc) == "empty coloring file", exc
    else:
        assert parse_coloring(format_coloring(c)) == c


@settings(max_examples=400, derandomize=True)
@given(_file_texts)
def test_parse_partition_fuzz_returns_or_names_a_line(text):
    c = EdgeColoring(4, 2, {(0, 1): 1, (1, 2): 2, (0, 3): 2})
    try:
        p = parse_partition(text, c)
    except FileFormatError as exc:
        assert exc.line is not None, exc
    else:
        assert parse_partition(format_partition(p), c) == p


# ------------------------------------------------------------------ storage


def sorted_edges(colors):
    """Reference edge list: every pair normalized, then sorted."""
    return sorted((min(u, v), max(u, v), col) for (u, v), col in colors.items())


def sorted_classes(colors):
    classes = {}
    for u, v, col in sorted_edges(colors):
        classes.setdefault(col, []).append((u, v))
    return classes


def dict_restrict(colors, keep):
    """Reference restrict: induced dict, surviving colors renumbered in order."""
    kept = sorted(set(keep))
    vmap = {old: new for new, old in enumerate(kept)}
    induced = {
        (min(vmap[u], vmap[v]), max(vmap[u], vmap[v])): col
        for (u, v), col in colors.items()
        if u in vmap and v in vmap
    }
    cmap = {old: new for new, old in enumerate(sorted(set(induced.values())), start=1)}
    return {e: cmap[col] for e, col in induced.items()}, vmap, cmap


@st.composite
def colorings(draw):
    """(n, colors dict, complete?) with colors 1..4 on all pairs or a subset."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    complete = draw(st.booleans())
    if not complete:
        pairs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    cols = draw(st.lists(st.integers(1, 4), min_size=len(pairs), max_size=len(pairs)))
    return n, dict(zip(pairs, cols)), complete


@settings(max_examples=200, derandomize=True)
@given(colorings(), st.data())
def test_storage_matches_sort_based_reference(case, data):
    n, colors, complete = case
    r = max(colors.values(), default=0)
    c = EdgeColoring(n, r, colors)
    if complete:
        assert c == EdgeColoring(n, r, [colors[e] for e in sorted(colors)])
    assert c.colors == colors and len(c.colors) == len(colors)
    assert c.edges() == sorted_edges(colors)
    classes = c.color_classes()
    assert list(classes) == list(sorted_classes(colors))
    assert {col: list(es) for col, es in classes.items()} == sorted_classes(colors)
    for u in range(n):
        for v in range(n):
            known = (u, v) in colors or (v, u) in colors
            assert c.has_edge(u, v) == known
            if known:
                assert c.color_of(u, v) == colors.get((u, v), colors.get((v, u)))
    keep = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    sub, maps = restrict(c, keep)
    ref_colors, vmap, cmap = dict_restrict(colors, keep)
    assert (sub.n, sub.r) == (len(keep), len(cmap))
    assert sub.colors == ref_colors
    assert (maps.vertex_map, maps.color_map) == (vmap, cmap)


def test_coloring_is_immutable_and_copies_its_input():
    given_colors = {(0, 1): 1, (0, 2): 2, (1, 2): 3}
    c = EdgeColoring(3, 3, given_colors)
    with pytest.raises(TypeError):
        c.colors[(0, 1)] = 2
    with pytest.raises(TypeError):
        c.color_classes()[1] = ()
    with pytest.raises(AttributeError):
        c.colors = {}
    with pytest.raises(AttributeError):
        c.n = 4
    with pytest.raises(AttributeError):
        del c.r
    given_colors[(0, 1)] = 3
    del given_colors[(1, 2)]
    assert c.colors == {(0, 1): 1, (0, 2): 2, (1, 2): 3}
    assert c == rainbow_k3() and validate(c) == []
    assert pickle.loads(pickle.dumps(c)) == c


def test_color_sequence_must_cover_every_pair():
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, [1, 2])
