import pickle
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowtrees import (
    EdgeColoring,
    FileFormatError,
    Tree,
    TreePartition,
    Violation,
    format_coloring,
    format_partition,
    is_partition_valid,
    merge_colors,
    monochromatic_complete,
    parse_coloring,
    parse_partition,
    rainbow_complete,
    read_coloring,
    restrict,
    validate,
    write_coloring,
)
from rainbowtrees import coloring
from rainbowtrees.coloring import edge_index, edge_pair, row_offset


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


def test_validate_reports_a_color_count_above_the_edge_count_once():
    # r > C(3, 2): one BadColorCount, not one MissingColor per absent color
    assert validate(EdgeColoring(3, 10**6, (1, 1, 1))) == [
        Violation("BadColorCount", (10**6,))]
    assert validate(EdgeColoring(3, 4, (1, 2, 5))) == [
        Violation("BadColorCount", (4,)), Violation("BadColor", (1, 2, 5))]


@pytest.mark.parametrize("key", [(1, 0), (0, 5), (1, 1), ("a", 1), (0, 1, 2), (False, True)],
                         ids=["reversed", "out-of-range", "loop", "non-int", "triple", "bool"])
def test_constructor_rejects_malformed_pairs(key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        EdgeColoring(3, 1, {key: 1, (0, 2): 1})


@pytest.mark.parametrize("c, found", [
    (EdgeColoring(3, 2, [1, True, 2]), ["BadColor(0, 2, True)"]),
    (EdgeColoring(3, 2, [True, 1, 2]), ["BadColor(0, 1, True)"]),
    (EdgeColoring(3, 2, [True, True, 2]), ["BadColor(0, 1, True)", "BadColor(0, 2, True)",
                                           "MissingColor(1,)"]),
    (EdgeColoring(3, 2, [1, 2, False]), ["BadColor(1, 2, False)"]),
    (EdgeColoring(3, 2, [1, 2, 2.0]), ["BadColor(1, 2, 2.0)"]),
    (EdgeColoring(True, 0, []), ["BadVertexCount(True,)"]),
    (EdgeColoring(2, True, [1]), ["BadColorCount(True,)"]),
], ids=["true-after-1", "true-before-1", "only-true", "false", "float", "bool-n", "bool-r"])
def test_validate_reports_each_color_that_is_not_an_int(c, found):
    # a set folds True into 1 and 2.0 into 2; every edge's color is checked
    assert [str(v) for v in validate(c)] == found


def test_validate_color_out_of_range():
    c = EdgeColoring(3, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 7})
    assert "BadColor" in {v.code for v in validate(c)}


def test_validate_degenerate_single_vertex():
    assert validate(EdgeColoring(1, 0, {})) == []
    assert validate(EdgeColoring(0, 0, [])) == [Violation("BadVertexCount", (0,))]
    assert "BadColorCount" in {v.code for v in validate(EdgeColoring(1, 1, {}))}
    assert "BadColorCount" in {v.code for v in validate(EdgeColoring(2, 0, {}))}


def test_completeness_is_inferred():
    assert rainbow_k3().complete
    c = EdgeColoring(3, 1, {(0, 1): 1})
    assert not c.complete and validate(c) == []
    assert pickle.loads(pickle.dumps(c)) == c
    assert eval(repr(c)) == c and "complete" not in repr(c)


def test_color_of_an_absent_edge_raises_and_other_types_are_unequal():
    c = EdgeColoring(3, 1, {(0, 1): 1})
    with pytest.raises(KeyError):
        c.color_of(1, 2)
    assert (c == 3) is False and c != "3 1"


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
    # |E| = |V| - 1, so the edge count passes: a triangle plus an isolated vertex
    c = rainbow_complete(4)
    p = TreePartition((Tree.make([0, 1, 2, 3], [(0, 1, 1), (0, 2, 2), (1, 2, 4)]),))
    assert is_partition_valid(c, p) == (False, "tree 0 contains a cycle through (1,2)")


@pytest.mark.parametrize("c, trees, why", [
    (rainbow_k3(), (), "partition has no trees"),
    (rainbow_k3(), (Tree.make([]),), "tree 0 is empty"),
    (rainbow_k3(), (Tree.make([0, 1, 2], [(0, 1, 1), (0, 2, 2)]), Tree.make([3])),
     "tree 1 contains out-of-range vertex 3"),
    (rainbow_k3(), (Tree.make([0, 1], [(1, 2, 3)]), Tree.make([2])),
     "tree 0 edge (1,2) leaves its vertex set"),
    (EdgeColoring(3, 2, {(0, 1): 1, (1, 2): 2}), (Tree.make([0, 1, 2], [(0, 1, 1), (0, 2, 2)]),),
     "tree 0 edge (0,2) is not in the graph"),
    (rainbow_k3(), (Tree.make([0, 1, 2], [(0, 1, 1)]),), "tree 0 has 1 edges for 3 vertices"),
    # True == 1 and hashes like 1, so a set of vertices cannot tell them apart
    (rainbow_complete(3), (Tree.make([0, True, 2], [(0, True, 1), (0, 2, 2)]),),
     "tree 0 contains vertex True, which is not an int"),
    (rainbow_complete(3), (Tree.make([0, 1, 2], [(0, 1, 1), (0, 2, 2)]), Tree.make([1.5])),
     "tree 1 contains vertex 1.5, which is not an int"),
    # an edge end equal to a vertex of the tree, but no int: format_partition
    # would write it as (0,True), which parse_partition rejects
    (rainbow_complete(3), (Tree.make([0, 1, 2], [(0, True, 1), (0, 2, 2)]),),
     "tree 0 edge (0,True) has an end that is not an int"),
    (rainbow_complete(3), (Tree.make([0, 1, 2], [(0, 1, 1), (2.0, 0, 2)]),),
     "tree 0 edge (2.0,0) has an end that is not an int"),
])
def test_partition_check_names_each_violation(c, trees, why):
    assert is_partition_valid(c, TreePartition(trees)) == (False, why)


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
    assert merged.color_sequence == (1, 2, 2)  # stored as K_n, as the input is


def test_merge_down_to_monochromatic():
    c = EdgeColoring(3, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
    merged = merge_colors(c, 2, 1)
    assert merged.r == 1
    assert set(merged.colors.values()) == {1}
    sparse = merge_colors(EdgeColoring(4, 2, {(0, 1): 1, (2, 3): 2}), 2, 1)
    assert not sparse.complete and sparse.colors == {(0, 1): 1, (2, 3): 1}


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
    with pytest.raises(KeyError):  # an edge color above r
        merge_colors(EdgeColoring(3, 2, [1, 2, 3]), 1, 2)


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


def test_restriction_maps_are_read_only():
    _, maps = restrict(rainbow_complete(4), {0, 1, 2})
    with pytest.raises(TypeError):
        maps.vertex_map[3] = 3
    with pytest.raises(TypeError):
        maps.color_map[4] = 4
    assert maps.vertex_map == {0: 0, 1: 1, 2: 2}
    assert maps.color_map == {1: 1, 2: 2, 4: 3}


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


def test_coloring_round_trip(tmp_path):
    c = rainbow_complete(5)
    assert parse_coloring(format_coloring(c)) == c
    for c in (c, EdgeColoring(4, 2, {(0, 1): 1, (2, 3): 2})):
        write_coloring(c, tmp_path / "c.txt")
        assert (tmp_path / "c.txt").read_text() == format_coloring(c)
        assert read_coloring(tmp_path / "c.txt") == c


def test_coloring_format_is_deterministic():
    a, b = rainbow_complete(6), rainbow_complete(6)
    assert format_coloring(a) == format_coloring(b)


@st.composite
def loosely_typed_colorings(draw):
    """Colorings whose n, r and colors may be bools or floats equal to an int."""
    n = draw(st.one_of(st.integers(1, 4), st.just(True)))
    m = n * (n - 1) // 2
    r = draw(st.one_of(st.integers(0, m + 1), st.booleans()))
    value = st.one_of(st.integers(0, m + 1), st.booleans(), st.sampled_from([1.0, 2.0]))
    return EdgeColoring(n, r, draw(st.lists(value, min_size=m, max_size=m)))


@settings(max_examples=300, derandomize=True)
@given(loosely_typed_colorings())
@example(EdgeColoring(3, 2, [1, True, 2]))
@example(EdgeColoring(3, 2, [1, 2, 2.0]))
@example(EdgeColoring(True, 0, []))
@example(EdgeColoring(2, True, [1]))
def test_every_coloring_validate_accepts_survives_a_file_round_trip(c):
    if validate(c) == []:
        assert parse_coloring(format_coloring(c)) == c


def test_a_k_n_file_missing_one_edge_parses_like_its_mapping():
    # long enough to list K_5, so its colors go to a list, which has a gap
    lines = format_coloring(rainbow_complete(5)).splitlines(keepends=True)
    text = "".join(lines[:4] + lines[5:])  # drops "0 4 4"
    assert len(text) >= 5 * 10
    colors = dict(rainbow_complete(5).colors)
    del colors[(0, 4)]
    c = parse_coloring(text)
    assert not c.complete and c == EdgeColoring(5, 10, colors)


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
    # too short to list the 6 edges of K_4, so its colors go to a dict
    with pytest.raises(FileFormatError, match=r"duplicate edge \(0,1\)") as exc:
        parse_coloring("4 2\n0 1 1\n2 3 2\n0 1 2\n")
    assert exc.value.line == 4
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


def test_parse_partition_rejects_a_repeated_vertex():
    c = EdgeColoring(3, 1, {(0, 1): 1})
    with pytest.raises(FileFormatError, match="line 2: vertex 0 repeated in tree line"):
        parse_partition("tree 2 ; edges\ntree 0 0 1 ; edges (0,1)\n", c)


def test_parse_partition_rejects_a_malformed_edge_list():
    c = rainbow_k3()
    with pytest.raises(FileFormatError, match="line 2: edge list must start with `edges`"):
        parse_partition("tree 2 ; edges\ntree 0 1 ; (0,1)\n", c)
    with pytest.raises(FileFormatError, match="line 3: bad edge token '1,2'"):
        parse_partition("# header\ntree 0 ; edges\ntree 1 2 ; edges 1,2\n", c)


def test_parse_partition_rejects_an_out_of_range_vertex():
    c = rainbow_complete(3)
    with pytest.raises(FileFormatError, match=r"line 1: vertex 7 out of range 0\.\.2"):
        parse_partition("tree 7 ; edges\n", c)
    with pytest.raises(FileFormatError, match=r"line 2: vertex -1 out of range 0\.\.2"):
        parse_partition("# header\ntree -1 0 1 2 ; edges (0,1) (1,2)\n", c)


# every separator str.splitlines() knows; parse errors count lines by it
LINE_SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                   "\u2028", "\u2029"]


def test_lines_split_like_splitlines_across_blocks():
    # about 200 KB each, so every text spans several 64 KiB blocks
    alphabet = LINE_SEPARATORS + ["a", "b", " ", "\n\n", "\r\r"]
    for seed in range(6):
        rng = random.Random(seed)
        text = "".join(rng.choices(alphabet, k=80000))
        assert list(coloring._lines(text)) == text.splitlines(), seed
    for text in ("", "\n", "a", "a\n", "a\r", "\r\n", "a\x0b\nb", "\n" * 0x10001 + "x\r\n"):
        assert list(coloring._lines(text)) == text.splitlines(), repr(text)


def test_parse_errors_name_the_line_for_every_separator():
    c = rainbow_complete(120)  # 7141 lines, about 87 KB: more than one block
    good = format_coloring(c).splitlines()
    rng = random.Random(5)
    for sep in LINE_SEPARATORS + ["mixed"]:
        def join(lines):
            if sep != "mixed":
                return sep.join(lines) + sep
            return "".join(line + rng.choice(LINE_SEPARATORS) for line in lines)

        assert parse_coloring(join(good)) == c, repr(sep)
        for at in (1, 2, 5000, len(good) - 1):
            lines = good[:at] + ["# comment", "", f"{good[at]} 9"] + good[at + 1:]
            with pytest.raises(FileFormatError, match="expected edge line") as exc:
                parse_coloring(join(lines))
            assert exc.value.line == at + 3, (repr(sep), at)


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
    assert {col: [edge_pair(code) for code in codes]
            for col, codes in classes.items()} == sorted_classes(colors)
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
    with pytest.raises(TypeError):
        c.color_classes()[1][0] = 2 << 16 | 3
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


def test_color_classes_are_packed_and_cached():
    c = EdgeColoring(4, 2, [1, 2, 1, 2, 1, 1])
    classes = c.color_classes()
    assert c.color_classes() is classes
    assert {col: codes.tolist() for col, codes in classes.items()} == {
        1: [0 << 16 | 1, 0 << 16 | 3, 1 << 16 | 3, 2 << 16 | 3],
        2: [0 << 16 | 2, 1 << 16 | 2],
    }
    assert all(codes.readonly and codes.format == "I" for codes in classes.values())
    assert edge_pair(65534 << 16 | 65535) == (65534, 65535)
    assert EdgeColoring(65536, 1, {(65534, 65535): 1}).color_classes()[1].tolist() == [
        65534 << 16 | 65535]


def test_color_classes_reject_vertices_above_16_bits():
    c = EdgeColoring(70000, 1, {(0, 69999): 1})
    assert validate(c) == []
    with pytest.raises(ValueError, match="65536"):
        c.color_classes()


def test_pickling_a_complete_coloring_builds_no_colors_dict():
    c = EdgeColoring(6, 3, [1, 2, 3] * 5)
    assert pickle.loads(pickle.dumps(c)) == c
    assert c._colors is None
    sparse = EdgeColoring(6, 2, {(0, 5): 2, (1, 2): 1})
    assert pickle.loads(pickle.dumps(sparse)) == sparse
    assert sparse._colors is None


def test_colors_is_one_cached_read_only_dict():
    for c in (rainbow_k3(), EdgeColoring(4, 2, {(2, 3): 2, (0, 1): 1})):
        colors = c.colors
        assert c.colors is colors
        assert list(colors.items()) == [((u, v), col) for u, v, col in c.edges()]
        with pytest.raises(TypeError):
            colors[(0, 1)] = 2
        with pytest.raises(TypeError):
            del colors[(0, 1)]
        with pytest.raises(KeyError):
            colors[(1, 0)]
        # a dict, not a Mapping view: an unhashable key is a TypeError
        with pytest.raises(TypeError):
            colors[[0, 1]]
        assert c == EdgeColoring(c.n, c.r, dict(colors))
        assert pickle.loads(pickle.dumps(c)) == c
        assert eval(repr(c)) == c
        assert c.colors is colors


def test_color_sequence_must_cover_every_pair():
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, [1, 2])
