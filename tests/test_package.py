import random
import re
import types

import pytest

import rainbowtrees


def test_all_is_sorted_without_duplicates():
    names = rainbowtrees.__all__
    assert names == sorted(set(names))


def test_every_listed_name_resolves():
    missing = [name for name in rainbowtrees.__all__ if not hasattr(rainbowtrees, name)]
    assert missing == []


def test_every_public_attribute_is_listed():
    public = {
        name
        for name, value in vars(rainbowtrees).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(rainbowtrees.__all__) == set()


# every size, count, color and seed argument of a public entry point goes
# through one check: (label, call taking the value, parameter, range text,
# bad values).  Each entry point is given a float, a bool, a value below its
# range and, where there is one, above it; the other arguments are small and
# valid, so a value that got through would run little.  A value whose message
# a test of the entry point's own module already pins is left out here:
# f_of_r's 3.0 and True, every r_range_for_t case, partition_number's bools,
# generate_canonical's float and bool n and r and fill_color=True,
# merge_colors(True, 2) and (1, 4), random_surjective_coloring(3, True), and
# the campaigns' sizes that run nothing (max_n=2, samples_per_cell=-1,
# trials=0, samples=-1).
_K3 = rainbowtrees.rainbow_complete(3)
_ENTRY_POINTS = [
    ("f_of_r", lambda v: rainbowtrees.f_of_r(v), "r", "an int >= 2", [1]),
    ("partition_number-n", lambda v: rainbowtrees.partition_number(v, 1), "n", "an int >= 1",
     [3.0, 0]),
    ("partition_number-r", lambda v: rainbowtrees.partition_number(3, v), "r",
     "an int in 1..3", [2.0, 0, 4]),
    ("partition_number-r-n1", lambda v: rainbowtrees.partition_number(1, v), "r",
     "an int in 0..0", [0.0, False, -1, 1]),
    ("generate_canonical-n", lambda v: rainbowtrees.generate_canonical(v, 2), "n",
     "an int >= 3", [2]),
    ("generate_canonical-r", lambda v: rainbowtrees.generate_canonical(5, v), "r",
     "an int in 2..10", [1, 11]),
    ("generate_canonical-fill_color",
     lambda v: rainbowtrees.generate_canonical(5, 3, fill_color=v), "fill_color",
     "an int in 1..3", [2.0, 0, 4]),
    ("merge_colors-src", lambda v: rainbowtrees.merge_colors(_K3, v, 2), "src",
     "an int in 1..3", [3.0, 0, 4]),
    ("merge_colors-dst", lambda v: rainbowtrees.merge_colors(_K3, 3, v), "dst",
     "an int in 1..3", [2.0, True, 0]),
    ("rainbow_complete", lambda v: rainbowtrees.rainbow_complete(v), "n", "an int >= 1",
     [2.5, True, 0]),
    ("monochromatic_complete", lambda v: rainbowtrees.monochromatic_complete(v), "n",
     "an int >= 1", [2.0, True, -1]),
    ("random_surjective_coloring-n",
     lambda v: rainbowtrees.random_surjective_coloring(v, 1, random.Random(0)), "n",
     "an int >= 2", [2.0, True, 1]),
    ("random_surjective_coloring-r",
     lambda v: rainbowtrees.random_surjective_coloring(3, v, random.Random(0)), "r",
     "an int in 1..3", [2.0, 0, 4]),
    ("iter_surjective_colorings-n", lambda v: rainbowtrees.iter_surjective_colorings(v, 0),
     "n", "an int >= 1", [1.0, True, 0]),
    ("iter_surjective_colorings-r", lambda v: rainbowtrees.iter_surjective_colorings(3, v),
     "r", "an int in 1..3", [2.0, True, 0, 4]),
    ("campaign_worstcase-max_n",
     lambda v: rainbowtrees.campaign_worstcase(max_n=v, samples_per_cell=0), "max_n",
     "an int >= 3", [4.0, True]),
    ("campaign_worstcase-samples_per_cell",
     lambda v: rainbowtrees.campaign_worstcase(max_n=3, samples_per_cell=v), "samples_per_cell",
     "an int >= 0", [1.0, True]),
    ("campaign_worstcase-seed",
     lambda v: rainbowtrees.campaign_worstcase(max_n=3, samples_per_cell=0, seed=v), "seed",
     "an int", [1.0, True]),
    ("campaign_monotonicity-trials", lambda v: rainbowtrees.campaign_monotonicity(trials=v),
     "trials", "an int >= 1", [2.0, True]),
    ("campaign_monotonicity-seed",
     lambda v: rainbowtrees.campaign_monotonicity(trials=1, seed=v), "seed", "an int",
     [1.0, True]),
    ("campaign_cutedge-max_n", lambda v: rainbowtrees.campaign_cutedge(max_n=v), "max_n",
     "an int >= 3", [4.0, True]),
    ("campaign_constructive-max_n",
     lambda v: rainbowtrees.campaign_constructive(max_n=v, samples=0), "max_n",
     "an int >= 3", [4.0, True]),
    ("campaign_constructive-samples",
     lambda v: rainbowtrees.campaign_constructive(max_n=3, samples=v), "samples",
     "an int >= 0", [1.0, True]),
    ("campaign_constructive-seed",
     lambda v: rainbowtrees.campaign_constructive(max_n=3, samples=0, seed=v), "seed",
     "an int", [1.0, True]),
    ("solve-max_n", lambda v: rainbowtrees.solve(_K3, max_n=v), "max_n", "an int in 1..24",
     [3.5, True, 0, 25]),
    ("EdgeColoring-n", lambda v: rainbowtrees.EdgeColoring(v, 0, []), "n", "an int >= 0",
     [2.0, True, "3", -1]),
    ("EdgeColoring-r", lambda v: rainbowtrees.EdgeColoring(3, v, [1, 2, 1]), "r", "an int",
     [2.0, True, None, "a"]),
]


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, value, f"{name} must be {wanted}, got {value!r}", id=f"{label}={value!r}")
    for label, call, name, wanted, values in _ENTRY_POINTS for value in values
])
def test_every_entry_point_rejects_a_bad_argument_when_called(call, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)
