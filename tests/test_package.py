import types

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
