"""The package's public names."""
import tetcontour


def test_all_is_sorted_unique_and_resolves():
    names = tetcontour.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(tetcontour, name) is not None, name
