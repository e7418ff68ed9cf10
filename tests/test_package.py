"""The package's public names."""

import spinensemble

# Dense observable builders the package no longer has: PauliSum is the one
# observable type.
DELETED = ("collective_observable", "single_spin_observable", "embed_single_spin")


def test_all_is_sorted_unique_and_resolves():
    names = spinensemble.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(spinensemble, name), name


def test_dense_observable_builders_are_not_exported():
    for name in DELETED:
        assert name not in spinensemble.__all__
        assert not hasattr(spinensemble, name)
