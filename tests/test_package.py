"""The package's public names, and the README's library example."""

import contextlib
import io
import re
from pathlib import Path

import spinensemble

README = Path(__file__).resolve().parents[1] / "README.md"

# Names the package no longer has: the dense observable builders (PauliSum is
# the one observable type), and functions no command reached, whose work
# compare_pathways, entanglement_report, ppt_report and
# ThermalEnsemble.boltzmann do.
DELETED = (
    "collective_observable",
    "single_spin_observable",
    "embed_single_spin",
    "per_state_expectations",
    "ensemble_expectation_sum",
    "ensemble_expectation_trace",
    "mixedness_report",
    "hermitian_eigenvalues",
    "maximally_mixed",
    "frobenius_distance",
    "partial_transpose",
    "boltzmann_populations",
    "unitary",
    "schmidt_coefficients",
    "entanglement_entropy",
    "evolve_eigenstate",
    "equilibrium_density_matrix",
)


def test_all_is_sorted_unique_and_resolves():
    names = spinensemble.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(spinensemble, name), name


def test_deleted_names_are_gone():
    for name in DELETED:
        assert name not in spinensemble.__all__
        assert not hasattr(spinensemble, name)


def test_readme_library_example_runs_as_written():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["[0. 0. 0. 0.]", "1.0", "True True"]
