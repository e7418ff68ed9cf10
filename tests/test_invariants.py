"""Randomized invariant checks, 100+ seeded cases per property.

Each test draws fresh cases from its own seeded generator, so failures
reproduce exactly.  The file is self-contained and fast; it doubles as a
smoke suite for the numerical core.
"""

import numpy as np
import pytest

from helpers import random_density, random_hermitian, random_state, random_unitary
from spinensemble.entanglement import (
    entanglement_entropy,
    entanglement_report,
    ppt_report,
    schmidt_coefficients,
)
from spinensemble.qlinalg import (
    BipartitionSpec,
    ValidationError,
    hermitian,
    state_vector,
    unitary,
)

CASES = 100
CUT_12 = BipartitionSpec((1,), (2,))


def random_cut(rng, n_spins):
    spins = list(rng.permutation(np.arange(1, n_spins + 1)))
    split = int(rng.integers(1, n_spins))
    return BipartitionSpec(tuple(int(s) for s in spins[:split]), tuple(int(s) for s in spins[split:]))


class TestValidatorInvariants:
    def test_unitary_accepts_and_rejects(self):
        rng = np.random.default_rng(110)
        for i in range(CASES):
            dim = int(rng.choice([2, 4, 8]))
            u = random_unitary(rng, dim)
            unitary(u)  # must accept
            if i % 2 == 0:
                broken = u.copy()
                broken[0, 0] += 1e-6
            else:
                broken = u * 1.000001
            with pytest.raises(ValidationError):
                unitary(broken)

    def test_state_vector_accepts_and_rejects(self):
        rng = np.random.default_rng(111)
        for _ in range(CASES):
            dim = int(rng.choice([2, 4, 8]))
            psi = random_state(rng, dim)
            state_vector(psi)  # must accept
            with pytest.raises(ValidationError):
                state_vector(psi * 1.001)

    def test_hermitian_accepts_and_rejects(self):
        rng = np.random.default_rng(112)
        for _ in range(CASES):
            dim = int(rng.choice([2, 4, 8]))
            h = random_hermitian(rng, dim)
            hermitian(h)  # must accept
            broken = h.astype(complex)
            broken[0, -1] += 1e-6j  # asymmetric perturbation
            with pytest.raises(ValidationError):
                hermitian(broken)


class TestTensorInvariants:
    def test_associativity(self):
        rng = np.random.default_rng(113)
        for _ in range(CASES):
            dims = rng.integers(2, 4, size=3)
            a, b, c = (
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims
            )
            left = np.kron(np.kron(a, b), c)
            right = np.kron(a, np.kron(b, c))
            np.testing.assert_allclose(left, right, atol=1e-12)

    def test_mixed_product_trace_factorizes(self):
        rng = np.random.default_rng(114)
        for _ in range(CASES):
            a = random_density(rng, 2)
            b = random_density(rng, 2)
            joint = np.kron(a, b)
            assert abs(np.trace(joint) - np.trace(a) * np.trace(b)) < 1e-12


class TestEntropyInvariants:
    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(115)
        for _ in range(CASES):
            psi = random_state(rng, 4)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            before = entanglement_entropy(schmidt_coefficients(psi, CUT_12))
            after = entanglement_entropy(schmidt_coefficients(u @ psi, CUT_12))
            assert abs(before - after) < 1e-10

    def test_entropy_symmetric_under_side_swap(self):
        rng = np.random.default_rng(116)
        swapped = BipartitionSpec((2,), (1,))
        for _ in range(CASES):
            psi = random_state(rng, 4)
            a = entanglement_entropy(schmidt_coefficients(psi, CUT_12))
            b = entanglement_entropy(schmidt_coefficients(psi, swapped))
            assert abs(a - b) < 1e-12


class TestPptInvariants:
    def test_negativity_ppt_consistency_on_two_spins(self):
        rng = np.random.default_rng(117)
        for i in range(CASES):
            rank = int(rng.integers(1, 5)) if i % 3 else None
            rho = random_density(rng, 4, rank=rank)
            report = ppt_report(rho, CUT_12)
            if report.negativity > 1e-8:
                assert report.ppt_holds is False
            if report.ppt_holds:
                assert report.negativity <= 1e-8
            assert report.min_pt_eigenvalue <= 0.5 + 1e-12

    def test_product_states_always_pass(self):
        rng = np.random.default_rng(118)
        for _ in range(CASES):
            rho = np.kron(random_density(rng, 2), random_density(rng, 2))
            report = ppt_report(rho, CUT_12)
            assert report.ppt_holds is True
            assert report.negativity <= 1e-10


class TestSchmidtInvariants:
    def test_normalization_and_order_on_random_cuts(self):
        rng = np.random.default_rng(119)
        for _ in range(CASES):
            n_spins = int(rng.integers(2, 5))
            psi = random_state(rng, 2**n_spins)
            coeffs = schmidt_coefficients(psi, random_cut(rng, n_spins))
            assert abs(float(np.sum(coeffs**2)) - 1.0) < 1e-10
            assert np.all(coeffs >= -1e-15)
            assert np.all(np.diff(coeffs) <= 1e-15)

    def test_rank_bounded_by_smaller_side(self):
        rng = np.random.default_rng(120)
        for _ in range(CASES):
            n_spins = int(rng.integers(2, 5))
            psi = random_state(rng, 2**n_spins)
            cut = random_cut(rng, n_spins)
            report = entanglement_report(psi, cut)
            bound = 2 ** min(len(cut.left), len(cut.right))
            assert 1 <= report.schmidt_rank <= bound
