import numpy as np
import pytest

from helpers import (
    bell_state,
    maximally_mixed,
    random_density,
    random_hermitian,
    random_state,
    random_unitary,
)
from spinensemble.entanglement import ppt_report
from spinensemble.qlinalg import (
    DIM_CAP,
    PAULI_X,
    PAULI_Z,
    PSD_TOL,
    BipartitionSpec,
    ValidationError,
    _partial_transpose,
    _spectrum,
    as_matrix,
    density_matrix,
    hermitian,
    state_vector,
)

CUT_12 = BipartitionSpec((1,), (2,))


class TestValidators:
    def test_as_matrix_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            as_matrix(np.zeros((2, 3)))

    def test_as_matrix_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            as_matrix([[1.0, np.nan], [0.0, 1.0]])

    def test_hermitian_accepts_paulis(self):
        hermitian(PAULI_X)
        hermitian(PAULI_Z)

    def test_hermitian_rejects_perturbed(self):
        bad = PAULI_X + np.array([[0, 1e-9], [0, 0]])
        with pytest.raises(ValidationError, match="Hermitian"):
            hermitian(bad)

    def test_state_vector_norm_check(self):
        state_vector(bell_state())
        with pytest.raises(ValidationError, match="normalized"):
            state_vector([1.0, 1.0])

    def test_density_matrix_accepts_diagonal_mixture(self):
        density_matrix(np.diag([0.25, 0.75]).astype(complex))

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            density_matrix(np.eye(2, dtype=complex))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_dimension_cap(self):
        with pytest.raises(ValidationError, match="cap"):
            state_vector(np.zeros(DIM_CAP + 1))

    def test_maximally_mixed_is_a_density_matrix(self):
        for dim in (1, 2, 4, 8):
            rho = density_matrix(maximally_mixed(dim))
            np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-14)


class TestBipartitionSpec:
    def test_parse_simple_cut(self):
        part = BipartitionSpec.parse("1|2", 2)
        assert part.left == (1,) and part.right == (2,)
        assert part.n_spins == 2

    def test_parse_comma_lists(self):
        part = BipartitionSpec.parse("1,3|2", 3)
        assert part.left == (1, 3) and part.right == (2,)

    def test_parse_digit_run(self):
        part = BipartitionSpec.parse("13|2", 3)
        assert part.left == (1, 3) and part.right == (2,)

    def test_sides_are_sorted(self):
        part = BipartitionSpec((3, 1), (2,))
        assert part.left == (1, 3)
        assert str(part) == "13|2"

    def test_str_uses_commas_beyond_nine_spins(self):
        left = tuple(range(1, 10))
        part = BipartitionSpec(left, (10,))
        assert str(part) == "1,2,3,4,5,6,7,8,9|10"

    def test_round_trip_through_str(self):
        part = BipartitionSpec((2,), (1, 3, 4))
        assert BipartitionSpec.parse(str(part), 4) == part

    @pytest.mark.parametrize(
        "text,n",
        [
            ("12", 2),          # no cut marker
            ("1|1", 2),         # overlap
            ("1|3", 2),         # gap
            ("|12", 2),         # empty side
            ("1|2", 3),         # wrong spin count
            ("a|b", 2),         # not indices
        ],
    )
    def test_parse_rejects_malformed(self, text, n):
        with pytest.raises(ValidationError):
            BipartitionSpec.parse(text, n)


class TestHermitianEigenvalues:
    def test_diagonal_case(self):
        np.testing.assert_allclose(_spectrum(np.diag([0.9, 0.1]).astype(complex)), [0.1, 0.9])

    def test_pauli_spectrum(self):
        np.testing.assert_allclose(_spectrum(PAULI_X), [-1.0, 1.0], atol=1e-14)

    def test_maximally_mixed_spectrum(self):
        np.testing.assert_allclose(_spectrum(maximally_mixed(8)), np.full(8, 1 / 8))

    def test_rejects_non_hermitian(self):
        """The public report checks its input before taking any spectrum."""
        skew = np.kron(np.array([[0, 1], [2, 0]]), np.eye(2)).astype(complex)
        with pytest.raises(ValidationError, match="Hermitian"):
            ppt_report(skew, CUT_12)

    def test_random_spectrum_properties(self):
        """Sum of eigenvalues = trace; each one kills the characteristic polynomial."""
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = random_hermitian(rng, 4)
            eigs = _spectrum(a)
            assert np.all(np.diff(eigs) >= 0)
            np.testing.assert_allclose(eigs.sum(), np.trace(a).real, atol=1e-9)
            for lam in eigs:
                assert abs(np.linalg.det(a - lam * np.eye(4))) < 1e-8

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            a = random_hermitian(rng, dim)
            u = random_unitary(rng, dim)
            np.testing.assert_allclose(
                _spectrum(u @ a @ u.conj().T),
                _spectrum(a),
                atol=1e-9,
            )


class TestSpectrumShortcuts:
    """The diagonal and Cholesky paths decide exactly as an eigendecomposition."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 33, 64, 127, 256, 512, 1024])
    def test_diagonal_spectrum_is_bitwise_eigvalsh(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(3):
            signs = rng.choice([-1.0, 1.0], size=dim)
            diagonal = signs * 10.0 ** rng.uniform(-12, 2, size=dim)
            a = np.diag(diagonal).astype(complex)
            assert _spectrum(a).tobytes() == np.linalg.eigvalsh(a).tobytes()

    @pytest.mark.parametrize("dim", [4, 64, 1024])
    def test_psd_decision_matches_eigvalsh(self, dim):
        rng = np.random.default_rng(60 + dim)
        u = random_unitary(rng, dim)
        for floor in (-10.0, -2.0, -0.75, -0.25, 0.0, 1.0):
            spectrum = rng.uniform(0.5, 1.5, size=dim)
            spectrum[1:] *= (1.0 - floor * PSD_TOL) / spectrum[1:].sum()
            spectrum[0] = floor * PSD_TOL
            rho = (u * spectrum) @ u.conj().T
            rho = (rho + rho.conj().T) / 2
            lo = np.linalg.eigvalsh(rho)[0]
            if lo < -PSD_TOL:
                with pytest.raises(ValidationError, match=f"negative eigenvalue {lo:.3e}$"):
                    density_matrix(rho)
            else:
                density_matrix(rho)
            assert (lo < -PSD_TOL) == (floor < -1.0)


class TestPartialTranspose:
    def test_product_case(self):
        rng = np.random.default_rng(41)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        joint = np.kron(rho_a, rho_b)
        expected = np.kron(rho_a, rho_b.T)
        np.testing.assert_allclose(_partial_transpose(joint, CUT_12), expected, atol=1e-14)
        np.testing.assert_allclose(
            _spectrum(_partial_transpose(joint, CUT_12)),
            _spectrum(joint),
            atol=1e-10,
        )

    def test_diagonal_invariance(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        np.testing.assert_array_equal(_partial_transpose(rho, CUT_12), rho)

    def test_bell_minimum_eigenvalue(self):
        rho = np.outer(bell_state(), bell_state().conj())
        eigs = _spectrum(_partial_transpose(rho, CUT_12))
        np.testing.assert_allclose(eigs[0], -0.5, atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            rho = random_density(rng, 4)
            np.testing.assert_array_equal(
                _partial_transpose(_partial_transpose(rho, CUT_12), CUT_12), rho
            )

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(43)
        part = BipartitionSpec((2,), (1, 3))
        for _ in range(10):
            rho = random_density(rng, 8)
            pt = _partial_transpose(rho, part)
            np.testing.assert_allclose(np.trace(pt), 1.0, atol=1e-12)
            np.testing.assert_allclose(pt, pt.conj().T, atol=1e-12)


class TestFrobeniusDistance:
    """The distance to I/K that the separability reports carry."""

    def test_identical_inputs(self):
        assert ppt_report(maximally_mixed(4), CUT_12).frobenius_to_mixed == 0.0

    def test_pure_state_distance_to_mixed(self):
        """d(pure, I/K) = sqrt(1 - 1/K), a consequence of purity 1."""
        rng = np.random.default_rng(51)
        for n_spins in (2, 3, 4):
            dim = 2**n_spins
            psi = random_state(rng, dim)
            rho = np.outer(psi, psi.conj())
            part = BipartitionSpec((1,), tuple(range(2, n_spins + 1)))
            np.testing.assert_allclose(
                ppt_report(rho, part).frobenius_to_mixed, np.sqrt(1 - 1 / dim), atol=1e-12
            )

    def test_matches_entrywise_sum(self):
        rng = np.random.default_rng(52)
        rho = random_density(rng, 4)
        mixed = maximally_mixed(4)
        brute = np.sqrt(
            sum(abs(rho[i, j] - mixed[i, j]) ** 2 for i in range(4) for j in range(4))
        )
        np.testing.assert_allclose(ppt_report(rho, CUT_12).frobenius_to_mixed, brute, atol=1e-12)
