import math

import numpy as np
import pytest

from helpers import (
    bell_state,
    entropy_reference,
    maximally_mixed,
    random_density,
    random_state,
    random_unitary,
    schmidt_reference,
)
from spinensemble import entanglement as entanglement_module
from spinensemble.circuit import Circuit, compose_propagator, parse_circuit, random_circuit
from spinensemble.engine import _evolved_blocks
from spinensemble.entanglement import (
    EntanglementReport,
    SeparabilityReport,
    _entropies,
    _schmidt_table,
    _with_separability,
    entanglement_report,
    ppt_report,
)
from spinensemble.qlinalg import BipartitionSpec, ValidationError
from spinensemble.spin_system import (
    SpinSystem,
    ThermalEnsemble,
    equilibrium_density_matrix,
)

CUT_12 = BipartitionSpec((1,), (2,))
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def ghz(n_spins):
    psi = np.zeros(2**n_spins, dtype=complex)
    psi[0] = psi[-1] = INV_SQRT2
    return psi


def schmidt_coefficients(psi, part):
    return entanglement_report(psi, part).schmidt_coefficients


def entropy(coefficients):
    """_entropies of one coefficient row."""
    return float(_entropies(np.asarray(coefficients, dtype=float).reshape(1, -1))[0])


class TestSchmidtCoefficients:
    """The coefficients of entanglement_report."""

    def test_product_state_has_single_coefficient(self):
        psi = np.array([0, 1, 0, 0], dtype=complex)  # |0> x |1>
        coeffs = schmidt_coefficients(psi, CUT_12)
        np.testing.assert_allclose(coeffs, [1.0, 0.0], atol=1e-15)

    def test_bell_state_is_balanced(self):
        np.testing.assert_allclose(
            schmidt_coefficients(bell_state(), CUT_12), [INV_SQRT2, INV_SQRT2], atol=1e-15
        )

    def test_ghz_first_spin_cut(self):
        part = BipartitionSpec((1,), (2, 3))
        coeffs = schmidt_coefficients(ghz(3), part)
        np.testing.assert_allclose(coeffs, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_descending_and_normalized(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            psi = random_state(rng, 16)
            part = BipartitionSpec((1, 3), (2, 4))
            coeffs = schmidt_coefficients(psi, part)
            assert np.all(np.diff(coeffs) <= 0)
            assert abs(np.sum(coeffs**2) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        """The table checks the state length against the cut, for the
        library report and for a block alike."""
        with pytest.raises(ValidationError, match="state dim 2 does not match bipartition"):
            schmidt_coefficients(np.array([1, 0], dtype=complex), CUT_12)
        with pytest.raises(ValidationError, match="state dim 8 does not match bipartition"):
            _schmidt_table(np.eye(8, dtype=complex), CUT_12)

    def test_cut_order_does_not_change_spectrum(self):
        rng = np.random.default_rng(51)
        psi = random_state(rng, 8)
        a = schmidt_coefficients(psi, BipartitionSpec((2,), (1, 3)))
        b = schmidt_coefficients(psi, BipartitionSpec((1, 3), (2,)))
        np.testing.assert_allclose(a, b, atol=1e-12)


def sample_cuts(n_spins):
    """Contiguous halves, odd|even spins, and spin 2 against the rest."""
    spins = range(1, n_spins + 1)
    half = n_spins // 2
    yield BipartitionSpec(tuple(spins[:half]), tuple(spins[half:]))
    if n_spins >= 3:
        yield BipartitionSpec(tuple(spins[::2]), tuple(spins[1::2]))
        yield BipartitionSpec((2,), tuple(s for s in spins if s != 2))


class TestSchmidtTable:
    """One batched SVD over a block of evolved eigenstates, against a
    per-state reshape and SVD (helpers.schmidt_reference)."""

    def test_matches_per_state_reports_bit_for_bit(self):
        """Each row equals the per-state reference, and the library report
        of that column alone, bit for bit."""
        rng = np.random.default_rng(56)
        for n_spins in range(2, 9):
            for part in sample_cuts(n_spins):
                circuit = random_circuit(n_spins, rng, min_depth=20, max_depth=20)
                u = compose_propagator(circuit)
                coefficients, entropies, ranks = _schmidt_table(u, part)
                for k in range(u.shape[0]):
                    expected = schmidt_reference(u[:, k], part)
                    assert coefficients[k].tobytes() == expected.tobytes()
                    assert entropies[k] == entropy_reference(expected)
                    assert ranks[k] == np.count_nonzero(expected > 1e-8)
                    report = entanglement_report(u[:, k], part)
                    assert report.schmidt_coefficients.tobytes() == expected.tobytes()
                    assert report.entropy_bits == entropies[k]
                    assert report.schmidt_rank == ranks[k]

    def test_named_non_contiguous_cuts(self):
        rng = np.random.default_rng(57)
        for text, n_spins in (("1,3|2,4", 4), ("2|1,3", 3), ("1,4|2,3,5", 5)):
            part = BipartitionSpec.parse(text, n_spins)
            u = compose_propagator(random_circuit(n_spins, rng, min_depth=20, max_depth=20))
            coefficients, _, _ = _schmidt_table(u, part)
            for k in range(u.shape[0]):
                expected = schmidt_reference(u[:, k], part)
                assert coefficients[k].tobytes() == expected.tobytes()

    def test_exact_zero_coefficients_give_positive_zero_entropy(self):
        """A permutation circuit maps basis states to basis states, whose
        coefficients are 1 and exact zeros."""
        u = compose_propagator(parse_circuit("X 1\nCNOT 1 3\nSWAP 2 3", 3))
        coefficients, entropies, ranks = _schmidt_table(u, BipartitionSpec((1, 3), (2,)))
        assert np.all(coefficients[:, 0] == 1.0) and np.all(coefficients[:, 1] == 0.0)
        assert np.all(ranks == 1)
        assert all(math.copysign(1.0, e) == 1.0 and e == 0.0 for e in entropies.tolist())

    def test_mixed_zero_patterns_match_per_state_entropies(self):
        """Rows with different numbers of exact zeros each sum over their
        own nonzero squares only."""
        # spin 1 unset: basis states; spin 1 set: Bell states of spins 2 and 3
        u = np.zeros((8, 8), dtype=complex)
        u[:4, :4] = np.eye(4)
        u[4:, 4:] = compose_propagator(parse_circuit("H 1\nCNOT 1 2", 2))
        coefficients, entropies, _ = _schmidt_table(u, BipartitionSpec((2,), (1, 3)))
        assert {np.count_nonzero(row) for row in coefficients} == {1, 2}
        for row, value in zip(coefficients, entropies):
            assert value == entropy_reference(row)

    @pytest.mark.parametrize("width", [2, 7, 8, 9, 32])
    def test_entropies_sum_only_nonzero_squares_in_order(self, width):
        """Alone or in a batch, a row's entropy is the sum over its nonzero
        squares only, in their order, bit for bit: zeros anywhere in the
        row, in rows long enough for numpy's pairwise summation."""
        rng = np.random.default_rng(58)
        rows = rng.random((200, width))
        rows[rng.random(rows.shape) < 0.4] = 0.0
        rows[:100] = -np.sort(-rows[:100], axis=1)  # descending, as an SVD gives
        rows[:, 0] += 0.1
        rows /= np.sqrt(np.sum(rows**2, axis=1, keepdims=True))
        batch = _entropies(rows)
        for row, value in zip(rows, batch):
            assert value == entropy_reference(row) == entropy(row)

    def test_unnormalized_column_rejected(self):
        u = compose_propagator(parse_circuit("H 1\nCNOT 1 2", 2))
        u[:, 2] *= 1.0 + 1e-9
        with pytest.raises(ValidationError, match="eigenstate 2 is not normalized"):
            _schmidt_table(u, CUT_12)
        u[:, 2] = np.nan
        with pytest.raises(ValidationError, match="eigenstate 2 is not normalized"):
            _schmidt_table(u, CUT_12)

    def test_a_block_reads_as_its_columns_of_the_whole(self):
        """A block of columns, given its first index, gives the whole
        table's rows for those eigenstates bit for bit, and a rejection
        names the eigenstate by its index in the whole."""
        part = BipartitionSpec.parse("1,3|2,4,5", 5)
        u = compose_propagator(random_circuit(5, np.random.default_rng(59), 20, 20))
        whole = _schmidt_table(u, part)
        block = np.ascontiguousarray(u[:, 8:16])
        for table, rows in zip(_schmidt_table(block, part, 8), whole, strict=True):
            assert table.tobytes() == rows[8:16].tobytes()
        block[:, 3] *= 1.0 + 1e-9
        with pytest.raises(ValidationError, match="eigenstate 11 is not normalized"):
            _schmidt_table(block, part, 8)

    def test_squared_coefficients_must_sum_to_one(self, monkeypatch):
        original = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: 1.001 * original(*a, **k))
        with pytest.raises(ValidationError, match="squared coefficients sum to"):
            _schmidt_table(compose_propagator(Circuit(2)), CUT_12)


class TestEntanglementEntropy:
    """_entropies on one coefficient row, and the reports' entropy_bits."""

    def test_product_state_entropy_zero(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_bell_entropy_one_bit(self):
        assert abs(entropy([INV_SQRT2, INV_SQRT2]) - 1.0) < 1e-12

    def test_uneven_split_known_value(self):
        coeffs = np.sqrt([1.0 / 3.0, 2.0 / 3.0])
        expected = 0.9182958340544896  # H(1/3) in bits
        assert abs(entropy(coeffs) - expected) < 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            psi = random_state(rng, 8)
            part = BipartitionSpec((1,), (2, 3))
            s = entanglement_report(psi, part).entropy_bits
            assert 0.0 <= s <= 1.0 + 1e-12  # min(|L|,|R|) = 1 qubit

    def test_empty_coefficients_rejected(self):
        """An empty row's squares sum to 0, not 1."""
        with pytest.raises(ValidationError, match="sum to 0.0"):
            entropy([])

    def test_unnormalized_coefficients_rejected(self):
        with pytest.raises(ValidationError, match="sum"):
            entropy([1.0, 1.0])

    @pytest.mark.parametrize(
        "coefficients", [[math.nan, 1.0], [math.nan, INV_SQRT2, INV_SQRT2]], ids=["nan-1", "nan-bell"]
    )
    def test_nan_coefficients_rejected(self, coefficients):
        """A NaN square makes the sum NaN, which fails the sum check
        instead of being dropped as a zero square."""
        with pytest.raises(ValidationError, match="sum to nan"):
            entropy(coefficients)


class TestEntanglementReport:
    def test_bell_report(self):
        report = entanglement_report(bell_state(), CUT_12)
        assert isinstance(report, EntanglementReport)
        assert report.schmidt_rank == 2
        assert not report.is_product
        assert abs(report.entropy_bits - 1.0) < 1e-12
        assert report.bipartition == CUT_12

    def test_product_report(self):
        psi = np.kron(np.array([1, 0]), np.array([INV_SQRT2, INV_SQRT2])).astype(complex)
        report = entanglement_report(psi, CUT_12)
        assert report.schmidt_rank == 1
        assert report.is_product
        assert report.entropy_bits == 0.0

    def test_product_state_entropy_is_positive_zero(self):
        """-0.0 would print as "-0" in reports; product states must give +0.0."""
        psi = np.kron(np.array([1, 0]), np.array([INV_SQRT2, INV_SQRT2])).astype(complex)
        for coeffs in (np.array([1.0, 0.0]), schmidt_coefficients(psi, CUT_12)):
            value = entropy(coeffs)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert math.copysign(1.0, entanglement_report(psi, CUT_12).entropy_bits) == 1.0

    def test_zero_entropy_iff_rank_one(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            psi = random_state(rng, 8)
            report = entanglement_report(psi, BipartitionSpec((1, 2), (3,)))
            assert (report.entropy_bits < 1e-7) == (report.schmidt_rank == 1)

    def test_local_unitaries_preserve_entropy(self):
        """Entropy across L|R is invariant under U_L x U_R."""
        rng = np.random.default_rng(54)
        part = BipartitionSpec((1,), (2, 3))
        for _ in range(25):
            psi = random_state(rng, 8)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 4))
            before = entanglement_report(psi, part).entropy_bits
            after = entanglement_report(u @ psi, part).entropy_bits
            assert abs(before - after) < 1e-10

    def test_coefficients_are_read_only(self):
        report = entanglement_report(bell_state(), CUT_12)
        with pytest.raises(ValueError):
            report.schmidt_coefficients[0] = 0.0

    def test_runs_the_commands_schmidt_table(self, monkeypatch):
        """The library report is the commands' table on a block of one
        column, not a second decomposition of its own."""
        original, blocks = entanglement_module._schmidt_table, []

        def recording(block, part, start=0):
            blocks.append(block.shape)
            return original(block, part, start)

        monkeypatch.setattr(entanglement_module, "_schmidt_table", recording)
        assert entanglement_report(bell_state(), CUT_12).schmidt_rank == 2
        assert blocks == [(4, 1)]

    def test_rejects_what_state_vector_rejects(self):
        for amplitudes, message in (
            (np.eye(4), "1-D amplitude vector"),
            (np.array([1.0, np.nan, 0.0, 0.0]), "finite"),
            (np.array([1.0, 1.0, 0.0, 0.0]), "not normalized"),
        ):
            with pytest.raises(ValidationError, match=message):
                entanglement_report(amplitudes, CUT_12)


class TestPptReport:
    def test_product_mixture_passes(self):
        rho = np.diag([0.4, 0.1, 0.4, 0.1]).astype(complex)
        report = ppt_report(rho, CUT_12)
        assert report.ppt_holds is True
        assert report.ppt_conclusive is True
        assert report.negativity == 0.0
        assert report.min_pt_eigenvalue >= -1e-12

    def test_bell_projector_fails(self):
        rho = np.outer(bell_state(), bell_state().conj())
        report = ppt_report(rho, CUT_12)
        assert abs(report.min_pt_eigenvalue - (-0.5)) < 1e-12
        assert abs(report.negativity - 0.5) < 1e-12
        assert report.ppt_holds is False
        assert report.ppt_conclusive is True
        assert abs(report.purity - 1.0) < 1e-12

    def test_nearly_mixed_bell_diagonal_state(self):
        """Weights 1/4 + delta on one Bell state stay PPT for small delta."""
        delta = 3.0e-5 / 4.0
        phi = bell_state()
        psi_minus = np.array([0, 1, -1, 0], dtype=complex) * INV_SQRT2
        psi_plus = np.array([0, 1, 1, 0], dtype=complex) * INV_SQRT2
        phi_minus = np.array([1, 0, 0, -1], dtype=complex) * INV_SQRT2
        rho = (0.25 + delta) * np.outer(phi, phi.conj())
        for v in (psi_minus, psi_plus, phi_minus):
            rho = rho + (0.25 - delta / 3.0) * np.outer(v, v.conj())
        report = ppt_report(rho, CUT_12)
        assert report.ppt_holds is True
        # PT eigenvalues are 1/2 - w_i; the smallest comes from the boosted weight
        assert abs(report.min_pt_eigenvalue - (0.25 - delta)) < 1e-12
        assert report.negativity == 0.0

    def test_negativity_and_ppt_agree_on_random_two_spin_states(self):
        rng = np.random.default_rng(55)
        for _ in range(40):
            rho = random_density(rng, 4)
            report = ppt_report(rho, CUT_12)
            if report.negativity > 1e-8:
                assert report.ppt_holds is False
            if report.ppt_holds:
                assert report.negativity <= 1e-8

    def test_entangled_pure_two_spin_states_have_positive_negativity(self):
        rng = np.random.default_rng(56)
        found = 0
        for _ in range(30):
            psi = random_state(rng, 4)
            if entanglement_report(psi, CUT_12).is_product:
                continue
            rho = np.outer(psi, psi.conj())
            assert ppt_report(rho, CUT_12).negativity > 1e-8
            found += 1
        assert found > 20  # random pure states are almost surely entangled

    def test_three_spin_cut_is_flagged_inconclusive(self):
        rho = maximally_mixed(8)
        report = ppt_report(rho, BipartitionSpec((1,), (2, 3)))
        assert report.ppt_holds is True
        assert report.ppt_conclusive is False

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="does not match"):
            ppt_report(maximally_mixed(8), CUT_12)

    def test_rejects_what_density_matrix_rejects(self):
        """The public report checks its input (a non-Hermitian one in
        test_qlinalg); only the command path, whose rho' is a density
        matrix by construction, skips the checks."""
        for entries, message in (
            (np.diag([1.2, -0.2, 0.0, 0.0]), "negative eigenvalue"),
            (np.diag([0.5, 0.5, 0.5, 0.0]), "trace"),
        ):
            with pytest.raises(ValidationError, match=message):
                ppt_report(entries.astype(complex), CUT_12)

    def test_input_is_left_as_it_was(self):
        """The distance is taken on ppt_report's own checked copy."""
        rho = random_density(np.random.default_rng(58), 4)
        before = rho.copy()
        ppt_report(rho, CUT_12)
        assert rho.tobytes() == before.tobytes()

    def test_fortran_ordered_input_gives_the_same_report(self):
        """The distance is summed over a C-ordered copy: on a Fortran-ordered
        rho a flat view would be a copy, and the -1/K shift would miss it."""
        for rho in (maximally_mixed(4), random_density(np.random.default_rng(62), 4)):
            assert ppt_report(np.asfortranarray(rho), CUT_12) == ppt_report(rho, CUT_12)
        report = ppt_report((np.eye(4, dtype=complex) / 4).T, CUT_12)
        assert report.frobenius_to_mixed == 0.0 and report.certified_separable is True


class TestMixednessReport:
    """The distance and purity fields of ppt_report."""

    def test_maximally_mixed(self):
        report = ppt_report(maximally_mixed(4), CUT_12)
        assert report.frobenius_to_mixed == 0.0
        assert abs(report.purity - 0.25) < 1e-15
        assert report.min_pt_eigenvalue == 0.25
        assert report.negativity == 0.0
        assert report.ppt_holds is True
        assert report.certified_separable is True

    def test_pure_state_distance(self):
        rho = np.outer(bell_state(), bell_state().conj())
        report = ppt_report(rho, CUT_12)
        assert abs(report.frobenius_to_mixed - math.sqrt(1.0 - 0.25)) < 1e-12
        assert abs(report.purity - 1.0) < 1e-12

    def test_distance_purity_identity(self):
        """||rho - I/K||_F^2 == tr(rho^2) - 1/K for any state."""
        rng = np.random.default_rng(57)
        for n_spins in (2, 3, 4):
            dim = 2**n_spins
            rho = random_density(rng, dim)
            report = ppt_report(rho, BipartitionSpec((1,), tuple(range(2, n_spins + 1))))
            assert abs(report.frobenius_to_mixed**2 - (report.purity - 1.0 / dim)) < 1e-12

    def test_equilibrium_distance_tracks_population_spread(self):
        """At spread epsilon the equilibrium state sits within epsilon of I/K."""
        system = SpinSystem.zeeman([2.0, 1.0])
        epsilon = 1.0e-5
        temperature = system.spectral_width / epsilon
        ens = ThermalEnsemble.boltzmann(system, temperature, 1.0e6)
        report = ppt_report(equilibrium_density_matrix(ens), CUT_12)
        assert report.frobenius_to_mixed <= epsilon



BELL_CIRCUIT = parse_circuit("H 1\nCNOT 1 2", 2)


def bell_orbit(probabilities):
    """U diag(p) U^dagger for the circuit H 1; CNOT 1 2, which maps the
    computational basis onto the Bell basis, |00> onto Phi+."""
    u = compose_propagator(BELL_CIRCUIT)
    return (u * probabilities) @ u.conj().T


def simulate_reports(probabilities, circuit, part):
    """The initial and evolved reports as simulate makes them, for one
    molecule whose populations p are evolved by circuit."""
    system = SpinSystem.zeeman([1.0] * circuit.n_spins)
    ensemble = ThermalEnsemble(system, 1.0, 1.0, populations=probabilities)
    reports = []
    blocks = _evolved_blocks(circuit, ensemble)
    for _ in _with_separability(blocks, ensemble.probabilities, part, reports):
        pass
    return reports


def werner_spectrum(weight):
    """Spectrum of weight |Phi+><Phi+| + (1 - weight) I/4."""
    return np.array([weight + (1.0 - weight) / 4.0] + [(1.0 - weight) / 4.0] * 3)


def cuts(n_spins):
    """Every bipartition, once: the left side holds spin 1."""
    others = range(2, n_spins + 1)
    for mask in range(2 ** (n_spins - 1) - 1):
        left = (1, *(s for i, s in enumerate(others) if mask >> i & 1))
        yield BipartitionSpec(left, tuple(s for s in others if s not in left))


class TestSeparabilityReader:
    """_with_separability reads each block after its consumer has."""

    def test_consumer_reads_each_block_as_drawn(self):
        """At N = 9, over four column blocks and outside the ball with a
        cut (so rho' is copied too), the consumer reads each block bit for
        bit as the bare stream draws it: the -1/K shift of the distance sum
        comes after it."""
        system = SpinSystem.zeeman([2.0 / (1 + j) for j in range(9)])
        ensemble = ThermalEnsemble.boltzmann(system, 0.3, 1.0e6)
        circuit = random_circuit(9, np.random.default_rng(63), 20, 20)
        part = BipartitionSpec((1, 2, 3, 4), (5, 6, 7, 8, 9))
        bare = [block.copy() for _, block in _evolved_blocks(circuit, ensemble)]
        reports = []
        reader = _with_separability(
            _evolved_blocks(circuit, ensemble), ensemble.probabilities, part, reports
        )
        read = [block.copy() for _, block in reader]
        assert len(read) == 4
        assert all(a.tobytes() == b.tobytes() for a, b in zip(read, bare))
        assert reports[1].certified_separable is False


class TestSeparableBall:
    """A state within 1/sqrt(K(K-1)) of I/K is separable across every cut."""

    def test_werner_state_at_one_third_sits_on_the_ball(self):
        """The Werner state at weight 1/3 is at d = 1/sqrt(12), the K = 4
        radius, and is the last PPT one: the ball is tight there."""
        probs = werner_spectrum(1.0 / 3.0)
        initial, evolved = simulate_reports(probs, BELL_CIRCUIT, CUT_12)
        assert math.isclose(initial.frobenius_to_mixed, 1.0 / math.sqrt(12.0), rel_tol=1e-15)
        assert initial.certified_separable is True and initial.min_pt_eigenvalue == probs.min()
        assert evolved.certified_separable is True and evolved.ppt_holds is True
        assert evolved.negativity == 0.0 and evolved.min_pt_eigenvalue is None
        assert abs(ppt_report(bell_orbit(probs), CUT_12).min_pt_eigenvalue) < 1e-15

    def test_werner_state_just_outside_is_npt(self):
        weight = 1.0 / 3.0 + 1e-9
        probs = werner_spectrum(weight)
        _, evolved = simulate_reports(probs, BELL_CIRCUIT, CUT_12)
        assert evolved.certified_separable is False
        assert evolved.ppt_holds is False
        assert abs(evolved.min_pt_eigenvalue - (1.0 - 3.0 * weight) / 4.0) < 1e-15

    @pytest.mark.parametrize("n_spins", [2, 3, 4])
    def test_sampled_orbits_inside_the_ball_are_ppt_on_every_cut(self, n_spins):
        """For rho inside the ball the exact partial-transpose spectrum
        stays above max(1/K - d, 0): 1/K - d because a partial transpose
        keeps the Frobenius norm of rho - I/K, 0 because rho is separable."""
        dim = 2**n_spins
        radius = 1.0 / math.sqrt(dim * (dim - 1))
        rng = np.random.default_rng(60 + n_spins)
        for trial in range(12):
            direction = rng.normal(size=dim)
            direction -= direction.mean()
            direction /= np.linalg.norm(direction)
            # a unit zero-sum vector has entries below sqrt((K-1)/K), so p >= 0
            scale = radius * (1.0 - 1e-9 if trial == 0 else rng.uniform())
            probs = 1.0 / dim + scale * direction
            u = random_unitary(rng, dim)
            rho = (u * probs) @ u.conj().T
            circuit = random_circuit(n_spins, np.random.default_rng(70 + trial), 20, 20)
            initial, evolved = simulate_reports(probs, circuit, next(cuts(n_spins)))
            assert evolved.certified_separable is True
            bound = max(1.0 / dim - initial.frobenius_to_mixed, 0.0)
            for cut in cuts(n_spins):
                report = ppt_report(rho, cut)
                assert report.certified_separable is True
                assert report.min_pt_eigenvalue >= bound - 1e-13


class TestHeadlineContrast:
    """Each molecule ends maximally entangled; their average stays near I/K.

    This is the package's core physical statement, checked here at module
    scope across three population spreads.
    """

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-4, 1e-5])
    def test_pure_states_entangled_average_ppt(self, epsilon):
        system = SpinSystem.zeeman([2.0, 1.0])
        ens = ThermalEnsemble.boltzmann(system, system.spectral_width / epsilon, 1.0e6)
        u = compose_propagator(parse_circuit("H 1\nCNOT 1 2", 2))
        for k in range(4):
            psi = u[:, k]
            report = entanglement_report(psi, CUT_12)
            assert abs(report.entropy_bits - 1.0) < 1e-9
            assert report.schmidt_rank == 2
        rho = u @ equilibrium_density_matrix(ens) @ u.conj().T
        sep = ppt_report(rho, CUT_12)
        assert sep.ppt_holds is True
        assert sep.negativity <= 1e-12
        assert sep.frobenius_to_mixed <= 2.0 * epsilon
