"""Checks that the two readout pathways agree and stay honest.

The sum pathway averages pure-state expectation values over the initial
eigenstates; the trace pathway evolves the mixed equilibrium state gate by
gate. They share only the gate list, not the propagator, so agreement is
evidence, not tautology.
"""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    conjugate_gate_by_gate,
    dense_observable,
    dense_per_state_values,
    dense_trace_value,
    every_kind_circuit,
    random_unitary,
    row_passes,
)
from spinensemble.circuit import (
    Circuit,
    _block_width,
    compose_propagator,
    parse_circuit,
    random_circuit,
)
from spinensemble import engine
from spinensemble.engine import (
    IMAG_TOL,
    PATHWAY_TOL,
    PathwayResult,
    compare_pathways,
    _conjugate_transpose,
    _evolved_density_matrix,
    _per_state_values,
    _trace_value,
    _weighted_sum,
)
from spinensemble.qlinalg import ValidationError, hermitian
from spinensemble.spin_system import (
    PauliSum,
    SpinSystem,
    ThermalEnsemble,
    equilibrium_density_matrix,
)

H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def zeeman_ensemble(n_spins, temperature=3.0e5, molecule_count=1.0e6):
    system = SpinSystem.zeeman([2.0 / (1 + j) for j in range(n_spins)])
    return ThermalEnsemble.boltzmann(system, temperature, molecule_count)


def run_compare(circuit, ensemble, *observables):
    return compare_pathways(circuit, ensemble, observables)


def blocks_of(u):
    """A stand-in for engine._eigenstate_blocks that reads a given
    propagator's columns over the same blocks."""
    width = _block_width(u.shape[0])
    return lambda circuit: (
        (start, np.ascontiguousarray(u[:, start : start + width]))
        for start in range(0, u.shape[0], width)
    )


def ensemble_sum(u, ensemble, obs):
    """The sum pathway alone, on a given propagator."""
    return _weighted_sum(ensemble.populations, _per_state_values(u, obs))


def trace_pathway(circuit, ensemble, obs):
    """The trace pathway alone; rho' is read through the module, so a
    monkeypatched _evolved_density_matrix takes effect."""
    rho = engine._evolved_density_matrix(circuit, ensemble)
    return _trace_value(rho, obs, ensemble.molecule_count)


class TestEvolveEigenstate:
    """The sum pathway's evolved eigenstates U|k>, read block by block off
    the circuit's plan."""

    @staticmethod
    def columns(circuit):
        return np.hstack([block for _, block in engine._eigenstate_blocks(circuit)])

    def test_identity_returns_basis_vector(self):
        np.testing.assert_array_equal(self.columns(Circuit(2))[:, 2], [0, 0, 1, 0])

    def test_bell_from_ground_state(self):
        u = self.columns(parse_circuit("H 1\nCNOT 1 2", 2))
        np.testing.assert_allclose(u[:, 0], np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12)

    def test_output_is_normalized(self):
        circuit = random_circuit(9, np.random.default_rng(40), 20, 20)  # four blocks
        norms = np.linalg.norm(self.columns(circuit), axis=0)
        assert np.all(np.abs(norms - 1.0) < 1e-12)

    def test_returns_independent_copy(self):
        """Each block is an array of its own, so blocks kept together still
        hold their own columns: U's, bit for bit."""
        circuit = random_circuit(10, np.random.default_rng(42), 20, 20)
        blocks = [block for _, block in engine._eigenstate_blocks(circuit)]
        assert len(blocks) == 2**10 // _block_width(2**10)
        for i, block in enumerate(blocks):
            assert not any(np.shares_memory(block, other) for other in blocks[i + 1 :])
        assert np.hstack(blocks).tobytes() == compose_propagator(circuit).tobytes()


class TestPerStateExpectations:
    def test_identity_propagator_sx_is_zero(self):
        obs = PauliSum.collective(1, "x")
        assert _per_state_values(np.eye(2, dtype=complex), obs)[0] == 0.0

    def test_hadamard_rotates_ground_to_plus(self):
        obs = PauliSum.collective(1, "x")
        value = _per_state_values(H2, obs)[0]
        assert abs(value - 0.5) < 1e-12

    def test_bell_state_collective_x_vanishes(self):
        u = compose_propagator(parse_circuit("H 1\nCNOT 1 2", 2))
        obs = PauliSum.collective(2, "x")
        assert abs(_per_state_values(u, obs)[0]) < 1e-12

    def test_vectorized_matches_per_index(self):
        rng = np.random.default_rng(41)
        u = random_unitary(rng, 8)
        for obs in [PauliSum.collective(3, axis) for axis in "xyz"] + [PauliSum(3, "y", (2,))]:
            values = _per_state_values(u, obs)
            matrix = dense_observable(obs)
            for k in range(8):
                column = u[:, k]
                assert abs(values[k] - np.vdot(column, matrix @ column).real) < 1e-12

    def test_rejects_non_hermitian_observable(self, monkeypatch):
        """A matrix is not an observable the engine reads, Hermitian or not,
        and it is refused before either pathway evolves anything."""
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        hermitian_matrix = dense_observable(PauliSum.collective(1, "x"))

        def refuse(*args):
            raise AssertionError("a pathway ran before the observable was checked")

        monkeypatch.setattr(engine, "_eigenstate_blocks", refuse)
        monkeypatch.setattr(engine, "_evolved_density_matrix", refuse)
        ens = zeeman_ensemble(1)
        for matrix in (bad, hermitian_matrix):
            with pytest.raises(ValidationError, match="must be a PauliSum, got ndarray"):
                run_compare(Circuit(1), ens, PauliSum.collective(1, "z"), matrix)


class TestPauliSum:
    """The term-by-term kernels against the dense oracle in helpers."""

    def test_matches_dense_observable_on_random_circuits(self):
        rng = np.random.default_rng(51)
        for n_spins in range(1, 8):
            ens = zeeman_ensemble(n_spins)
            circuit = random_circuit(n_spins, rng, min_depth=20, max_depth=20)
            u = compose_propagator(circuit)
            for axis in "xyz":
                observables = [PauliSum.collective(n_spins, axis), PauliSum(n_spins, axis, (1,))]
                observables.append(PauliSum(n_spins, axis, (n_spins,)))
                rho = _evolved_density_matrix(circuit, ens)
                for pauli in observables:
                    dense = dense_observable(pauli)
                    np.testing.assert_allclose(
                        _per_state_values(u, pauli),
                        dense_per_state_values(u, dense),
                        rtol=0,
                        atol=1e-12,
                    )
                    local = _trace_value(rho, pauli, ens.molecule_count)
                    reference = dense_trace_value(rho, dense, ens.molecule_count)
                    assert abs(local - reference) <= PATHWAY_TOL * ens.molecule_count

    def test_compare_pathways_and_single_state_accept_pauli_sums(self):
        rng = np.random.default_rng(52)
        ens = zeeman_ensemble(4)
        circuit = random_circuit(4, rng, min_depth=20, max_depth=20)
        u = compose_propagator(circuit)
        paulis = [PauliSum(4, axis, (2, 4)) for axis in "xyz"]
        results = compare_pathways(circuit, ens, paulis)
        for pauli, result in zip(paulis, results):
            dense_sum = _weighted_sum(
                ens.populations, dense_per_state_values(u, dense_observable(pauli))
            )
            assert result.abs_difference <= PATHWAY_TOL * ens.molecule_count
            assert abs(result.expectation_sum - dense_sum) <= 1e-12 * ens.molecule_count
            single = _per_state_values(u, pauli)
            assert single.tobytes() == result.per_state_values.tobytes()

    def test_x_and_y_share_one_row_pair_product_per_spin(self, monkeypatch):
        circuit = random_circuit(4, np.random.default_rng(53), min_depth=20, max_depth=20)
        observables = [PauliSum.collective(4, axis) for axis in "xyz"]
        subscripts = []
        original = np.einsum

        def counting(spec, *operands, **kwargs):
            subscripts.append(spec)
            return original(spec, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", counting)
        compare_pathways(circuit, zeeman_ensemble(4), observables)
        assert subscripts.count("ijk,ijk->k") == 4

    def test_dimension_mismatch_rejected(self):
        ens = zeeman_ensemble(2)
        with pytest.raises(ValidationError, match=r"PauliSum shape \(8, 8\) does not match"):
            run_compare(Circuit(2), ens, PauliSum.collective(3, "x"))
        with pytest.raises(ValidationError, match=r"PauliSum shape \(2, 2\) does not match"):
            run_compare(Circuit(2), ens, PauliSum.collective(2, "z"), PauliSum.collective(1, "z"))

    @pytest.mark.parametrize(
        "args,fragment",
        [
            ((2, "q", (1,)), "axis"),
            ((2, "x", (3,)), "out of range"),
            ((2, "x", (0,)), "out of range"),
            ((2, "y", ()), "at least one"),
            ((2, "z", (1, 1)), "distinct"),
            ((0, "z", (1,)), "n_spins"),
        ],
    )
    def test_bad_axis_or_spin_rejected(self, args, fragment):
        with pytest.raises(ValidationError, match=fragment):
            PauliSum(*args)


def weighted_sum_loop(populations, per_state):
    """Reference: the population-weighted sum as a loop in ascending k."""
    total = 0.0
    for k in range(per_state.shape[0]):
        total += float(populations[k]) * float(per_state[k])
    return total


class TestEnsembleSum:
    @pytest.mark.parametrize("size", [0, 1, 2, 16, 1024, 4096])
    def test_weighted_sum_is_the_loop_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        populations = rng.uniform(0.0, 1e6, size)
        per_state = rng.normal(size=size)
        got = _weighted_sum(populations, per_state)
        assert type(got) is float
        assert got.hex() == weighted_sum_loop(populations, per_state).hex()

    def test_weighted_sum_of_negative_zeros_is_positive_zero(self):
        populations, per_state = np.ones(4), np.full(4, -0.0)
        assert math.copysign(1.0, _weighted_sum(populations, per_state)) == 1.0
        assert math.copysign(1.0, weighted_sum_loop(populations, per_state)) == 1.0

    def test_uniform_populations_kill_traceless_observable(self):
        """With all C_k equal the sum is C * tr(U obs U+) = 0 for traceless obs."""
        rng = np.random.default_rng(42)
        system = SpinSystem.zeeman([2.0, 1.0])
        ens = ThermalEnsemble(system, 1.0, 8.0, populations=np.full(4, 2.0))
        u = random_unitary(rng, 4)
        value = ensemble_sum(u, ens, PauliSum.collective(2, "x"))
        assert abs(value) < 1e-12

    def test_single_spin_identity_circuit_closed_form(self):
        ens = zeeman_ensemble(1)
        c1, c2 = ens.populations
        (result,) = run_compare(Circuit(1), ens, PauliSum.collective(1, "z"))
        assert abs(result.expectation_sum - (c1 - c2) / 2.0) < 1e-12

    def test_matches_trace_pathway_on_random_input(self):
        rng = np.random.default_rng(43)
        for n_spins in (1, 2, 3):
            ens = zeeman_ensemble(n_spins)
            circuit = random_circuit(n_spins, rng, min_depth=20, max_depth=20)
            observables = [PauliSum(n_spins, axis, tuple(range(n_spins, 0, -1))) for axis in "xyz"]
            for result in compare_pathways(circuit, ens, observables):
                assert result.abs_difference <= PATHWAY_TOL * ens.molecule_count


class TestEnsembleTrace:
    def test_infinite_temperature_limit_traceless(self):
        """Equal populations make rho = I/K, so traceless observables read 0."""
        rng = np.random.default_rng(44)
        system = SpinSystem.zeeman([2.0, 1.0])
        ens = ThermalEnsemble(system, 1.0, 4.0, populations=np.ones(4))
        circuit = random_circuit(2, rng, min_depth=20, max_depth=20)
        (result,) = run_compare(circuit, ens, PauliSum.collective(2, "z"))
        assert abs(result.expectation_trace) < 1e-12

    def test_bell_circuit_agreement_is_tight(self):
        ens = zeeman_ensemble(2)
        circuit = parse_circuit("H 1\nCNOT 1 2", 2)
        (result,) = run_compare(circuit, ens, PauliSum.collective(2, "z"))
        assert result.abs_difference <= 1e-12 * ens.molecule_count


class TestComparePathways:
    def test_empty_circuit_traceless_observable(self):
        ens = zeeman_ensemble(2)
        (result,) = run_compare(Circuit(2), ens, PauliSum.collective(2, "x"))
        assert result.expectation_sum == 0.0
        assert result.expectation_trace == 0.0
        assert result.abs_difference == 0.0

    def test_bell_circuit_result_fields(self):
        ens = zeeman_ensemble(2)
        circuit = parse_circuit("H 1\nCNOT 1 2", 2)
        (result,) = run_compare(circuit, ens, PauliSum.collective(2, "z"))
        assert isinstance(result, PathwayResult)
        assert result.abs_difference <= PATHWAY_TOL * ens.molecule_count
        assert result.per_state_values.shape == (4,)

    def test_abs_difference_is_consistent(self):
        rng = np.random.default_rng(45)
        ens = zeeman_ensemble(3)
        (result,) = run_compare(random_circuit(3, rng), ens, PauliSum.collective(3, "y"))
        assert result.abs_difference == abs(result.expectation_sum - result.expectation_trace)

    def test_sum_reconstructs_from_per_state_values(self):
        """Reported per-state values plus populations must rebuild the sum bit-exactly."""
        rng = np.random.default_rng(46)
        ens = zeeman_ensemble(2)
        (result,) = run_compare(random_circuit(2, rng), ens, PauliSum.collective(2, "x"))
        acc = 0.0
        for k in range(4):
            acc += ens.populations[k] * result.per_state_values[k]
        assert acc == result.expectation_sum

    def test_per_state_values_are_read_only(self):
        ens = zeeman_ensemble(1)
        (result,) = run_compare(Circuit(1), ens, PauliSum.collective(1, "z"))
        with pytest.raises(ValueError):
            result.per_state_values[0] = 7.0

    def test_dimension_mismatch_rejected(self):
        ens = zeeman_ensemble(2)
        with pytest.raises(ValidationError, match="match"):
            run_compare(Circuit(1), ens, PauliSum.collective(1, "z"))


class TestPathwayIndependence:
    def test_foreign_propagator_shows_as_disagreement(self, monkeypatch):
        """The trace pathway reads the gate list, never the sum side's
        evolved eigenstates: wrong ones show in the sum alone."""
        ens = zeeman_ensemble(2)
        circuit = parse_circuit("X 1", 2)
        obs = PauliSum.collective(2, "z")
        (honest,) = run_compare(circuit, ens, obs)
        foreign = blocks_of(compose_propagator(Circuit(2)))
        monkeypatch.setattr(engine, "_eigenstate_blocks", foreign)
        (result,) = run_compare(circuit, ens, obs)
        assert result.abs_difference > PATHWAY_TOL * ens.molecule_count
        assert result.expectation_trace == honest.expectation_trace

    def test_non_unitary_propagator_shows_as_disagreement(self, monkeypatch):
        """compare_pathways does not re-check the evolved eigenstates;
        scaled ones disagree instead."""
        ens = zeeman_ensemble(2)
        circuit = parse_circuit("RY 1 0.4\nCNOT 1 2", 2)
        obs = PauliSum.collective(2, "z")
        (honest,) = run_compare(circuit, ens, obs)
        scaled = blocks_of(1.5 * compose_propagator(circuit))
        monkeypatch.setattr(engine, "_eigenstate_blocks", scaled)
        (result,) = run_compare(circuit, ens, obs)
        assert result.abs_difference > PATHWAY_TOL * ens.molecule_count
        assert result.expectation_trace == honest.expectation_trace
        scaled_trace = 2.25 * result.expectation_trace
        assert abs(result.expectation_sum - scaled_trace) <= PATHWAY_TOL * ens.molecule_count

    def test_several_observables_match_single_pathway_calls(self):
        rng = np.random.default_rng(49)
        ens = zeeman_ensemble(3)
        circuit = random_circuit(3, rng, min_depth=20, max_depth=20)
        u = compose_propagator(circuit)
        observables = [PauliSum.collective(3, axis) for axis in "xyz"]
        results = compare_pathways(circuit, ens, observables)
        assert len(results) == 3
        for obs, result in zip(observables, results):
            assert result.expectation_sum == ensemble_sum(u, ens, obs)
            assert result.expectation_trace == trace_pathway(circuit, ens, obs)

    def test_trace_pathway_matches_dense_conjugation(self):
        """Gate-by-gate G rho G^dagger against U rho U^dagger, up to 7 spins."""
        rng = np.random.default_rng(50)
        for n_spins in range(1, 8):
            ens = zeeman_ensemble(n_spins)
            circuit = random_circuit(n_spins, rng, min_depth=20, max_depth=20)
            u = compose_propagator(circuit)
            rho = (u * ens.probabilities) @ u.conj().T
            for axis in "xyz":
                obs = PauliSum.collective(n_spins, axis)
                dense = dense_trace_value(rho, dense_observable(obs), ens.molecule_count)
                local = trace_pathway(circuit, ens, obs)
                assert abs(local - dense) <= PATHWAY_TOL * ens.molecule_count

    def test_rejects_non_hermitian_observable(self):
        """A matrix is not an observable the engine reads, Hermitian or not."""
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        ens = zeeman_ensemble(1)
        for matrix in (bad, dense_observable(PauliSum.collective(1, "z"))):
            with pytest.raises(ValidationError, match="observable must be a PauliSum"):
                run_compare(Circuit(1), ens, matrix)


class TestTraceImaginaryResidual:
    """The trace pathway refuses a reading whose imaginary part exceeds
    IMAG_TOL.  i * delta * obs is anti-Hermitian, so rho' + i * delta * obs
    reads an imaginary part of delta * tr(obs^2) = delta * K * N / 4 for a
    collective observable."""

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_residual_over_the_budget_is_rejected(self, monkeypatch, axis):
        ens = zeeman_ensemble(3)
        circuit = random_circuit(3, np.random.default_rng(54), min_depth=20, max_depth=20)
        obs = PauliSum.collective(3, axis)
        original = engine._evolved_density_matrix
        for share in (0.5, 2.0):
            skew = 1j * share * IMAG_TOL / (8 * 3 / 4) * dense_observable(obs)
            monkeypatch.setattr(
                engine, "_evolved_density_matrix", lambda c, e: original(c, e) + skew
            )
            if share < 1:
                trace_pathway(circuit, ens, obs)
                run_compare(circuit, ens, obs)
                continue
            with pytest.raises(ValidationError, match="trace expectation has imaginary residual"):
                trace_pathway(circuit, ens, obs)
            with pytest.raises(ValidationError, match="trace expectation has imaginary residual"):
                run_compare(circuit, ens, obs)


class TestRowPassDensityMatrix:
    """rho' = U (U rho)^dagger in two row passes, against gate-by-gate
    conjugation with G on the rows and conj(G) on the columns."""

    @pytest.mark.parametrize("temperature", [3.0e5, 1.0])
    def test_matches_gate_by_gate_conjugation(self, temperature):
        rng = np.random.default_rng(51)
        for n_spins in range(1, 9):
            ens = zeeman_ensemble(n_spins, temperature=temperature)
            for _ in range(3):
                circuit = random_circuit(n_spins, rng, min_depth=20, max_depth=20)
                if n_spins >= 2:
                    tail = f"CZ {n_spins} 1\nSWAP 1 {n_spins}\nCNOT 2 1"
                    circuit = Circuit(n_spins, circuit.gates + parse_circuit(tail, n_spins).gates)
                rho = _evolved_density_matrix(circuit, ens)
                reference = conjugate_gate_by_gate(circuit, equilibrium_density_matrix(ens))
                assert np.max(np.abs(rho - reference)) <= 1e-15
                hermitian(rho)
                assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15

    @pytest.mark.parametrize("n_spins", [9, 10])
    @pytest.mark.parametrize("extra", [0, 7])  # 14 and 21 gates
    def test_column_blocks_match_whole_operand_row_passes(self, n_spins, extra):
        """From N = 9 each pass runs over several column blocks: rho' is
        bit for bit the two whole-operand passes around np.conjugate(a.T),
        and within 1e-15 of gate-by-gate conjugation (which rounds in
        another order)."""
        ens = zeeman_ensemble(n_spins, temperature=1.0)
        circuit = every_kind_circuit(n_spins, np.random.default_rng(53 + extra), extra)
        half = row_passes(circuit, equilibrium_density_matrix(ens))
        expected = row_passes(circuit, np.conjugate(half.T))
        rho = _evolved_density_matrix(circuit, ens)
        assert rho.tobytes() == expected.tobytes()
        reference = conjugate_gate_by_gate(circuit, equilibrium_density_matrix(ens))
        assert np.max(np.abs(rho - reference)) <= 1e-15

    def test_holds_two_operands_at_a_time(self):
        """At N = 8 one column block is the whole operand, so each pass
        writes to it and one spare array: the peak is two K x K arrays,
        not one per gate or three."""
        n_spins = 8
        operand = 16 * 4**n_spins
        ens = zeeman_ensemble(n_spins)
        circuit = random_circuit(n_spins, np.random.default_rng(52), min_depth=20, max_depth=20)
        circuit._plan  # compiled outside the measurement
        tracemalloc.start()
        try:
            rho = _evolved_density_matrix(circuit, ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rho.nbytes == operand
        assert peak < 2.5 * operand

    def test_holds_one_operand_beside_two_blocks(self):
        """diag(p) is the first pass's own operand, and the transpose and
        the second pass overwrite it: at N = 10 the peak is one K x K array,
        two 1 MiB column blocks (an eighth of it) and one 64 x 64 tile."""
        n_spins = 10
        operand = 16 * 4**n_spins
        ens = zeeman_ensemble(n_spins)
        circuit = random_circuit(n_spins, np.random.default_rng(52), min_depth=20, max_depth=20)
        circuit._plan  # compiled outside the measurement
        tracemalloc.start()
        try:
            rho = _evolved_density_matrix(circuit, ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rho.nbytes == operand
        assert peak < 1.15 * operand

    def test_empty_circuit_leaves_rho_alone(self):
        ens = zeeman_ensemble(3)
        np.testing.assert_array_equal(
            _evolved_density_matrix(Circuit(3), ens), equilibrium_density_matrix(ens)
        )

    def test_empty_circuit_over_several_blocks_conjugates_only(self):
        ens = zeeman_ensemble(10)
        rho = _evolved_density_matrix(Circuit(10), ens)
        assert rho.tobytes() == np.conjugate(equilibrium_density_matrix(ens)).tobytes()


def test_sum_side_over_column_blocks_matches_whole_propagator():
    """The sum half runs the plan on blocks of identity columns: at N = 4
    one block and at N = 10 sixteen, each equal bit for bit to the same
    columns of the composed propagator, so every per-state value and
    weighted sum equals the whole-propagator reading.  At N = 10 the sum
    half holds two blocks at most, an eighth of a K x K array (an identity
    block and its spare while a block is built, then the block and half a
    block for the row-pair product while it is read, and never the block
    before it), where the whole propagator was one K x K array."""
    rng = np.random.default_rng(55)
    circuits = (random_circuit(4, rng, min_depth=20, max_depth=20), every_kind_circuit(10, rng, 7))
    for circuit, blocks in zip(circuits, (1, 16)):
        n_spins = circuit.n_spins
        operand = 16 * 4**n_spins
        ens = zeeman_ensemble(n_spins, temperature=1.0)
        u = compose_propagator(circuit)
        width = _block_width(circuit.dim)
        starts = []
        for start, block in engine._eigenstate_blocks(circuit):
            assert block.flags.c_contiguous and block.shape == (circuit.dim, width)
            assert block.tobytes() == np.ascontiguousarray(u[:, start : start + width]).tobytes()
            starts.append(start)
        assert starts == list(range(0, circuit.dim, width)) and len(starts) == blocks
        observables = [PauliSum.collective(n_spins, axis) for axis in "xyz"]
        observables.append(PauliSum(n_spins, "y", (1, n_spins)))
        tracemalloc.start()
        try:
            sides = engine._sum_side(engine._eigenstate_blocks(circuit), ens, observables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if blocks > 1:
            assert peak < 0.15 * operand
        for (per_state, total), obs in zip(sides, observables, strict=True):
            whole = _per_state_values(u, obs)
            assert per_state.tobytes() == whole.tobytes()
            assert total == _weighted_sum(ens.populations, whole)


@pytest.mark.parametrize("n_spins", range(11))
def test_conjugate_transpose_in_place_is_exact(n_spins):
    """The tile swaps and the one conjugating pass give np.conjugate(a.T)
    bit for bit, signed zeros included, beside one 64 x 64 tile."""
    dim = 2**n_spins
    rng = np.random.default_rng(54 + n_spins)
    parts = rng.choice([0.0, -0.0, 1.5, -2.25, 0.3], size=(dim, dim, 2))
    parts[..., 0] += rng.normal(size=(dim, dim)) * (rng.random(size=(dim, dim)) < 0.5)
    a = np.ascontiguousarray(parts).view(complex).reshape(dim, dim)
    expected = np.conjugate(a.T).tobytes()
    tracemalloc.start()
    try:
        _conjugate_transpose(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.tobytes() == expected
    assert peak <= 16 * 64 * 64 + 4096


class TestLinearity:
    def test_doubling_molecules_doubles_both_pathways(self):
        rng = np.random.default_rng(47)
        circuit = random_circuit(2, rng)
        obs = PauliSum.collective(2, "z")
        system = SpinSystem.zeeman([2.0, 1.0])
        base = ThermalEnsemble.boltzmann(system, 3.0e5, 5.0e5)
        doubled = ThermalEnsemble(
            system, base.temperature, 1.0e6, populations=base.populations * 2.0
        )
        (once,) = run_compare(circuit, base, obs)
        (twice,) = run_compare(circuit, doubled, obs)
        # power-of-two scaling is exact in floating point
        assert twice.expectation_sum == 2.0 * once.expectation_sum
        assert twice.expectation_trace == 2.0 * once.expectation_trace

    def test_tripling_molecules_scales_within_roundoff(self):
        rng = np.random.default_rng(48)
        circuit = random_circuit(2, rng)
        obs = PauliSum.collective(2, "x")
        system = SpinSystem.zeeman([2.0, 1.0])
        base = ThermalEnsemble.boltzmann(system, 3.0e5, 1.0e5)
        tripled = ThermalEnsemble(
            system, base.temperature, 3.0e5, populations=base.populations * 3.0
        )
        a = run_compare(circuit, tripled, obs)[0].expectation_sum
        b = 3.0 * run_compare(circuit, base, obs)[0].expectation_sum
        # the sum is a near-cancelling residual, so roundoff scales with M
        assert abs(a - b) <= 1e-14 * tripled.molecule_count
