"""Checks that the two readout pathways agree and stay honest.

The sum pathway averages pure-state expectation values over the initial
eigenstates; the trace pathway evolves the mixed equilibrium state gate by
gate. They share only the gate list, not the propagator, so agreement is
evidence, not tautology.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    conjugate_gate_by_gate,
    dagger_row_passes,
    dense_observable,
    dense_per_state_values,
    dense_trace_value,
    equilibrium_rho,
    every_kind_circuit,
    random_unitary,
    row_passes,
)
from spinensemble.circuit import (
    Circuit,
    _block_width,
    _scale_rows,
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
    _per_state_values,
    _weighted_sum,
)
from spinensemble.entanglement import _with_separability
from spinensemble.qlinalg import BipartitionSpec, ValidationError, hermitian
from spinensemble.spin_system import (
    PauliSum,
    SpinSystem,
    ThermalEnsemble,
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
    """The trace pathway alone; rho''s blocks are read through the module,
    so a monkeypatched _evolved_blocks takes effect."""
    blocks = engine._evolved_blocks(circuit, ensemble)
    return engine._trace_side(blocks, ensemble, [obs])[0]


def evolved_density_matrix(circuit, ensemble):
    """rho' copied from the block stream, as simulate copies it for the
    exact report outside the separable ball."""
    rho = np.empty((circuit.dim, circuit.dim), dtype=complex)
    for start, block in engine._evolved_blocks(circuit, ensemble):
        rho[:, start : start + block.shape[1]] = block
    return rho


EVOLVED_BLOCKS = engine._evolved_blocks


def skewed_blocks(skew):
    """A stand-in for engine._evolved_blocks that adds skew's columns to
    each block of rho'."""

    def blocks(circuit, ensemble):
        for start, block in EVOLVED_BLOCKS(circuit, ensemble):
            block += skew[:, start : start + block.shape[1]]
            yield start, block

    return blocks


class TestEvolveEigenstate:
    """The sum pathway's evolved eigenstates U|k>, read block by block off
    the circuit's plan."""

    @staticmethod
    def columns(circuit):
        return np.hstack([block.copy() for _, block in engine._eigenstate_blocks(circuit)])

    def test_identity_returns_basis_vector(self):
        np.testing.assert_array_equal(self.columns(Circuit(2))[:, 2], [0, 0, 1, 0])

    def test_bell_from_ground_state(self):
        u = self.columns(parse_circuit("H 1\nCNOT 1 2", 2))
        np.testing.assert_allclose(u[:, 0], np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12)

    def test_output_is_normalized(self):
        circuit = random_circuit(9, np.random.default_rng(40), 20, 20)  # four blocks
        norms = np.linalg.norm(self.columns(circuit), axis=0)
        assert np.all(np.abs(norms - 1.0) < 1e-12)

    @pytest.mark.parametrize("stream", ["eigenstates", "evolved"])
    def test_each_draw_overwrites_the_block_before_it(self, stream):
        """Both streams build each block where the last one was read, so a
        held block is overwritten by the next draw, and a reader that keeps
        blocks copies them: copies taken before each draw are U, or the
        assembled rho', bit for bit, over sixteen blocks at N = 10."""
        circuit = random_circuit(10, np.random.default_rng(42), 20, 20)
        ens = zeeman_ensemble(10, temperature=1.0)
        if stream == "eigenstates":
            blocks, whole = engine._eigenstate_blocks(circuit), compose_propagator(circuit)
        else:
            blocks, whole = engine._evolved_blocks(circuit, ens), evolved_density_matrix(circuit, ens)
        copies, held = [], None
        for _, block in blocks:
            if held is not None:
                assert held.tobytes() != copies[-1].tobytes()
            copies.append(block.copy())
            held = block
        assert len(copies) == 2**10 // _block_width(2**10)
        assert np.hstack(copies).tobytes() == whole.tobytes()


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
        monkeypatch.setattr(engine, "_evolved_blocks", refuse)
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
                rho = evolved_density_matrix(circuit, ens)
                for pauli in observables:
                    dense = dense_observable(pauli)
                    np.testing.assert_allclose(
                        _per_state_values(u, pauli),
                        dense_per_state_values(u, dense),
                        rtol=0,
                        atol=1e-12,
                    )
                    local = trace_pathway(circuit, ens, pauli)
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

    def test_wrong_daggered_plan_shows_as_disagreement(self):
        """Only the trace pathway runs the daggered plan: a dagger whose 2x2
        steps are transposed but not conjugated shows in the trace alone."""
        ens = zeeman_ensemble(2, temperature=1.0)  # a signal far above the budget
        circuit = parse_circuit("RX 1 0.7\nCNOT 1 2\nRY 2 0.4\nS 2", 2)
        obs = PauliSum.collective(2, "y")
        (honest,) = run_compare(circuit, ens, obs)
        plan, dagger = circuit._plans
        unconjugated = tuple(
            (kernel, (args[0], args[1].conj())) if len(args) == 2 else (kernel, args)
            for kernel, args in dagger
        )
        circuit.__dict__["_plans"] = (plan, unconjugated)
        (result,) = run_compare(circuit, ens, obs)
        assert result.expectation_sum == honest.expectation_sum
        assert honest.abs_difference <= PATHWAY_TOL * ens.molecule_count
        assert result.abs_difference > PATHWAY_TOL * ens.molecule_count

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
        for share in (0.5, 2.0):
            skew = 1j * share * IMAG_TOL / (8 * 3 / 4) * dense_observable(obs)
            monkeypatch.setattr(engine, "_evolved_blocks", skewed_blocks(skew))
            if share < 1:
                trace_pathway(circuit, ens, obs)
                run_compare(circuit, ens, obs)
                continue
            with pytest.raises(ValidationError, match="trace expectation has imaginary residual"):
                trace_pathway(circuit, ens, obs)
            with pytest.raises(ValidationError, match="trace expectation has imaginary residual"):
                run_compare(circuit, ens, obs)


class TestRowPassDensityMatrix:
    """rho' = U P U^dagger one column block at a time: for columns J, the
    daggered plan runs on the rows of the identity block E_J, the rows are
    scaled by p, and the plan runs on them.  Checked against gate-by-gate
    conjugation with G on the rows and conj(G) on the columns."""

    @pytest.mark.parametrize("temperature", [3.0e5, 1.0])
    def test_matches_gate_by_gate_conjugation(self, temperature):
        """N = 1..10; from N = 5 on every_kind_circuit, whose RX, RY, RZ, S
        and T have daggers that differ from themselves, and from N = 9 over
        several blocks."""
        rng = np.random.default_rng(51)
        for n_spins in range(1, 11):
            ens = zeeman_ensemble(n_spins, temperature=temperature)
            if n_spins >= 5:
                circuits = [every_kind_circuit(n_spins, rng, 7)]
            else:
                circuits = [random_circuit(n_spins, rng, 20, 20) for _ in range(3)]
            if 2 <= n_spins < 5:
                tail = parse_circuit(f"CZ {n_spins} 1\nSWAP 1 {n_spins}\nCNOT 2 1", n_spins)
                circuits = [Circuit(n_spins, c.gates + tail.gates) for c in circuits]
            for circuit in circuits:
                rho = evolved_density_matrix(circuit, ens)
                reference = conjugate_gate_by_gate(circuit, equilibrium_rho(ens))
                assert np.max(np.abs(rho - reference)) <= 1e-15
                hermitian(rho)
                assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15

    @pytest.mark.parametrize("n_spins", [9, 10])
    @pytest.mark.parametrize("extra", [0, 7])  # 14 and 21 gates
    def test_column_blocks_match_whole_operand_row_passes(self, n_spins, extra):
        """From N = 9 the stream runs over several column blocks: rho' is
        bit for bit the whole operand's passes, each gate's inverse on the
        rows of the identity, the rows scaled by p, then each gate, and
        within 1e-15 of gate-by-gate conjugation (which rounds in another
        order)."""
        ens = zeeman_ensemble(n_spins, temperature=1.0)
        circuit = every_kind_circuit(n_spins, np.random.default_rng(53 + extra), extra)
        u_dagger = dagger_row_passes(circuit, np.eye(circuit.dim, dtype=complex))
        expected = row_passes(circuit, ens.probabilities[:, None] * u_dagger)
        rho = evolved_density_matrix(circuit, ens)
        assert rho.tobytes() == expected.tobytes()
        reference = conjugate_gate_by_gate(circuit, equilibrium_rho(ens))
        assert np.max(np.abs(rho - reference)) <= 1e-15

    @staticmethod
    def trace_side_peak(n_spins, assemble):
        """tracemalloc's peak, in K x K complex arrays, over one trace side
        on collective x read through simulate's separability reader with a
        half|half cut: at T = 0.3, outside the separable ball, the reader
        copies rho', and at T = 3e5 it does not.  The reader's stream is cut
        after its last block, so the exact report does not run."""
        operand = 16 * 4**n_spins
        ens = zeeman_ensemble(n_spins, temperature=0.3 if assemble else 3.0e5)
        half = n_spins // 2
        part = BipartitionSpec(tuple(range(1, half + 1)), tuple(range(half + 1, n_spins + 1)))
        circuit = random_circuit(n_spins, np.random.default_rng(52), min_depth=20, max_depth=20)
        circuit._plans  # compiled outside the measurement
        observables = [PauliSum.collective(n_spins, "x")]
        count = circuit.dim // _block_width(circuit.dim)
        tracemalloc.start()
        try:
            stream = engine._evolved_blocks(circuit, ens)
            reader = _with_separability(stream, ens.probabilities, part, [])
            engine._trace_side(itertools.islice(reader, count), ens, observables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / operand

    def test_holds_two_operands_at_a_time(self):
        """At N = 8 one column block is the whole operand, so the stream
        holds two K x K arrays while it builds rho' and not one per gate,
        and rho' alone while the trace side reads it."""
        assert self.trace_side_peak(8, assemble=False) < 2.16

    def test_holds_one_operand_beside_two_blocks(self):
        """Outside the separable ball, at N = 10, the reader holds its copy
        of rho', one K x K array, beside a 1 MiB block and its spare
        (an eighth of one): no more than the two row passes held.  The
        floor shows the copy was made."""
        assert 1.0 <= self.trace_side_peak(10, assemble=True) < 1.15

    def test_certified_trace_side_holds_no_operand(self):
        """Inside the ball nothing assembles rho': at N = 10 the trace side
        holds a 1 MiB block and its spare, an eighth of a K x K array, and
        no K x K array at all."""
        assert self.trace_side_peak(10, assemble=False) < 0.25

    def test_empty_circuit_leaves_rho_alone(self):
        """With no gates the one block at N = 3 is the identity scaled by p:
        rho' is diag(p) bit for bit."""
        ens = zeeman_ensemble(3)
        rho = evolved_density_matrix(Circuit(3), ens)
        assert rho.tobytes() == equilibrium_rho(ens).tobytes()

    def test_empty_circuit_over_several_blocks_conjugates_only(self):
        """Over sixteen column blocks at N = 10 an empty circuit only scales
        identity blocks by p, and nothing is conjugated: rho' is diag(p) bit
        for bit, its imaginary zeros +0.0 and not the -0.0 a conjugation
        would leave."""
        ens = zeeman_ensemble(10)
        rho = evolved_density_matrix(Circuit(10), ens)
        assert rho.tobytes() == equilibrium_rho(ens).tobytes()
        assert not np.signbit(rho.imag).any()

    def test_scaling_step_rounds_like_an_in_place_product(self):
        """The plan's row scaling by p writes the bits of block *= p[:, None],
        signed zeros included."""
        rng = np.random.default_rng(57)
        parts = rng.choice([0.0, -0.0, 1.5, -2.25, 0.3], size=(64, 32, 2))
        block = np.ascontiguousarray(parts).view(complex).reshape(64, 32)
        scale = rng.choice([0.0, 1e-300, 0.125, 0.7], size=64)
        out = np.empty_like(block)
        _scale_rows(block, out, scale)
        block *= scale[:, None]
        assert out.tobytes() == block.tobytes()

    def test_reduced_blocks_are_read_once_for_every_observable(self, monkeypatch):
        """Each block's reduced 2x2 blocks are gathered once, for all
        observables and spins: one reduction per block, not one per
        observable and spin."""
        circuit = every_kind_circuit(10, np.random.default_rng(56), 0)
        observables = [PauliSum.collective(10, axis) for axis in "xyz"]
        calls = []
        original = engine._reduced_blocks

        def counting(block, start, shifts):
            calls.append(start)
            return original(block, start, shifts)

        monkeypatch.setattr(engine, "_reduced_blocks", counting)
        compare_pathways(circuit, zeeman_ensemble(10), observables)
        assert calls == list(range(0, 2**10, _block_width(2**10)))


def test_sum_side_over_column_blocks_matches_whole_propagator():
    """The sum half runs the plan on blocks of identity columns: at N = 4
    one block and at N = 10 sixteen, each equal bit for bit to the same
    columns of the composed propagator, so every per-state value and
    weighted sum equals the whole-propagator reading.  At N = 10 the sum
    half holds two blocks at most, an eighth of a K x K array (an identity
    block and its spare while a block is built, then the block and one
    conjugate of it, shared by every spin's row-pair product, while it is
    read, and never the block before it), where the whole propagator was
    one K x K array."""
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
