import math
import tracemalloc

import numpy as np
import pytest

from helpers import bell_state, every_kind_circuit, row_passes, unitarity_deviation
from spinensemble import circuit as circuit_module
from spinensemble.circuit import (
    Circuit,
    CircuitParseError,
    Gate,
    _apply_gate,
    _apply_gates,
    _gate_matrix,
    compose_propagator,
    format_circuit,
    parse_circuit,
    random_circuit,
)
from spinensemble.qlinalg import UNITARY_TOL, ValidationError

SX = np.array([[0, 1], [1, 0]], dtype=complex)
EYE = np.eye(2, dtype=complex)


def gate_propagator(gate, n_spins):
    """The full 2**N unitary of one gate: the propagator of a one-gate circuit."""
    return compose_propagator(Circuit(n_spins, (gate,)))


class TestGateType:
    def test_rotation_requires_angle(self):
        with pytest.raises(ValidationError, match="angle"):
            Gate("RX", (1,))

    def test_fixed_gate_refuses_angle(self):
        with pytest.raises(ValidationError, match="no angle"):
            Gate("H", (1,), 0.5)

    def test_two_spin_targets_must_be_distinct(self):
        with pytest.raises(ValidationError, match="distinct"):
            Gate("SWAP", (2, 2))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown gate kind"):
            Gate("Q", (1,))

    def test_arity_enforced(self):
        with pytest.raises(ValidationError, match="target"):
            Gate("CNOT", (1,))


class TestCircuitType:
    def test_targets_must_fit(self):
        with pytest.raises(ValidationError, match="exceed"):
            Circuit(2, (Gate("H", (3,)),))

    def test_spin_count_bounds(self):
        with pytest.raises(ValidationError, match="1..12"):
            Circuit(0)
        with pytest.raises(ValidationError, match="1..12"):
            Circuit(13)


class TestParse:
    def test_two_gate_program(self):
        circuit = parse_circuit("H 1\nCNOT 1 2", 2)
        assert circuit.gates == (Gate("H", (1,)), Gate("CNOT", (1, 2)))

    def test_empty_text(self):
        assert parse_circuit("", 3).gates == ()

    def test_comments_and_blank_lines(self):
        text = "# header\n\nH 1  # inline note\n   \nRZ 2 1.25\n"
        circuit = parse_circuit(text, 2)
        assert circuit.gates == (Gate("H", (1,)), Gate("RZ", (2,), 1.25))

    def test_out_of_range_spin_cites_line(self):
        with pytest.raises(CircuitParseError, match="line 1"):
            parse_circuit("CNOT 1 3", 2)

    def test_error_cites_physical_line_number(self):
        with pytest.raises(CircuitParseError, match="line 4"):
            parse_circuit("# comment\nH 1\n\nH 5\n", 2)

    def test_gate_names_are_case_sensitive(self):
        with pytest.raises(CircuitParseError, match="unknown gate name 'h'"):
            parse_circuit("h 1", 2)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("H", "one spin index"),
            ("H 1 2", "one spin index"),
            ("CNOT 1", "two spin indices"),
            ("CNOT 1 1", "distinct"),
            ("RX 1", "one spin and one angle"),
            ("RX 1 2 3", "one spin and one angle"),
            ("RX 1 abc", "malformed angle"),
            ("RX 1 inf", "finite"),
            ("H 1.5", "malformed spin index"),
            ("H +1", "malformed spin index"),
            ("H 0", "out of range"),
            ("FROB 1", "unknown gate name"),
        ],
    )
    def test_malformed_lines(self, text, fragment):
        with pytest.raises(CircuitParseError, match=fragment):
            parse_circuit(text, 2)


class TestFormat:
    def test_round_trip_fixed_program(self):
        text = "H 1\nCNOT 1 2\nRZ 2 0.5\n"
        circuit = parse_circuit(text, 2)
        assert parse_circuit(format_circuit(circuit), 2) == circuit

    def test_round_trip_preserves_exact_angles(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            circuit = random_circuit(3, rng)
            again = parse_circuit(format_circuit(circuit), 3)
            assert again == circuit  # bit-exact, including float angles

    def test_empty_circuit_formats_to_empty_text(self):
        assert format_circuit(Circuit(2)) == ""


class TestGateUnitary:
    def test_hadamard_on_single_spin(self):
        expected = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        np.testing.assert_allclose(gate_propagator(Gate("H", (1,)), 1), expected)

    def test_x_on_second_spin_embeds_right(self):
        np.testing.assert_array_equal(gate_propagator(Gate("X", (2,)), 2), np.kron(EYE, SX))

    def test_cnot_truth_table(self):
        """Control on spin 1 flips spin 2 only for |10> and |11>."""
        u = gate_propagator(Gate("CNOT", (1, 2)), 2)
        perm = {0: 0, 1: 1, 2: 3, 3: 2}
        for src, dst in perm.items():
            e = np.zeros(4)
            e[src] = 1.0
            out = u @ e
            assert out[dst] == 1.0 and np.count_nonzero(out) == 1

    def test_cnot_reversed_targets(self):
        """Control on spin 2: flips spin 1 when the LOW bit is set."""
        u = gate_propagator(Gate("CNOT", (2, 1)), 2)
        perm = {0: 0, 1: 3, 2: 2, 3: 1}
        for src, dst in perm.items():
            e = np.zeros(4)
            e[src] = 1.0
            assert (u @ e)[dst] == 1.0

    def test_cnot_across_gap(self):
        """Control spin 1, target spin 3, bystander spin 2 untouched."""
        u = gate_propagator(Gate("CNOT", (1, 3)), 3)
        for src in range(8):
            dst = src ^ 1 if src & 4 else src  # flip LSB when MSB set
            e = np.zeros(8)
            e[src] = 1.0
            assert (u @ e)[dst] == 1.0

    def test_swap_exchanges_basis_labels(self):
        u = gate_propagator(Gate("SWAP", (1, 2)), 2)
        np.testing.assert_array_equal(
            u, np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        )

    def test_cz_is_symmetric_in_targets(self):
        np.testing.assert_array_equal(
            gate_propagator(Gate("CZ", (1, 2)), 2), gate_propagator(Gate("CZ", (2, 1)), 2)
        )

    def test_rz_phases(self):
        theta = 0.81
        u = gate_propagator(Gate("RZ", (1,), theta), 1)
        np.testing.assert_allclose(
            u, np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]), atol=1e-15
        )

    def test_rx_pi_is_minus_i_x(self):
        u = gate_propagator(Gate("RX", (1,), math.pi), 1)
        np.testing.assert_allclose(u, -1j * SX, atol=1e-15)

    def test_ry_two_pi_is_minus_identity(self):
        u = gate_propagator(Gate("RY", (1,), 2 * math.pi), 1)
        np.testing.assert_allclose(u, -EYE, atol=1e-15)

    def test_every_kind_embeds_to_a_unitary(self):
        rng = np.random.default_rng(72)
        for _ in range(60):
            circuit = random_circuit(4, rng, min_depth=1, max_depth=1)
            u = gate_propagator(circuit.gates[0], 4)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-12)

    def test_two_spin_embedding_matches_kron_when_adjacent(self):
        g = Gate("CNOT", (2, 3))
        expected = np.kron(EYE, gate_propagator(Gate("CNOT", (1, 2)), 2))
        np.testing.assert_array_equal(gate_propagator(g, 3), expected)


class TestComposePropagator:
    def test_empty_circuit_is_identity(self):
        np.testing.assert_array_equal(compose_propagator(Circuit(2)), np.eye(4))

    def test_hadamard_squares_to_identity(self):
        u = compose_propagator(parse_circuit("H 1\nH 1", 1))
        np.testing.assert_allclose(u, EYE, atol=1e-12)

    def test_bell_preparation_column(self):
        u = compose_propagator(parse_circuit("H 1\nCNOT 1 2", 2))
        np.testing.assert_allclose(u[:, 0], bell_state(), atol=1e-12)

    def test_textual_order_is_application_order(self):
        # X then H differs from H then X on |0>; check against hand values
        u = compose_propagator(parse_circuit("X 1\nH 1", 1))
        np.testing.assert_allclose(u[:, 0], [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-15)

    def test_concatenation_is_matrix_product(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            c1 = random_circuit(3, rng)
            c2 = random_circuit(3, rng)
            joined = Circuit(3, c1.gates + c2.gates)
            np.testing.assert_allclose(
                compose_propagator(joined),
                compose_propagator(c2) @ compose_propagator(c1),
                atol=1e-12,
            )

    def test_random_propagators_are_unitary(self):
        rng = np.random.default_rng(74)
        for _ in range(30):
            u = compose_propagator(random_circuit(3, rng))
            dev = np.max(np.abs(u.conj().T @ u - np.eye(8)))
            assert dev <= 1e-10


class TestTrustedPropagator:
    """compose_propagator checks the gate matrices, never its K x K result;
    the dense check on the result is the oracle here."""

    def test_random_propagators_pass_the_dense_check(self):
        rng = np.random.default_rng(81)
        for n_spins in range(1, 9):
            for _ in range(6):
                u = compose_propagator(random_circuit(n_spins, rng))
                assert unitarity_deviation(u) <= UNITARY_TOL

    def test_a_2000_gate_circuit_passes_the_dense_check(self):
        """Rounding drift over a long product stays inside UNITARY_TOL."""
        circuit = random_circuit(6, np.random.default_rng(82), min_depth=2000, max_depth=2000)
        assert len(circuit.gates) == 2000
        assert unitarity_deviation(compose_propagator(circuit)) <= UNITARY_TOL

    @pytest.mark.parametrize(
        "skewed",
        [np.array([[1, 0.5], [0, 1]]), np.array([[1, 0], [0, 1 + 1e-9]]), np.full((2, 2), np.nan)],
        ids=["shear", "just-over-tolerance", "nan"],
    )
    def test_a_non_unitary_rotation_is_rejected(self, monkeypatch, skewed):
        skewed = skewed.astype(complex)
        monkeypatch.setattr(circuit_module, "_rotation_matrix", lambda kind, angle: skewed)
        circuit = parse_circuit("H 1\nRY 2 0.3\nCNOT 1 2", 2)
        with pytest.raises(ValidationError, match="^matrix is not unitary"):
            compose_propagator(circuit)

    def test_a_non_unitary_two_spin_gate_is_rejected(self, monkeypatch):
        monkeypatch.setitem(circuit_module._FIXED_2Q, "CZ", 2.0 * np.eye(4, dtype=complex))
        with pytest.raises(ValidationError, match="^matrix is not unitary"):
            compose_propagator(parse_circuit("H 1\nCZ 1 2", 2))

    def test_a_unitary_two_spin_gate_that_is_not_a_signed_permutation_is_rejected(
        self, monkeypatch
    ):
        """kron(H, H) passes the unitarity check but is no slice permutation."""
        hadamard = _gate_matrix(Gate("H", (1,)))
        monkeypatch.setitem(circuit_module._FIXED_2Q, "CZ", np.kron(hadamard, hadamard))
        with pytest.raises(ValidationError, match="permute"):
            compose_propagator(parse_circuit("H 1\nCZ 1 2", 2))


def dense_gate(gate, n_spins):
    """Kronecker-product reference for one gate: a sum of tensor products.

    A 4x4 gate m on spins (a, b) is the sum over its entries of
    m[(i, j), (k, l)] * |i><k| (spin a) x |j><l| (spin b) x I elsewhere.
    """
    m = _gate_matrix(gate)
    if len(gate.targets) == 1:
        (t,) = gate.targets
        return np.kron(np.kron(np.eye(2 ** (t - 1)), m), np.eye(2 ** (n_spins - t)))
    a, b = gate.targets
    full = np.zeros((2**n_spins, 2**n_spins), dtype=complex)
    for (i, j, k, l), amp in np.ndenumerate(m.reshape(2, 2, 2, 2)):
        factors = [np.eye(2)] * n_spins
        factors[a - 1] = np.outer(np.eye(2)[i], np.eye(2)[k])
        factors[b - 1] = np.outer(np.eye(2)[j], np.eye(2)[l])
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        full += amp * term
    return full


def dense_propagator(circuit):
    u = np.eye(circuit.dim, dtype=complex)
    for gate in circuit.gates:
        u = dense_gate(gate, circuit.n_spins) @ u
    return u


class TestLocalGateApplication:
    """Local application must reproduce the dense Kronecker product bit for bit."""

    def test_random_circuits_match_dense_reference(self):
        rng = np.random.default_rng(78)
        for n_spins in range(1, 7):
            for _ in range(8):
                circuit = random_circuit(n_spins, rng)
                np.testing.assert_array_equal(
                    compose_propagator(circuit), dense_propagator(circuit)
                )

    @pytest.mark.parametrize(
        "text,n_spins",
        [
            ("H 2\nCNOT 3 1\nRY 1 0.7\nCNOT 3 1", 3),
            ("RX 4 1.3\nH 1\nSWAP 1 4\nT 2\nSWAP 4 1", 4),
            ("H 5\nRY 2 2.1\nCZ 5 2\nCNOT 2 5\nSWAP 1 6\nH 3\nCNOT 6 3", 6),
        ],
    )
    def test_reversed_and_distant_targets_match_dense_reference(self, text, n_spins):
        circuit = parse_circuit(text, n_spins)
        np.testing.assert_array_equal(compose_propagator(circuit), dense_propagator(circuit))

    def test_cnot_reversed_and_non_adjacent_permutes_basis(self):
        """CNOT 3 1 on 3 spins: spin 3 (LSB) controls spin 1 (MSB)."""
        u = compose_propagator(parse_circuit("CNOT 3 1", 3))
        for src in range(8):
            dst = src ^ 4 if src & 1 else src
            assert u[dst, src] == 1.0 and np.count_nonzero(u[:, src]) == 1

    def test_swap_across_gap_exchanges_outer_spins(self):
        u = compose_propagator(parse_circuit("SWAP 1 4", 4))
        for src in range(16):
            high, low = (src >> 3) & 1, src & 1
            dst = (src & 0b0110) | (low << 3) | high
            assert u[dst, src] == 1.0 and np.count_nonzero(u[:, src]) == 1

    def test_every_axis_of_an_operator_tensor(self):
        """One-spin gates on all 10 axes of a 32 x 32 operator: row axes and column axes."""
        rng = np.random.default_rng(79)
        state = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        for gate in (Gate("H", (1,)), Gate("RX", (1,), 0.9), Gate("T", (1,))):
            m = _gate_matrix(gate)
            for axis in range(10):
                expected = np.kron(np.kron(np.eye(2**axis), m), np.eye(2 ** (9 - axis)))
                got = _apply_gate(state, m, (axis,))
                np.testing.assert_allclose(
                    got.reshape(-1), expected @ state.reshape(-1), rtol=0, atol=1e-14
                )

    @pytest.mark.parametrize("kind", ["CNOT", "CZ", "SWAP"])
    def test_every_axis_pair_of_an_operator_tensor(self, kind):
        """Two-spin gates on every ordered pair of the 10 axes of a 32 x 32
        operator: row pairs, column pairs and mixed pairs."""
        rng = np.random.default_rng(80)
        state = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        locals_by_targets = {}
        for first in range(10):
            for second in range(10):
                if first == second:
                    continue
                low, high = sorted((first, second))
                span = high - low + 1
                targets = (1, span) if first < second else (span, 1)
                # kron(I, local, I) applied to the flattened operator
                if targets not in locals_by_targets:
                    locals_by_targets[targets] = dense_gate(Gate(kind, targets), span)
                local = locals_by_targets[targets]
                expected = local @ state.reshape(2**low, 2**span, 2 ** (9 - high))
                got = _apply_gate(state, _gate_matrix(Gate(kind, (1, 2))), (first, second))
                np.testing.assert_array_equal(got.reshape(-1), expected.reshape(-1))

    def test_compiled_plan_matches_gate_by_gate(self, monkeypatch):
        """A circuit's plan runs each gate as _apply_gate does, bit for bit,
        and reads no gate matrix's nonzero pattern while it runs."""
        rng = np.random.default_rng(83)
        cases = []
        for n_spins in range(1, 7):
            for _ in range(4):
                circuit = random_circuit(n_spins, rng)
                shape = (circuit.dim, circuit.dim)
                state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                cases.append((circuit._plan, state, row_passes(circuit, state)))

        def refuse(*args, **kwargs):
            raise AssertionError("a compiled plan inspected a gate matrix")

        for name in ("nonzero", "flatnonzero", "sort", "argsort"):
            monkeypatch.setattr(np, name, refuse)
        for plan, state, expected in cases:
            np.testing.assert_array_equal(_apply_gates(state, plan), expected)

    def test_rejects_a_two_spin_matrix_that_is_not_a_signed_permutation(self):
        state = np.eye(4, dtype=complex)
        for matrix in (np.eye(4) * 1j, np.ones((4, 4)), np.eye(4)[[0, 0, 1, 2]]):
            with pytest.raises(ValidationError, match="permute"):
                _apply_gate(state, matrix.astype(complex), (0, 1))

    def test_circuits_share_each_fixed_pair_compilation(self):
        """A fixed two-spin kind on one axis pair compiles once per process,
        whatever the spin count, and the shared index cannot be written."""
        first = parse_circuit("CNOT 1 3\nH 2", 3)._plan[0]
        second = parse_circuit("X 4\nCNOT 1 3", 4)._plan[1]
        assert first[0] is second[0] is circuit_module._permute_pair
        assert first[1] is second[1]
        index = first[1][2]
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 0

    def test_apply_gate_checks_every_matrix(self):
        """_apply_gate compiles through the plans' cache, keyed by the
        matrix itself: on axes a plan has compiled CZ for, another matrix
        is checked and applied as itself, and a rejected one is rejected
        every time."""
        parse_circuit("CZ 1 2", 2)._plan
        hadamard = _gate_matrix(Gate("H", (1,)))
        for _ in range(2):
            with pytest.raises(ValidationError, match="permute"):
                _apply_gate(np.eye(4, dtype=complex), np.kron(hadamard, hadamard), (0, 1))
        negated_cz = -circuit_module._FIXED_2Q["CZ"]
        np.testing.assert_array_equal(_apply_gate(np.eye(4), negated_cz, (0, 1)), negated_cz)
        cz = circuit_module._FIXED_2Q["CZ"]
        before = circuit_module._pair_arguments.cache_info()
        np.testing.assert_array_equal(_apply_gate(np.eye(4), cz, (0, 1)), cz)
        assert circuit_module._pair_arguments.cache_info().hits == before.hits + 1

    def test_input_is_not_modified(self):
        state = np.arange(16, dtype=complex).reshape(4, 4)
        before = state.copy()
        _apply_gate(state, _gate_matrix(Gate("H", (1,))), (0,))
        _apply_gate(state, _gate_matrix(Gate("CNOT", (2, 1))), (1, 0))
        np.testing.assert_array_equal(state, before)


class TestColumnBlocks:
    """A pass runs the plan over blocks of columns, in place.  From N = 9
    there are several blocks, and the result must still equal the whole
    operand's, gate by gate, bit for bit (signed zeros included)."""

    @pytest.mark.parametrize("n_spins", [9, 10])
    @pytest.mark.parametrize("extra", [0, 7, 8])  # 14, 21 and 22 gates
    def test_propagator_matches_whole_operand_gate_by_gate(self, n_spins, extra):
        circuit = every_kind_circuit(n_spins, np.random.default_rng(95 + extra), extra)
        width = circuit_module._block_width(circuit.dim)
        assert width < circuit.dim and circuit.dim % width == 0
        expected = row_passes(circuit, np.eye(circuit.dim, dtype=complex))
        assert compose_propagator(circuit).tobytes() == expected.tobytes()

    def test_empty_circuit_is_identity_over_several_blocks(self):
        identity = np.eye(2**10, dtype=complex)
        assert compose_propagator(Circuit(10)).tobytes() == identity.tobytes()

    def test_pass_runs_in_place_beside_two_blocks(self):
        """Beside its operand, a pass allocates two blocks and no more
        whatever its gates, where a K x K spare would be sixteen."""
        n_spins = 10
        dim = 2**n_spins
        circuit = every_kind_circuit(n_spins, np.random.default_rng(96), 7)
        plan = circuit._plan
        rng = np.random.default_rng(97)
        state = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        expected = row_passes(circuit, state)
        tracemalloc.start()
        try:
            result = _apply_gates(state, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result is state
        assert result.tobytes() == expected.tobytes()
        block = 16 * dim * circuit_module._block_width(dim)
        assert peak <= 2 * block + 16384  # two blocks, and small views


    @pytest.mark.parametrize("shape", [(1024, 64), (256, 256)])
    def test_negation_is_exact_and_allocates_nothing(self, shape):
        """CZ flips the sign bits of one quadrant, signed zeros included (a
        complex product with -1 would turn 0 - 0j into -0 + 0j), and runs
        no ufunc on a strided view, which would allocate iterator buffers
        of up to 256 KiB."""
        rows = shape[0]
        n_axes = rows.bit_length() - 1
        rng = np.random.default_rng(98)
        parts = rng.choice([0.0, -0.0, 1.5, -2.25, 0.3], size=shape + (2,))
        state = np.ascontiguousarray(parts).view(complex).reshape(shape)
        cz = _gate_matrix(Gate("CZ", (1, 2)))
        for a in range(n_axes):
            for b in range(n_axes):
                if a == b:
                    continue
                low, high = min(a, b), max(a, b)
                expected = state.copy()
                bits = expected.view(np.uint64).reshape(2**low, 2, 2 ** (high - low - 1), 2, -1)
                bits[:, 1, :, 1] ^= np.uint64(1 << 63)
                arguments = circuit_module._pair_arguments(cz.tobytes(), a, b)
                source, out = state.copy(), np.empty_like(state)
                tracemalloc.start()
                try:
                    circuit_module._permute_pair(source, out, *arguments)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert out.tobytes() == expected.tobytes(), (a, b)
                assert peak <= 4096, (a, b, peak)


class TestRandomCircuit:
    def test_depth_bounds(self):
        rng = np.random.default_rng(75)
        depths = [len(random_circuit(2, rng).gates) for _ in range(200)]
        assert min(depths) >= 1 and max(depths) <= 20

    def test_same_seed_same_circuit(self):
        a = random_circuit(4, np.random.default_rng(99))
        b = random_circuit(4, np.random.default_rng(99))
        assert a == b

    def test_single_spin_system_avoids_two_spin_gates(self):
        rng = np.random.default_rng(76)
        for _ in range(50):
            circuit = random_circuit(1, rng)
            assert all(len(g.targets) == 1 for g in circuit.gates)

    def test_gates_are_well_formed(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            circuit = random_circuit(5, rng)
            for g in circuit.gates:
                assert all(1 <= t <= 5 for t in g.targets)
                if g.angle is not None:
                    assert 0.0 <= g.angle < 2 * math.pi
