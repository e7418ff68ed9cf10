"""Seeded random quantum objects and reference kernels shared by the test modules."""

import numpy as np

from spinensemble.circuit import Circuit, Gate, _gate_matrix, _step, random_circuit
from spinensemble.qlinalg import PAULI_X, PAULI_Y, PAULI_Z


def random_unitary(rng, dim):
    """Haar-ish unitary from the QR decomposition of a complex Gaussian."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase convention so the distribution is not QR-skewed
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2.0


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_density(rng, dim, rank=None):
    """Mixed state from a random positive operator, optionally rank-limited."""
    rank = dim if rank is None else rank
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return psi


def schmidt_reference(psi, part):
    """Reference Schmidt coefficients of one pure state, one SVD: its
    (2,)*N tensor with the left spins gathered in front of the right
    spins, read as a 2**|L| x 2**|R| matrix."""
    tensor = np.asarray(psi).reshape((2,) * part.n_spins)
    axes = [s - 1 for s in part.left] + [s - 1 for s in part.right]
    matrix = tensor.transpose(axes).reshape(2 ** len(part.left), 2 ** len(part.right))
    return np.linalg.svd(matrix, compute_uv=False)


def entropy_reference(coefficients):
    """Reference entropy in bits: -sum p log2 p over the nonzero squares p,
    in their order, with a nonpositive sum read as +0.0."""
    probs = np.asarray(coefficients) ** 2
    probs = probs[probs > 0.0]
    value = float(-(probs * np.log2(probs)).sum())
    return value if value > 0.0 else 0.0


def apply_gate(state, matrix, axes):
    """Left-multiply a gate matrix onto 0-based axes of a (2,)*n tensor, as
    a compiled plan applies one gate: the same kernel (circuit._step), so
    the same bits.

    ``state`` holds 2**n entries in big-endian axis order, in any shape: a
    K x K operator is a (2,)*2N tensor whose first N axes index its rows,
    and its last N its columns.  A 2x2 matrix multiplies each (2, width)
    slice of its axis.  A 4x4 matrix must be a signed permutation, and
    ``axes`` lists the axes of its first and second basis factor, in
    either order.  Returns a new complex array of state's shape and leaves
    state as it was.
    """
    kernel, arguments = _step(matrix, axes)
    out = np.empty(np.shape(state), dtype=complex)
    kernel(np.array(state, dtype=complex), out, *arguments)
    return out


def conjugate_gate_by_gate(circuit, rho):
    """Reference G rho G^dagger for each gate in order: G on the row axes
    of the (2,)*2N tensor of rho, conj(G) on its column axes."""
    n_spins = circuit.n_spins
    for gate in circuit.gates:
        matrix = _gate_matrix(gate)
        rho = apply_gate(rho, matrix, tuple(t - 1 for t in gate.targets))
        rho = apply_gate(rho, matrix.conj(), tuple(n_spins + t - 1 for t in gate.targets))
    return rho


def row_passes(circuit, state):
    """Reference pass: each gate by apply_gate on the rows of the whole
    operand, in order."""
    for gate in circuit.gates:
        state = apply_gate(state, _gate_matrix(gate), tuple(t - 1 for t in gate.targets))
    return state


def dagger_row_passes(circuit, state):
    """Reference pass of U^dagger: each gate's inverse by apply_gate on the
    rows of the whole operand, last gate first.  The inverse of a 2x2 is
    its conjugate transpose, of a real 4x4 signed permutation its
    transpose."""
    for gate in reversed(circuit.gates):
        matrix = _gate_matrix(gate)
        inverse = matrix.conj().T if matrix.shape[0] == 2 else matrix.T
        state = apply_gate(state, inverse, tuple(t - 1 for t in gate.targets))
    return state


def every_kind_circuit(n_spins, rng, extra):
    """Each of the twelve gate kinds at least once over five or more spins
    (the two-spin kinds on distant and reversed pairs): 14 gates, then
    ``extra`` seeded random gates."""
    n = n_spins
    gates = [
        Gate("H", (1,)),
        Gate("CNOT", (1, n)),
        Gate("RY", (2,), 0.9),
        Gate("CZ", (n, 2)),
        Gate("X", (n,)),
        Gate("SWAP", (3, n - 1)),
        Gate("RX", (n - 1,), 1.3),
        Gate("Y", (3,)),
        Gate("CZ", (n - 1, n)),
        Gate("S", (4,)),
        Gate("RZ", (n,), 0.4),
        Gate("T", (1,)),
        Gate("Z", (2,)),
        Gate("CNOT", (n, 1)),
    ]
    tail = random_circuit(n_spins, rng, min_depth=extra, max_depth=extra).gates if extra else ()
    return Circuit(n_spins, tuple(gates) + tail)


def dense_observable(pauli):
    """Reference matrix of a PauliSum: sigma_axis / 2 on each listed spin,
    embedded by Kronecker products with spin 1 the most significant bit."""
    sigma = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}[pauli.axis] / 2.0
    total = np.zeros((pauli.dim, pauli.dim), dtype=complex)
    for spin in pauli.spins:
        left = np.eye(2 ** (spin - 1))
        right = np.eye(2 ** (pauli.n_spins - spin))
        total += np.kron(np.kron(left, sigma), right)
    return total


def dense_per_state_values(u, matrix):
    """Reference <k|U^dagger obs U|k> for every column k of u, from obs @ u."""
    return np.einsum("ik,ik->k", u.conj(), matrix @ u).real


def dense_trace_value(rho, matrix, molecule_count):
    """Reference M * tr(rho obs), read from the dense matrix."""
    return molecule_count * np.einsum("ij,ji->", rho, matrix).real


def equilibrium_rho(ensemble):
    """Reference initial density matrix diag(p), as a dense complex matrix."""
    return np.diag(ensemble.probabilities.astype(complex))


def maximally_mixed(dim):
    """Reference I/dim."""
    return np.eye(dim, dtype=complex) / dim


def frobenius_distance(a, b):
    """Reference sqrt(sum |A_ij - B_ij|^2)."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def unitarity_deviation(u):
    """Reference dense K^3 check: max |U^dagger U - I|."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
