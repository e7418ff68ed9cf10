"""Gate-sequence text format, parsing, and propagator composition.

File grammar (line oriented, '#' starts a comment, blank lines ignored):

    gate_line := NAME ws INT (ws INT)? (ws FLOAT)?
    NAME      in {H, X, Y, Z, S, T, RX, RY, RZ, CNOT, CZ, SWAP}   (case-sensitive)

H/X/Y/Z/S/T take one spin index; RX/RY/RZ take one spin index and one
angle in radians; CNOT/CZ/SWAP take two distinct spin indices (for CNOT
the first is the control).  Spin indices are 1-based and written in ASCII
digits; an angle must be finite.

Temporal order convention: textual order IS application order.  The first
line acts on states first, so the composed propagator of gates g1..gL is
the matrix product U(gL) ... U(g2) U(g1).  Every matrix uses the package's
big-endian basis convention (spin 1 = most significant bit).

Gates are never embedded as 2**N x 2**N matrices.  Each one is applied
locally to one or two axes of the array read as a (2,)*n tensor: a
one-spin gate's 2x2 matrix multiplies its axis, and a two-spin gate,
whose 4x4 matrix has one entry of +-1 per row, copies or negates slices.
Either costs O(K**2) per gate on a K x K operand instead of the O(K**3)
of a dense product.

A circuit is compiled once, on first use, into a plan: per gate, the
kernel for its kind and the arguments that kernel needs (a one-spin
gate's axis and 2x2 matrix; a two-spin gate's slice index and the rows
it negates).  Compiling checks every gate matrix unitary, and every 4x4
a signed permutation, so a composed propagator is unitary by
construction and is never checked as a K x K matrix.  Compiling also
builds the daggered plan, of U^dagger: the steps in reverse order, each
2x2 replaced by its conjugate transpose and each 4x4 signed permutation
by its transpose.  The sum pathway's blocks of evolved eigenstates,
compose_propagator and the trace pathway run the plan; the trace pathway
runs the daggered plan and a row scaling by p (_scale_rows) before it.
Gates act on row axes only, so every plan runs on the identity one block
of columns at a time (_column_blocks), holding a result block and one
spare while a block is built and one block while it is read: blocks of
at most max(1, K/1024) MiB, however many gates run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .qlinalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    UNITARY_TOL,
    ValidationError,
    _read_int,
    _read_real,
    _require_spin_count,
)

SINGLE_SPIN_KINDS = ("H", "X", "Y", "Z", "S", "T")
ROTATION_KINDS = ("RX", "RY", "RZ")
TWO_SPIN_KINDS = ("CNOT", "CZ", "SWAP")
GATE_KINDS = SINGLE_SPIN_KINDS + ROTATION_KINDS + TWO_SPIN_KINDS

_SQRT2_INV = 1.0 / math.sqrt(2.0)
_FIXED_1Q = {
    "H": np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex),
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
}
_FIXED_2Q = {
    # Basis order |control target>: flip the target where the control is set.
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}

class CircuitParseError(ValueError):
    """Raised on malformed circuit text; the message cites the line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Gate:
    """One gate: kind, 1-based target spins, and an angle for rotations."""

    kind: str
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        targets = tuple(int(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        arity = 2 if self.kind in TWO_SPIN_KINDS else 1
        if len(targets) != arity:
            raise ValidationError(f"{self.kind} takes {arity} target(s), got {len(targets)}")
        if any(t < 1 for t in targets):
            raise ValidationError("spin indices are 1-based")
        if arity == 2 and targets[0] == targets[1]:
            raise ValidationError(f"{self.kind} targets must be distinct")
        if self.kind in ROTATION_KINDS:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValidationError(f"{self.kind} requires a finite angle")
        elif self.angle is not None:
            raise ValidationError(f"{self.kind} takes no angle")


@dataclass(frozen=True)
class Circuit:
    """An ordered gate sequence over n_spins spins."""

    n_spins: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        _require_spin_count(self.n_spins)
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.targets) > self.n_spins:
                raise ValidationError(
                    f"gate {g.kind} targets {g.targets} exceed n_spins={self.n_spins}"
                )

    @property
    def dim(self) -> int:
        return 2**self.n_spins

    @functools.cached_property
    def _plans(self) -> tuple[tuple, tuple]:
        """The gates compiled into steps for _run_plan, built and checked on
        first use: the plan of U and the daggered plan of U^dagger."""
        return _compile(self.gates)


def parse_circuit(text: str, n_spins: int) -> Circuit:
    """Parse circuit text; raises CircuitParseError citing the offending line."""
    gates = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            gates.append(_parse_gate(line.split(), n_spins))
        except ValidationError as exc:
            raise CircuitParseError(line_number, str(exc)) from None
    return Circuit(n_spins, tuple(gates))


def _parse_gate(tokens: list[str], n_spins: int) -> Gate:
    name, args = tokens[0], tokens[1:]
    if name not in GATE_KINDS:
        raise ValidationError(f"unknown gate name {name!r}")
    if name in ROTATION_KINDS:
        if len(args) != 2:
            raise ValidationError(f"{name} takes one spin and one angle")
        spin = _parse_spin(args[0], n_spins)
        return Gate(name, (spin,), _read_real(args[1], f"{name} angle"))
    if name in TWO_SPIN_KINDS:
        if len(args) != 2:
            raise ValidationError(f"{name} takes two spin indices")
    elif len(args) != 1:
        raise ValidationError(f"{name} takes one spin index")
    return Gate(name, tuple(_parse_spin(arg, n_spins) for arg in args))


def _parse_spin(token: str, n_spins: int) -> int:
    spin = _read_int(token, "spin index")
    if not 1 <= spin <= n_spins:
        raise ValidationError(f"spin index {spin} out of range for {n_spins} spins")
    return spin


def format_circuit(circuit: Circuit) -> str:
    """Render a circuit back to its text form (parse/format round-trips)."""
    lines = []
    for g in circuit.gates:
        parts = [g.kind, *map(str, g.targets)]
        if g.angle is not None:
            parts.append(repr(g.angle))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def _rotation_matrix(kind: str, angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]], dtype=complex)


def _gate_matrix(gate: Gate) -> np.ndarray:
    """The gate's own 2x2 (one spin) or 4x4 (two spins, |first second>) matrix."""
    if gate.kind in TWO_SPIN_KINDS:
        return _FIXED_2Q[gate.kind]
    if gate.kind in ROTATION_KINDS:
        return _rotation_matrix(gate.kind, gate.angle)
    return _FIXED_1Q[gate.kind]


def _compile(gates) -> tuple[tuple, tuple]:
    """Each gate's kernel and arguments, in order, and the same for each
    gate's inverse in reverse order, after checking every matrix unitary:
    one vectorised test per matrix size, so what the gates compose is
    unitary by construction and no K x K product is checked.

    A unitary 2x2's inverse is its conjugate transpose.  A 4x4 is a signed
    permutation with real entries (_pair_arguments refuses any other), so
    its inverse is its transpose; CNOT, CZ and SWAP are symmetric, so their
    inverses hit the forward steps' _pair_arguments entries."""
    matrices = [_gate_matrix(gate) for gate in gates]
    for size in (2, 4):
        stack = [matrix for matrix in matrices if matrix.shape[0] == size]
        if stack:
            stack = np.stack(stack)
            products = np.swapaxes(stack, 1, 2).conj() @ stack
            dev = np.max(np.abs(products - np.eye(size)))
            if not dev <= UNITARY_TOL:  # also rejects NaN
                raise ValidationError(f"matrix is not unitary: max |U^dagger U - I| = {dev:.3e}")
    axes = [tuple(t - 1 for t in gate.targets) for gate in gates]
    plan = tuple(_step(matrix, gate_axes) for matrix, gate_axes in zip(matrices, axes))
    inverses = (matrix.conj().T if matrix.shape[0] == 2 else matrix.T for matrix in matrices)
    dagger = tuple(_step(matrix, gate_axes) for matrix, gate_axes in zip(inverses, axes))
    return plan, dagger[::-1]


def _step(matrix: np.ndarray, axes: tuple[int, ...]) -> tuple:
    """The kernel for one gate on 0-based axes, and its arguments."""
    if len(axes) == 1:
        return _multiply_axis, (2 ** axes[0], matrix)
    return _permute_pair, _pair_arguments(np.asarray(matrix, dtype=complex).tobytes(), *axes)


def _multiply_axis(state: np.ndarray, out: np.ndarray, outer: int, matrix: np.ndarray) -> None:
    """A 2x2 matrix on the axis with ``outer`` entries before it, written
    to ``out``, a C-contiguous array of state's shape."""
    np.matmul(matrix, state.reshape(outer, 2, -1), out=out.reshape(outer, 2, -1))


@functools.cache
def _pair_arguments(matrix_bytes: bytes, a: int, b: int) -> tuple:
    """_permute_pair's arguments for a 4x4 signed permutation on axes a, b,
    compiled once per process for each matrix and axis pair.

    The view (2**a, 2, gap, 2, width) of an operand is read as (2**a,
    4*gap, width), and ``index`` lists, per output position of the merged
    middle axis, the position it copies; being shared, it is a read-only
    view of the array _permute_pair reads.  Rows of the gate matrix whose
    entry is -1 are negated after the copy.
    The key is the complex matrix's bytes, not a kind name, so a changed
    matrix is compiled and checked afresh; a rejected one is not kept.
    The commands' three fixed kinds on at most 12 * 11 ordered axis pairs
    give at most 396 entries.
    """
    m = np.frombuffer(matrix_bytes, dtype=complex).reshape(2, 2, 2, 2)
    if a > b:
        a, b = b, a
        m = m.transpose(1, 0, 3, 2)
    m = m.reshape(4, 4)
    rows, sources = np.nonzero(m)
    signs = m[rows, sources]
    permutes = rows.tolist() == sorted(sources.tolist()) == [0, 1, 2, 3]
    if not permutes or not np.all((signs == 1) | (signs == -1)):
        raise ValidationError("a two-spin gate must permute basis states, up to sign")
    gap = 2 ** (b - a - 1)
    # output position (i, y, j) of the merged axis reads (k, y, l), where
    # row 2i + j of the gate matrix has its entry in column 2k + l
    source = sources.reshape(2, 1, 2)
    index = ((source >> 1) * (2 * gap) + np.arange(gap)[:, None] * 2 + (source & 1)).flatten()
    shared = index.view()  # shared.base is index
    shared.setflags(write=False)
    return 2**a, gap, shared, tuple(np.flatnonzero(signs == -1).tolist())


def _permute_pair(
    state: np.ndarray, out: np.ndarray, outer: int, gap: int, index: np.ndarray, negated: tuple
) -> None:
    """Apply a two-spin signed permutation (CNOT, CZ, SWAP) compiled by
    _pair_arguments, written to ``out``, a C-contiguous array of state's
    shape.  State is C-contiguous too, and its contents are spent.

    Each output slice is one input slice, copied or negated, so the result
    is exact.  One ``take`` along the merged middle axis copies whole
    contiguous runs of ``width`` entries in memory order.  Copying the
    four quadrants one by one instead re-reads every cache line once per
    quadrant when width is small.  ``take`` copies an index it may not
    write, so it reads the writable array under the shared, read-only
    ``index``.  The indices are in range, so "clip" changes nothing but
    lets ``take`` write to ``out`` without a buffer.
    A negated quadrant is a strided view, and a ufunc on one allocates
    iterator buffers of up to 256 KiB, so it is copied into the front of
    the spent state, negated there in one contiguous run (sign flips, so
    signed zeros too are exact) and copied back, with no allocation.
    """
    merged = out.reshape(outer, 4 * gap, -1)
    state.reshape(outer, 4 * gap, -1).take(index.base, axis=1, out=merged, mode="clip")
    if negated:
        quadrants = merged.reshape(outer, 2, gap, 2, -1)
        for row in negated:
            quadrant = quadrants[:, row >> 1, :, row & 1]
            held = state.reshape(-1)[: quadrant.size].reshape(quadrant.shape)
            np.copyto(held, quadrant)
            np.negative(held, out=held)
            np.copyto(quadrant, held)


def _block_width(dim: int) -> int:
    """Columns per block of _column_blocks: max(64, 2**16 // K) columns,
    1 MiB of complex entries while K <= 1024, and all K when K <= 256."""
    return min(dim, max(64, 2**16 // dim))


def _run_plan(block: np.ndarray, spare: np.ndarray, plan) -> np.ndarray:
    """Run a plan on the rows of block, a C-contiguous complex (K, w)
    array, its steps writing alternately to spare, an array of the same
    shape, and to block.  Returns whichever of the two holds the result."""
    for kernel, arguments in plan:
        kernel(block, spare, *arguments)
        block, spare = spare, block
    return block


def _scale_rows(state: np.ndarray, out: np.ndarray, scale: np.ndarray) -> None:
    """Row i of state times scale[i], a real, written to ``out``: diag(scale)
    applied as one step of a plan."""
    np.multiply(state, scale[:, None], out=out)


def _column_blocks(dim: int, plan):
    """Each column block of the product a plan applies to the K x K
    identity, with its first index: columns start .. start + w - 1, w =
    _block_width(K).  Each block is built where the one before it was
    read, its steps writing alternately to that buffer and to a fresh
    spare, and only the one holding the result is kept: a reader reads a
    block, or copies it, before drawing the next."""
    width = _block_width(dim)
    block = np.empty((dim, width), dtype=complex)
    for start in range(0, dim, width):
        block.fill(0.0)
        np.fill_diagonal(block[start : start + width], 1.0)
        block = _run_plan(block, np.empty_like(block), plan)
        yield start, block


def compose_propagator(circuit: Circuit) -> np.ndarray:
    """Product of the gate unitaries, first listed gate applied first.

    The circuit's plan runs on the identity one column block at a time,
    each copied into the K x K result; an empty circuit gives the
    identity.  Each gate matrix is checked unitary when the plan is
    compiled, so the product is unitary up to rounding and is not checked
    again.  No command composes it: the sum pathway reads the same blocks
    one at a time (engine._eigenstate_blocks).
    """
    u = np.empty((circuit.dim, circuit.dim), dtype=complex)
    for start, block in _column_blocks(circuit.dim, circuit._plans[0]):
        u[:, start : start + block.shape[1]] = block
    return u


def random_circuit(n_spins: int, rng: np.random.Generator, min_depth: int = 1, max_depth: int = 20) -> Circuit:
    """Seeded random circuit: uniform gate kinds, uniform depth in [min, max].

    For a single spin the two-spin kinds are excluded.  Angles are uniform
    in [0, 2*pi).
    """
    kinds = GATE_KINDS if n_spins >= 2 else SINGLE_SPIN_KINDS + ROTATION_KINDS
    depth = int(rng.integers(min_depth, max_depth + 1))
    gates = []
    for _ in range(depth):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind in TWO_SPIN_KINDS:
            pair = rng.choice(n_spins, size=2, replace=False)
            gates.append(Gate(kind, (int(pair[0]) + 1, int(pair[1]) + 1)))
        elif kind in ROTATION_KINDS:
            target = int(rng.integers(1, n_spins + 1))
            gates.append(Gate(kind, (target,), float(rng.uniform(0.0, 2.0 * math.pi))))
        else:
            gates.append(Gate(kind, (int(rng.integers(1, n_spins + 1)),)))
    return Circuit(n_spins, tuple(gates))
