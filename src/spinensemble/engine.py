"""Two independent readout pathways for a thermal ensemble.

Pathway A ("sum") mirrors the physical picture of C_k molecules starting
in eigenstate k: evolve each computational eigenstate separately under
the propagator, take its expectation value of the observable, and form
the population-weighted sum over initial states.  Pathway B ("trace")
builds the equilibrium density matrix once, evolves it as
rho' = U (U rho)^dagger in two passes of the gate list over its rows, and
reads M * tr(rho' * obs).  Neither pathway composes the propagator:
the two share only the gate list, compiled once per circuit into the
plan both run, so a defect in how either evolves its operand shows up as
a disagreement instead of cancelling out.  Their agreement is the
package's central consistency check, so a result where they disagree
hands both numbers back instead of hiding one.

The two run as separate halves whose outputs one combiner pairs.  The
trace half evolves rho' and reads each observable's trace value.  The sum
half runs the plan on one block of identity columns at a time, so each
block of eigenstates U|k> is evolved on its own, as each molecule is, and
reads per-state values and weighted sums off it.  Every gate pass runs in
place over column blocks (circuit._apply_gates), and rho' is
conjugate-transposed in place between its two passes, so rho' is the one
K x K complex array either half holds, with block-sized work arrays
beside it.

An observable is a PauliSum (spin_system), such as the collective
magnetisation, and the engine accepts nothing else.  It is read term by
term and never built as a matrix: the sum pathway takes O(N K^2) row-pair
reductions of the evolved eigenstates, the trace pathway reads each
spin's reduced 2x2 block of rho' in O(N K).  Every reduction runs in
numpy's own loops, not in BLAS, so its bits do not depend on the BLAS
thread count.

Per-state expectation values depend only on the initial eigenstate index,
never on which physical molecule carries it; no molecule index exists
anywhere in this module.  A PauliSum's per-state values are the real or
imaginary part of one product, real by construction.  The trace pathway
checks its imaginary residual against a 1e-10 budget and refuses to
return a silently contaminated number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, _apply_gates, _block_width
from .qlinalg import ValidationError
from .spin_system import _PAULI_BY_AXIS, PauliSum, ThermalEnsemble, equilibrium_density_matrix

IMAG_TOL = 1e-10
PATHWAY_TOL = 1e-10  # |sum - trace| <= PATHWAY_TOL * molecule_count


@dataclass(frozen=True, eq=False)
class PathwayResult:
    """Both ensemble readouts for one circuit, observable, and ensemble.

    per_state_values[k] is the single-molecule expectation value for
    initial eigenstate k (unweighted); expectation_sum is their
    population-weighted total and expectation_trace the density-matrix
    value of the same quantity.
    """

    expectation_sum: float
    expectation_trace: float
    abs_difference: float
    per_state_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "expectation_sum", float(self.expectation_sum))
        object.__setattr__(self, "expectation_trace", float(self.expectation_trace))
        object.__setattr__(self, "abs_difference", float(self.abs_difference))
        arr = np.asarray(self.per_state_values, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "per_state_values", arr)


def _pathway_tolerance(ensemble: ThermalEnsemble) -> float:
    """The bound |sum - trace| is held to: PATHWAY_TOL * molecule_count."""
    return PATHWAY_TOL * ensemble.molecule_count


def _checked(observable) -> PauliSum:
    """The observable, which must be a PauliSum; a PauliSum checked itself
    when built."""
    if not isinstance(observable, PauliSum):
        raise ValidationError(f"observable must be a PauliSum, got {type(observable).__name__}")
    return observable


def _require_dim(dim: int, *operands) -> None:
    """Each operand, a PauliSum or a Circuit, must act on dim levels."""
    for op in operands:
        if op.dim != dim:
            raise ValidationError(
                f"{type(op).__name__} shape {(op.dim, op.dim)} does not match dimension {dim}"
            )


def _per_state_values(u: np.ndarray, obs: PauliSum, pairs: dict | None = None) -> np.ndarray:
    """Per-column expectations of a Pauli sum from the rows of u, O(N K^2).

    Read u's rows as (2,)*N axes.  For spin j, the sum over the other row
    axes of conj(u[bit j = 0]) * u[bit j = 1] has real part <sigma_x>/2
    and imaginary part <sigma_y>/2, so those values are real by
    construction; each spin's product is made once and kept in pairs, so
    x and y of one u share it.  <sigma_z>/2 weights |u|^2 by each row's
    magnetisation.
    """
    if obs.axis == "z":
        index = np.arange(u.shape[0])
        weights = sum(0.5 - ((index >> (obs.n_spins - spin)) & 1) for spin in obs.spins)
        return np.einsum("i,ik->k", weights, u.real**2 + u.imag**2)
    pairs = {} if pairs is None else pairs
    values = np.zeros(u.shape[1])
    for spin in obs.spins:
        if spin not in pairs:
            rows = u.reshape(2 ** (spin - 1), 2, -1, u.shape[1])
            pairs[spin] = np.einsum("ijk,ijk->k", rows[:, 0].conj(), rows[:, 1])
        values += pairs[spin].real if obs.axis == "x" else pairs[spin].imag
    return values


def _weighted_sum(populations: np.ndarray, per_state: np.ndarray) -> float:
    """sum_k populations[k] * per_state[k], added in ascending k.

    cumsum adds strictly left to right, so this rounds like a loop that
    starts from 0.0; adding 0.0 last turns the -0.0 of an all -0.0 sum into
    the loop's 0.0.
    """
    if not per_state.size:
        return 0.0
    return float(np.cumsum(populations * per_state)[-1]) + 0.0


def _evolved_density_matrix(circuit: Circuit, ensemble: ThermalEnsemble) -> np.ndarray:
    """U rho U^dagger from the gate list, without U, in two row passes.

    rho is real and diagonal, so rho U^dagger = (U rho)^dagger: the
    circuit's plan runs on the rows of rho, the result is
    conjugate-transposed, and the plan runs on its rows again.  The first
    pass runs on diag(p) itself, and the transpose and the second pass
    overwrite that same array, so one K x K array is alive here beside
    each pass's two column blocks.
    """
    rho = _apply_gates(equilibrium_density_matrix(ensemble), circuit._plan)
    _conjugate_transpose(rho)
    return _apply_gates(rho, circuit._plan)


def _conjugate_transpose(a: np.ndarray) -> None:
    """Overwrite a square C-contiguous complex array with its conjugate
    transpose, bit for bit as np.conjugate(a.T).

    Tiles of 64 x 64 entries swap across the diagonal through one held
    tile, and one contiguous pass then conjugates every entry.  Entries
    only move and change sign, so the result is exact; copies between
    strided views and a ufunc on a contiguous array need no buffers.
    """
    dim = a.shape[0]
    tile = min(dim, 64)
    held = np.empty((tile, tile), dtype=complex)
    for i in range(0, dim, tile):
        for j in range(i, dim, tile):
            upper, lower = a[i : i + tile, j : j + tile], a[j : j + tile, i : i + tile]
            np.copyto(held, lower.T)
            if j > i:
                np.copyto(lower, upper.T)
            np.copyto(upper, held)
    np.conjugate(a, out=a)


def _trace_value(rho: np.ndarray, obs: PauliSum, molecule_count: float) -> float:
    """M * tr(rho obs) from each listed spin's reduced 2x2 block of rho, O(N K).

    The block of spin j sums rho over equal row and column indices of
    every other spin; tr(block sigma) / 2 is that spin's term.
    """
    pauli = _PAULI_BY_AXIS[obs.axis]
    raw = 0j
    for spin in obs.spins:
        outer, inner = 2 ** (spin - 1), 2 ** (obs.n_spins - spin)
        block = np.einsum("asbatb->st", rho.reshape(outer, 2, inner, outer, 2, inner))
        raw += np.einsum("st,ts->", block, pauli) / 2
    if abs(raw.imag) > IMAG_TOL:
        raise ValidationError(f"trace expectation has imaginary residual {raw.imag:.3e}")
    return float(molecule_count * raw.real)


def compare_pathways(
    circuit: Circuit, ensemble: ThermalEnsemble, observables
) -> tuple[PathwayResult, ...]:
    """Run both pathways for each observable and report both numbers.

    Each observable is a PauliSum.  The trace half evolves the density
    matrix from the circuit's gate list in two row passes and reads it for
    every observable; the sum half evolves the eigenstates block by block
    from the same gate list.  Neither composes the propagator.
    """
    checked = [_checked(obs) for obs in observables]
    _require_dim(ensemble.system.dim, circuit, *checked)
    traces = _trace_side(circuit, ensemble, checked)[0]
    return _pathway_results(_sum_side(_eigenstate_blocks(circuit), ensemble, checked), traces)


def _trace_side(
    circuit: Circuit, ensemble: ThermalEnsemble, observables
) -> tuple[list[float], np.ndarray]:
    """The trace half of compare_pathways: each observable's M tr(rho' obs),
    and rho' itself, evolved from the gate list, for the caller to keep."""
    rho = _evolved_density_matrix(circuit, ensemble)
    return [_trace_value(rho, obs, ensemble.molecule_count) for obs in observables], rho


def _eigenstate_blocks(circuit: Circuit):
    """Each block of evolved eigenstates with its first index: the columns
    U|k>, k = start .. start + w - 1, from the circuit's plan run on w =
    _block_width(K) columns of the identity.  Each block's pass allocates
    the identity block and one spare; while K <= 256 the one block is all
    of U."""
    dim = circuit.dim
    width = _block_width(dim)
    for start in range(0, dim, width):
        yield start, _apply_gates(np.eye(dim, width, -start, dtype=complex), circuit._plan)


def _sum_side(blocks, ensemble: ThermalEnsemble, observables) -> list[tuple[np.ndarray, float]]:
    """The sum half of compare_pathways: each observable's per-state values
    and their population-weighted sum, read off blocks, an iterable of
    (start, block) such as _eigenstate_blocks.

    A column's values read that column only, so every temporary is
    block-sized.
    """
    per_states = [np.empty(ensemble.system.dim) for _ in observables]
    for start, block in blocks:
        pairs = {}
        for per_state, obs in zip(per_states, observables):
            per_state[start : start + block.shape[1]] = _per_state_values(block, obs, pairs)
        del block, pairs  # else held while blocks builds the next block
    return [(per_state, _weighted_sum(ensemble.populations, per_state)) for per_state in per_states]


def _pathway_results(sums, traces) -> tuple[PathwayResult, ...]:
    """One PathwayResult per observable from the two halves' outputs."""
    return tuple(
        PathwayResult(
            expectation_sum=total,
            expectation_trace=trace_value,
            abs_difference=abs(total - trace_value),
            per_state_values=per_state,
        )
        for (per_state, total), trace_value in zip(sums, traces, strict=True)
    )
