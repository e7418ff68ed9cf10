"""Two independent readout pathways for a thermal ensemble.

Pathway A ("sum") mirrors the physical picture of C_k molecules starting
in eigenstate k: evolve each computational eigenstate separately under
the propagator, take its expectation value of the observable, and form
the population-weighted sum over initial states.  Pathway B ("trace")
evolves the equilibrium density matrix P = diag(p) one block of columns
at a time, as rho' E_J = U P U^dagger E_J: on the identity block E_J run
the circuit's daggered plan, a scaling of the rows by p, and the plan.
It reads M * tr(rho' * obs) off each block as it goes.  Neither pathway
composes the propagator: the two share only the gate list, compiled once
per circuit into the plans both run, so a defect in how either evolves
its operand, or in the daggered plan, shows up as a disagreement instead
of cancelling out.  Their agreement is the package's central
consistency check, so a result where they disagree hands both numbers
back instead of hiding one.

One function, _pathways, runs the two halves for every caller, and in
one order.  The trace half runs first: it reads each block of rho' once,
for every observable, then drops it, and it reads observables only.
Only once rho''s stream is spent does the sum half draw its first block:
it runs the plan on one block of identity columns at a time, so each
block of eigenstates U|k> is evolved on its own, as each molecule is, and
reads per-state values and weighted sums off it.  Both halves draw their
blocks from one stream, circuit._column_blocks, which holds a result
block and one spare while a block is built and one block while it is
read, so neither half holds a K x K array.  The separability reports are
no part of either half: simulate hands _pathways rho''s blocks through
entanglement._with_separability, which finishes, and runs any exact
report on its copy of rho', before an eigenstate block exists, and the
eigenstates through its Schmidt table.  compare_pathways and sweep hand
it the bare streams; sweep runs them through one slot it owns, so the
buffer rho''s spent stream leaves there is where the eigenstates are
built, and the next circuit's rho' after them.  While a block is read,
memory holds it and at most one conjugate of it (_per_state_values): the
same two blocks its build holds.

An observable is a PauliSum (spin_system), such as the collective
magnetisation, and the engine accepts nothing else.  It is read term by
term and never built as a matrix: the sum pathway takes O(N K^2) row-pair
reductions of the evolved eigenstates, the trace pathway gathers each
spin's reduced 2x2 block of rho' in O(N K) over all blocks.  Every
reduction runs in numpy's own loops, not in BLAS, so its bits do not
depend on the BLAS thread count.

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

from .circuit import Circuit, _column_blocks, _scale_rows
from .qlinalg import ValidationError
from .spin_system import _PAULI_BY_AXIS, PauliSum, ThermalEnsemble

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
        self.per_state_values.setflags(write=False)


def _pathway_tolerance(ensemble: ThermalEnsemble) -> float:
    """The bound |sum - trace| is held to: PATHWAY_TOL * molecule_count."""
    return PATHWAY_TOL * ensemble.molecule_count


def _within_tolerance(difference: float, ensemble: ThermalEnsemble) -> bool:
    """Whether a pathway difference |sum - trace| meets _pathway_tolerance."""
    return difference <= _pathway_tolerance(ensemble)


def _per_state_values(u: np.ndarray, obs: PauliSum, pairs: dict | None = None) -> np.ndarray:
    """Per-column expectations of a Pauli sum from the rows of u, O(N K^2).

    Read u's rows as (2,)*N axes.  For spin j, the sum over the other row
    axes of conj(u[bit j = 0]) * u[bit j = 1] has real part <sigma_x>/2
    and imaginary part <sigma_y>/2, so those values are real by
    construction; each spin's product is made once and kept in pairs, so
    x and y of one u share it.  conj(u) is made once per call, at the
    first spin whose product is missing, and every spin reads its rows as
    views of that one copy, so a read holds u and one conjugate.
    <sigma_z>/2 weights |u|^2 by each row's magnetisation.
    """
    if obs.axis == "z":
        index = np.arange(u.shape[0])
        weights = sum(0.5 - ((index >> (obs.n_spins - spin)) & 1) for spin in obs.spins)
        return np.einsum("i,ik->k", weights, u.real**2 + u.imag**2)
    pairs = {} if pairs is None else pairs
    values = np.zeros(u.shape[1])
    conjugate = None
    for spin in obs.spins:
        if spin not in pairs:
            if conjugate is None:
                conjugate = u.conj()
            shape = (2 ** (spin - 1), 2, -1, u.shape[1])
            rows, conjugate_rows = u.reshape(shape), conjugate.reshape(shape)
            pairs[spin] = np.einsum("ijk,ijk->k", conjugate_rows[:, 0], rows[:, 1])
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


def _evolved_blocks(circuit: Circuit, ensemble: ThermalEnsemble, slot: list | None = None):
    """Each column block of rho' = U P U^dagger, P = diag(p), with its
    first index, from circuit._column_blocks through slot: rho' E_J =
    U P U^dagger E_J is the daggered plan, a row scaling by p and the plan
    on E_J."""
    plan, dagger = circuit._plans
    scaling = (_scale_rows, (ensemble.probabilities,))
    return _column_blocks(circuit.dim, dagger + (scaling,) + plan, slot)


def _reduced_blocks(block: np.ndarray, start: int, shifts: np.ndarray) -> np.ndarray:
    """One column block's share of each spin's reduced 2x2 block of rho'.

    shifts lists each spin's bit position, N - spin.  Entry [r, t] of spin
    j's reduced block sums rho'[row, column] over the columns whose bit j
    is t, at the row equal to the column but for bit j, which is r.  So
    each column gives two entries per spin, gathered at once for every
    spin and summed against 0/1 weights in numpy's own loops.
    """
    width = block.shape[1]
    columns = np.arange(start, start + width)
    masks = (1 << shifts)[:, None]
    cleared = columns & ~masks
    rows = np.stack([cleared, cleared | masks], axis=1)
    bits = (columns & masks) != 0
    weights = np.stack([~bits, bits], axis=1).astype(float)
    return np.einsum("srl,stl->srt", block[rows, np.arange(width)], weights)


def _trace_value(reduced: dict, obs: PauliSum, molecule_count: float) -> float:
    """M * tr(rho' obs) from each listed spin's reduced 2x2 block of rho'
    in reduced: tr(block sigma) / 2 is that spin's term."""
    pauli = _PAULI_BY_AXIS[obs.axis]
    raw = 0j
    for spin in obs.spins:
        raw += np.einsum("st,ts->", reduced[spin], pauli) / 2
    if abs(raw.imag) > IMAG_TOL:
        raise ValidationError(f"trace expectation has imaginary residual {raw.imag:.3e}")
    return float(molecule_count * raw.real)


def compare_pathways(
    circuit: Circuit, ensemble: ThermalEnsemble, observables
) -> tuple[PathwayResult, ...]:
    """Run both pathways for each observable and report both numbers.

    Each observable is a PauliSum acting on the ensemble's levels, as the
    circuit must; both are checked before any block is evolved.  The
    pathways then run as _pathways runs them, from the circuit's gate list
    alone: neither composes the propagator.
    """
    observables = list(observables)
    for obs in observables:
        if not isinstance(obs, PauliSum):
            raise ValidationError(f"observable must be a PauliSum, got {type(obs).__name__}")
    dim = ensemble.system.dim
    for op in (circuit, *observables):
        if op.dim != dim:
            raise ValidationError(
                f"{type(op).__name__} shape {(op.dim, op.dim)} does not match dimension {dim}"
            )
    return _pathways(
        _evolved_blocks(circuit, ensemble), _eigenstate_blocks(circuit), ensemble, observables
    )


def _pathways(
    evolved, eigenstates, ensemble: ThermalEnsemble, observables
) -> tuple[PathwayResult, ...]:
    """One PathwayResult per observable.  The trace half drains evolved,
    the (start, block) stream of rho' such as _evolved_blocks, and only
    then the sum half draws the first of eigenstates, such as
    _eigenstate_blocks.  So a reader in rho''s stream finishes, and drops
    what it held, before any eigenstate block exists: simulate's
    separability reader runs its exact report there, on its copy of rho',
    with no block held.
    """
    traces = _trace_side(evolved, ensemble, observables)
    sums = _sum_side(eigenstates, ensemble, observables)
    return tuple(
        PathwayResult(total, trace, abs(total - trace), per_state)
        for (per_state, total), trace in zip(sums, traces, strict=True)
    )


def _trace_side(blocks, ensemble: ThermalEnsemble, observables) -> list[float]:
    """The trace half of _pathways: each observable's M tr(rho' obs), read
    off blocks, an iterable of (start, block) such as _evolved_blocks.

    Each block is read once, for its share of every listed spin's reduced
    2x2 block, which all observables share, and dropped before the next
    draw, in which a reader of the stream may finish.
    """
    spins = sorted({spin for obs in observables for spin in obs.spins})
    shifts = ensemble.system.n_spins - np.array(spins, dtype=int)
    reduced = np.zeros((len(spins), 2, 2), dtype=complex)
    for start, block in blocks:
        reduced += _reduced_blocks(block, start, shifts)
        del block
    by_spin = dict(zip(spins, reduced))
    return [_trace_value(by_spin, obs, ensemble.molecule_count) for obs in observables]


def _eigenstate_blocks(circuit: Circuit, slot: list | None = None):
    """Each block of evolved eigenstates with its first index, from
    circuit._column_blocks through slot: the columns U|k>, k = start ..
    start + w - 1."""
    return _column_blocks(circuit.dim, circuit._plans[0], slot)


def _sum_side(blocks, ensemble: ThermalEnsemble, observables) -> list[tuple[np.ndarray, float]]:
    """The sum half of _pathways: each observable's per-state values and
    their population-weighted sum, read off blocks, an iterable of (start,
    block) such as _eigenstate_blocks.

    A column's values read that column only, so every temporary is
    block-sized.
    """
    per_states = [np.empty(ensemble.system.dim) for _ in observables]
    for start, block in blocks:
        pairs = {}
        for per_state, obs in zip(per_states, observables):
            per_state[start : start + block.shape[1]] = _per_state_values(block, obs, pairs)
    return [(per_state, _weighted_sum(ensemble.populations, per_state)) for per_state in per_states]
