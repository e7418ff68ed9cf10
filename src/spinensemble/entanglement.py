"""Entanglement of pure states, separability evidence for mixed ones.

Pure-state side: Schmidt coefficients across a bipartition via SVD of the
reshaped amplitude tensor (one batched SVD for each block of evolved
eigenstates; a single state is a block of one), entropy of entanglement
in bits, and a product test (Schmidt rank 1).  Mixed-state side: the
Peres partial-transpose test, negativity, purity, and distance from the
maximally mixed state.  PPT is conclusive for a 2-spin system and a
necessary condition only for larger ones; reports carry that flag so
callers never over-claim.

Separability is certified, across every cut at once, by the ball of
Gurvits and Barnum (PRA 66, 062311, 2002): every K-level state within
Frobenius distance 1/sqrt(K(K-1)) of I/K is separable across every
bipartition.  Unitary evolution keeps the spectrum, and with it that
distance, so an evolved thermal state is certified from its populations
alone, for every circuit, with no eigendecomposition.  Full N-party
separability is not certified.

One reader, _with_separability, makes both ensemble reports: it sits in
the stream of the evolved state's column blocks, decides from p alone
whether the state lies outside the ball, reads each block's purity and
distance to I/K as it passes, and only outside the ball, with a cut,
copies the blocks into the matrix the Peres test needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qlinalg import (
    NORM_TOL,
    PSD_TOL,
    BipartitionSpec,
    ValidationError,
    _partial_transpose,
    _spectrum,
    density_matrix,
    state_vector,
)

SCHMIDT_RANK_TOL = 1e-8
ENTROPY_CLAMP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class EntanglementReport:
    """Pure-state entanglement across one bipartition."""

    bipartition: BipartitionSpec
    schmidt_coefficients: np.ndarray
    entropy_bits: float
    schmidt_rank: int
    is_product: bool

    def __post_init__(self):
        arr = np.asarray(self.schmidt_coefficients, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "schmidt_coefficients", arr)


@dataclass(frozen=True)
class SeparabilityReport:
    """Separability evidence for a density matrix.

    The partial-transpose group (min_pt_eigenvalue, negativity, ppt_holds,
    ppt_conclusive) and certified_separable are None when no bipartition
    was analyzed, e.g. for a single spin.  certified_separable is True when
    the state is proven separable across every cut; min_pt_eigenvalue is
    then None if no eigendecomposition was needed to say so.
    """

    min_pt_eigenvalue: float | None
    negativity: float | None
    ppt_holds: bool | None
    ppt_conclusive: bool | None
    certified_separable: bool | None
    frobenius_to_mixed: float
    purity: float


def _schmidt_table(
    block: np.ndarray, part: BipartitionSpec, start: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt coefficients (descending), entropies in bits and ranks of a
    block of pure states, its columns U|k> for k = start, start + 1, ...

    Each column is read as a (2,)*N tensor, its left spins gathered in
    front of its right spins, and one batched SVD over the resulting
    2**|L| x 2**|R| matrices gives every column's coefficients; a column
    gets the same bits alone or in a block.  The column length must be
    2**N for the cut's N spins, every column must be normalized
    (NORM_TOL), and a rejection names its eigenstate k; every coefficient
    row's squares must sum to 1.  A cut whose left spins are not a
    leading run copies the block, never more.
    """
    u = np.ascontiguousarray(block, dtype=complex)
    if u.shape[0] != 2**part.n_spins:
        raise ValidationError(
            f"state dim {u.shape[0]} does not match bipartition over {part.n_spins} spins"
        )
    width = u.shape[1]
    parts = u.view(np.float64).reshape(u.shape[0], width, 2)
    deviation = np.abs(np.einsum("ikc,ikc->k", parts, parts) - 1.0)
    bad = np.flatnonzero(~(deviation <= NORM_TOL))
    if bad.size:
        raise ValidationError(
            f"evolved eigenstate {start + bad[0]} is not normalized: "
            f"|norm^2 - 1| = {deviation[bad[0]]:.3e}"
        )
    axes = [0, *part.left, *part.right]
    columns = u.T.reshape((width,) + (2,) * part.n_spins).transpose(axes)
    coefficients = np.linalg.svd(
        columns.reshape(width, 2 ** len(part.left), 2 ** len(part.right)), compute_uv=False
    )
    ranks = np.count_nonzero(coefficients > SCHMIDT_RANK_TOL, axis=1)
    return coefficients, _entropies(coefficients), ranks


def _entropies(coefficients: np.ndarray) -> np.ndarray:
    """Shannon entropy, base 2, of each row's squared Schmidt
    coefficients, 0 log 0 = 0; each row's squares must sum to 1 (NaN fails).

    Each row's nonzero squares are summed in their own order as one
    contiguous run, so a row gets the same bits alone or in a batch; rows
    with equally many nonzero squares share one reduction.
    """
    probs = coefficients**2
    totals = probs.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(totals - 1.0) <= 1e-8))  # also rejects NaN
    if bad.size:
        raise ValidationError(f"squared coefficients sum to {totals[bad[0]]}, expected 1")
    nonzero = probs > 0.0
    counts = np.count_nonzero(nonzero, axis=1)
    entropies = np.empty(probs.shape[0])
    for count in set(counts.tolist()):
        rows = np.flatnonzero(counts == count)
        head = probs[rows][nonzero[rows]].reshape(rows.size, count)
        entropies[rows] = -(head * np.log2(head)).sum(axis=1)
    lowest = entropies.min()
    if lowest < -ENTROPY_CLAMP_TOL:
        raise ValidationError(f"entropy {lowest} below clamp budget")
    entropies[entropies <= 0.0] = 0.0  # also turns the -0.0 of a product state into 0.0
    return entropies


def entanglement_report(state: np.ndarray, part: BipartitionSpec) -> EntanglementReport:
    """Full pure-state entanglement summary across one bipartition: the
    commands' Schmidt table of the one column state, read off its row."""
    coefficients, entropies, ranks = _schmidt_table(state_vector(state)[:, None], part)
    rank = int(ranks[0])
    return EntanglementReport(part, coefficients[0], float(entropies[0]), rank, rank == 1)


def _distance_sums(block: np.ndarray, start: int) -> tuple[float, float]:
    """sum |b_ij|^2 and sum |b_ij - delta_ij / K|^2 over a C-contiguous
    (K, w) block b of columns start .. start + w - 1 of a K x K matrix.

    Added over a Hermitian rho's column blocks, the first is its purity
    tr(rho^2) and the second the square of its Frobenius distance to I/K.
    The block's diagonal entries are shifted by -1/K in place, so it is
    read last.  Each is one sum by numpy's own loops over the block's
    float view: BLAS dot products split long sums across threads, so their
    last bits depend on the thread count, and these give the same bits at
    any count.
    """
    dim, width = block.shape
    parts = block.reshape(-1).view(np.float64)
    purity = float(np.einsum("i,i->", parts, parts))
    block[start : start + width].flat[:: width + 1] -= 1.0 / dim
    return purity, float(np.einsum("i,i->", parts, parts))


def _in_separable_ball(distance: float, dim: int) -> bool:
    return distance <= 1.0 / math.sqrt(dim * (dim - 1))


def ppt_report(rho: np.ndarray, part: BipartitionSpec) -> SeparabilityReport:
    """Peres test across one bipartition, plus the mixedness diagnostics."""
    rho = density_matrix(rho)
    purity, square = _distance_sums(rho.copy(), 0)
    return _ppt_report(rho, part, math.sqrt(square), purity)


def _ppt_report(
    rho: np.ndarray, part: BipartitionSpec, distance: float, purity: float
) -> SeparabilityReport:
    """ppt_report on a density matrix the caller vouches for, unchecked,
    given its distance to I/K and purity.  A partial transpose only
    permutes rho's entries, so it is exactly as Hermitian as rho."""
    eigs = _spectrum(_partial_transpose(rho, part))
    # sum |eig| >= |trace| = 1, so a negative value here is rounding noise
    negativity = max(float((np.abs(eigs).sum() - 1.0) / 2.0), 0.0)
    min_eig = float(eigs[0])
    return SeparabilityReport(
        min_pt_eigenvalue=min_eig,
        negativity=negativity,
        ppt_holds=min_eig >= -PSD_TOL,
        ppt_conclusive=part.n_spins == 2,
        certified_separable=_in_separable_ball(distance, rho.shape[0]),
        frobenius_to_mixed=distance,
        purity=purity,
    )


def _separable_report(
    part: BipartitionSpec | None, distance: float, purity: float, min_eig: float | None
) -> SeparabilityReport:
    """The report on a state proven separable across every cut with no
    eigendecomposition: PPT holds, the negativity is 0 and the smallest
    partial-transpose eigenvalue is min_eig, or None when unknown.
    Without a cut the report carries the distances only."""
    if part is None:
        return SeparabilityReport(None, None, None, None, None, distance, purity)
    return SeparabilityReport(min_eig, 0.0, True, part.n_spins == 2, True, distance, purity)


def _with_separability(
    blocks, probabilities: np.ndarray, part: BipartitionSpec | None, reports: list
):
    """Each (start, block) of blocks, the column blocks of rho' = U diag(p)
    U^dagger such as engine._evolved_blocks, read for its share of rho''s
    purity and distance to I/K when the consumer draws the next; once
    blocks is spent, the reports on diag(p) and on rho' are appended to
    reports.

    diag(p) is diagonal, and so is its partial transpose, so its report is
    read off p in O(K).  rho' has spectrum p, so it lies as far from I/K as
    diag(p), and whether it is inside the separable ball is decided once,
    before any block is read.  Inside, rho' is separable across every cut
    with no eigendecomposition.  Outside, and only with a cut, each block is
    also copied into a K x K rho' for the exact report, which runs on it
    unchecked, with no block held: an evolved diag(p) is Hermitian with
    spectrum p by construction.
    """
    dim = probabilities.shape[0]
    shifted = probabilities - 1.0 / dim
    distance = math.sqrt(np.einsum("i,i->", shifted, shifted))
    purity = float(np.einsum("i,i->", probabilities, probabilities))
    initial = _separable_report(part, distance, purity, float(probabilities.min()))
    rho = None
    if part is not None and not _in_separable_ball(distance, dim):
        rho = np.empty((dim, dim), dtype=complex)
    purity = square = 0.0
    for start, block in blocks:
        if rho is not None:
            rho[:, start : start + block.shape[1]] = block
        yield start, block
        block_purity, block_square = _distance_sums(block, start)
        purity += block_purity
        square += block_square
    del block
    distance = math.sqrt(square)
    if rho is None:
        reports += [initial, _separable_report(part, distance, purity, None)]
    else:
        reports += [initial, _ppt_report(rho, part, distance, purity)]
