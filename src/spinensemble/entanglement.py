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
    _inner,
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


def _distance_fields(rho: np.ndarray) -> tuple[float, float]:
    """Distance to I/K and purity of a density matrix the caller owns; its
    diagonal is shifted by -1/K in place instead of copying rho."""
    purity = _inner(rho, rho).real  # tr(rho^2) = sum |rho_ij|^2 for Hermitian rho
    rho.flat[:: rho.shape[0] + 1] -= 1.0 / rho.shape[0]
    return math.sqrt(_inner(rho, rho).real), purity


def _in_separable_ball(distance: float, dim: int) -> bool:
    return distance <= 1.0 / math.sqrt(dim * (dim - 1))


def ppt_report(rho: np.ndarray, part: BipartitionSpec) -> SeparabilityReport:
    """Peres test across one bipartition, plus the mixedness diagnostics."""
    return _ppt_report(density_matrix(rho), part)


def _ppt_report(rho: np.ndarray, part: BipartitionSpec) -> SeparabilityReport:
    """ppt_report on a density matrix the caller vouches for and owns,
    unchecked; rho is overwritten.  A partial transpose only permutes
    rho's entries, so it is exactly as Hermitian as rho."""
    eigs = _spectrum(_partial_transpose(rho, part))
    # sum |eig| >= |trace| = 1, so a negative value here is rounding noise
    negativity = max(float((np.abs(eigs).sum() - 1.0) / 2.0), 0.0)
    min_eig = float(eigs[0])
    dist, purity = _distance_fields(rho)
    return SeparabilityReport(
        min_pt_eigenvalue=min_eig,
        negativity=negativity,
        ppt_holds=min_eig >= -PSD_TOL,
        ppt_conclusive=part.n_spins == 2,
        certified_separable=_in_separable_ball(dist, rho.shape[0]),
        frobenius_to_mixed=dist,
        purity=purity,
    )


def _ensemble_reports(
    probabilities: np.ndarray, rho: np.ndarray, part: BipartitionSpec | None
) -> tuple[SeparabilityReport, SeparabilityReport]:
    """Reports on diag(p) and on rho = U diag(p) U^dagger, U unitary.

    diag(p) and its partial transpose are diagonal in the product basis,
    so diag(p) is separable and its report is read off p in O(K).  rho has
    spectrum p too, so it lies at the same distance d from I/K.  Inside the
    separable ball rho is separable across every cut: PPT holds and the
    negativity is 0 with no eigendecomposition, and purity and distance
    are read off rho in O(K^2) (which overwrites it), independently of p.
    Outside the ball the exact report runs on rho unchecked: an evolved
    diag(p) is Hermitian with spectrum p by construction, so
    density_matrix's copy, Hermitian test and Cholesky factorization
    would prove nothing.  Without a cut both reports carry the distances
    only.
    """
    shifted = probabilities - 1.0 / probabilities.shape[0]
    dist = math.sqrt(np.einsum("i,i->", shifted, shifted))
    purity = float(np.einsum("i,i->", probabilities, probabilities))
    if part is None:
        initial = SeparabilityReport(None, None, None, None, None, dist, purity)
        return initial, SeparabilityReport(None, None, None, None, None, *_distance_fields(rho))
    conclusive = part.n_spins == 2
    initial = SeparabilityReport(
        float(probabilities.min()), 0.0, True, conclusive, True, dist, purity
    )
    if not _in_separable_ball(dist, probabilities.shape[0]):
        return initial, _ppt_report(rho, part)
    return initial, SeparabilityReport(None, 0.0, True, conclusive, True, *_distance_fields(rho))
