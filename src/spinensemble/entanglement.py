"""Entanglement of pure states, separability evidence for mixed ones.

Pure-state side: Schmidt coefficients across a bipartition via SVD of the
reshaped amplitude tensor, entropy of entanglement in bits, and a product
test (Schmidt rank 1).  Mixed-state side: the Peres partial-transpose
test, negativity, purity, and distance from the maximally mixed state.
PPT is conclusive for a 2-spin system and a necessary condition only for
larger ones; reports carry that flag so callers never over-claim.

No separability ball radius is built in.  Proximity results guarantee a
ball of separable states around I/K exists but a trustworthy numeric
radius depends on bounds this package does not derive, so within_ball is
evaluated only against a caller-supplied radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qlinalg import (
    PSD_TOL,
    BipartitionSpec,
    ValidationError,
    _inner,
    _partial_transpose,
    _spectrum,
    density_matrix,
    frobenius_distance,
    maximally_mixed,
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
    ppt_conclusive) is None when no bipartition was analyzed, e.g. for a
    single spin.  ball_radius_used and within_ball are None unless the
    caller supplied a radius to test against.
    """

    min_pt_eigenvalue: float | None
    negativity: float | None
    ppt_holds: bool | None
    ppt_conclusive: bool | None
    frobenius_to_mixed: float
    purity: float
    ball_radius_used: float | None = None
    within_ball: bool | None = None


def schmidt_coefficients(state: np.ndarray, part: BipartitionSpec) -> np.ndarray:
    """Schmidt coefficients of a pure state, descending, nonnegative.

    The amplitude vector is reshaped to one axis per spin, the left spins
    are gathered in front of the right spins, and the singular values of
    the resulting matrix are the coefficients.  Their squares sum to 1.
    """
    psi = state_vector(state)
    n_spins = part.n_spins
    if psi.shape[0] != 2**n_spins:
        raise ValidationError(
            f"state dim {psi.shape[0]} does not match bipartition over {n_spins} spins"
        )
    tensor = psi.reshape((2,) * n_spins)
    axes = [s - 1 for s in part.left] + [s - 1 for s in part.right]
    matrix = tensor.transpose(axes).reshape(2 ** len(part.left), 2 ** len(part.right))
    return np.linalg.svd(matrix, compute_uv=False)


def entanglement_entropy(coefficients: np.ndarray) -> float:
    """Shannon entropy of squared Schmidt coefficients, base 2, 0*log0 = 0."""
    probs = np.asarray(coefficients, dtype=float) ** 2
    if probs.size == 0:
        raise ValidationError("empty coefficient list")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValidationError(f"squared coefficients sum to {total}, expected 1")
    mask = probs > 0.0
    entropy = float(-(probs[mask] * np.log2(probs[mask])).sum())
    if entropy <= 0.0:  # also turns the -0.0 of a product state into 0.0
        if entropy < -ENTROPY_CLAMP_TOL:
            raise ValidationError(f"entropy {entropy} below clamp budget")
        entropy = 0.0
    return entropy


def entanglement_report(state: np.ndarray, part: BipartitionSpec) -> EntanglementReport:
    """Full pure-state entanglement summary across one bipartition."""
    coeffs = schmidt_coefficients(state, part)
    rank = int(np.count_nonzero(coeffs > SCHMIDT_RANK_TOL))
    return EntanglementReport(
        bipartition=part,
        schmidt_coefficients=coeffs,
        entropy_bits=entanglement_entropy(coeffs),
        schmidt_rank=rank,
        is_product=rank == 1,
    )


def _distance_fields(rho: np.ndarray) -> tuple[float, float]:
    purity = _inner(rho, rho).real  # tr(rho^2) = sum |rho_ij|^2 for Hermitian rho
    dist = frobenius_distance(rho, maximally_mixed(rho.shape[0]))
    return dist, purity


def _ball_fields(dist: float, ball_radius: float | None) -> tuple[float | None, bool | None]:
    if ball_radius is None:
        return None, None
    _require_ball_radius(ball_radius)
    return float(ball_radius), dist <= ball_radius


def _require_ball_radius(ball_radius: float) -> None:
    if not 0 < ball_radius < math.inf:
        raise ValidationError(f"ball_radius must be positive and finite, got {ball_radius}")


def ppt_report(
    rho: np.ndarray, part: BipartitionSpec, ball_radius: float | None = None
) -> SeparabilityReport:
    """Peres test across one bipartition, plus the mixedness diagnostics."""
    rho = density_matrix(rho)
    # density_matrix checked rho; a partial transpose only permutes its
    # entries, so it is exactly as Hermitian and needs no second check
    eigs = _spectrum(_partial_transpose(rho, part))
    # sum |eig| >= |trace| = 1, so a negative value here is rounding noise
    negativity = max(float((np.abs(eigs).sum() - 1.0) / 2.0), 0.0)
    min_eig = float(eigs[0])
    dist, purity = _distance_fields(rho)
    radius_used, within = _ball_fields(dist, ball_radius)
    return SeparabilityReport(
        min_pt_eigenvalue=min_eig,
        negativity=negativity,
        ppt_holds=min_eig >= -PSD_TOL,
        ppt_conclusive=part.n_spins == 2,
        frobenius_to_mixed=dist,
        purity=purity,
        ball_radius_used=radius_used,
        within_ball=within,
    )


def mixedness_report(rho: np.ndarray, ball_radius: float | None = None) -> SeparabilityReport:
    """Distance diagnostics only: purity and Frobenius distance to I/K."""
    rho = density_matrix(rho)
    dist, purity = _distance_fields(rho)
    radius_used, within = _ball_fields(dist, ball_radius)
    return SeparabilityReport(
        min_pt_eigenvalue=None,
        negativity=None,
        ppt_holds=None,
        ppt_conclusive=None,
        frobenius_to_mixed=dist,
        purity=purity,
        ball_radius_used=radius_used,
        within_ball=within,
    )
