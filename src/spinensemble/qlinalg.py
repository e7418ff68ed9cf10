"""Dense complex linear algebra over small spin spaces.

Everything in this package works on plain ``numpy`` arrays of dtype
complex128.  The functions here validate the roles a matrix or vector is
supposed to play (Hermitian, normalized state, density operator) and hold
the few kernels the entanglement reports share: a Hermitian spectrum that
skips the eigendecomposition for a diagonal matrix, and the partial
transpose across a bipartition.
Every integer and real the package reads from text (config values,
circuit tokens, cut spins, command-line counts) goes through _read_int
or _read_real, which raise ValidationError.

Conventions, fixed once for the whole package:

* Spins are numbered 1..N and spin 1 is the MOST significant bit of a
  basis index (big-endian).  Basis index 2 of a two-spin space is |10>.
* At most MAX_SPINS spins, so dimensions are capped at DIM_CAP =
  2**MAX_SPINS: this is a dense, desk-scale library, not a tensor-network
  one.
* Every public function leaves its inputs as they were.  Some private
  kernels of the run path do not: circuit._permute_pair spends its input,
  entanglement._distance_sums shifts its block's diagonal in place, and
  circuit._column_blocks builds each block in the buffer the last one was
  read from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Centralized tolerances.  Validation thresholds are deliberately loose
# relative to double precision at desk scale (K <= 4096, entries O(1)).
HERMITIAN_TOL = 1e-12   # max-abs deviation allowed in A - A^dagger
UNITARY_TOL = 1e-10     # max-abs deviation allowed in U^dagger U - I
NORM_TOL = 1e-10        # |sum |a_k|^2 - 1| allowed for state vectors
PSD_TOL = 1e-10         # eigenvalue floor for density operators
MAX_SPINS = 12
DIM_CAP = 2**MAX_SPINS

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (PAULI_X, PAULI_Y, PAULI_Z):
    _m.setflags(write=False)


class ValidationError(ValueError):
    """A numeric contract was violated (non-Hermitian, non-unitary, ...)."""


def _read_int(text: str, what: str) -> int:
    """An integer written in ASCII digits only, so nonnegative; every integer
    read from a config, circuit, cut or command line comes through here."""
    if not (text.isascii() and text.isdigit()):
        raise ValidationError(f"{what} must be an integer of digits 0-9, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise ValidationError(f"{what} of {len(text)} digits is too long") from None


def _read_real(text: str, what: str) -> float:
    """A finite float written in ASCII without '_', as integers are read in
    ASCII digits only (float() alone also takes '1_0' and other scripts'
    digits); every real read from a config or circuit comes through here."""
    try:
        if not text.isascii() or "_" in text:
            raise ValueError
        value = float(text)
    except ValueError:
        raise ValidationError(f"{what} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {text!r}")
    return value


def _require_spin_count(n_spins: int) -> None:
    if not 1 <= n_spins <= MAX_SPINS:
        raise ValidationError(
            f"n_spins must be in 1..{MAX_SPINS} (the dense cap is 2**{MAX_SPINS} levels), "
            f"got {n_spins}"
        )


def as_matrix(entries) -> np.ndarray:
    """Coerce to a square complex128 matrix within the dimension cap."""
    a = np.array(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValidationError("matrix dimension must be >= 1")
    if a.shape[0] > DIM_CAP:
        raise ValidationError(f"dimension {a.shape[0]} exceeds the dense cap {DIM_CAP}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValidationError("matrix entries must be finite")
    return a


def hermitian(entries) -> np.ndarray:
    """Validate and return a Hermitian matrix (max-abs tolerance HERMITIAN_TOL)."""
    a = as_matrix(entries)
    dev = np.max(np.abs(a - a.conj().T))
    if dev > HERMITIAN_TOL:
        raise ValidationError(f"matrix is not Hermitian: max |A - A^dagger| = {dev:.3e}")
    return a


def state_vector(amplitudes) -> np.ndarray:
    """Validate and return a normalized complex amplitude vector."""
    psi = np.array(amplitudes, dtype=complex)
    if psi.ndim != 1 or psi.shape[0] < 1:
        raise ValidationError(f"expected a 1-D amplitude vector, got shape {psi.shape}")
    if psi.shape[0] > DIM_CAP:
        raise ValidationError(f"dimension {psi.shape[0]} exceeds the dense cap {DIM_CAP}")
    if not (np.all(np.isfinite(psi.real)) and np.all(np.isfinite(psi.imag))):
        raise ValidationError("amplitudes must be finite")
    dev = abs(float(np.vdot(psi, psi).real) - 1.0)
    if dev > NORM_TOL:
        raise ValidationError(f"state vector is not normalized: |norm^2 - 1| = {dev:.3e}")
    return psi


def density_matrix(entries) -> np.ndarray:
    """Validate a density operator: Hermitian, unit trace, positive semidefinite.

    The eigenvalue floor is -PSD_TOL, and an eigendecomposition runs only
    when a cheaper test cannot decide.  A diagonal operator's spectrum is
    its diagonal.  Otherwise a Cholesky factorization of rho + (PSD_TOL/2) I
    that succeeds proves every eigenvalue of rho is at least -PSD_TOL/2
    minus the factorization's backward error, about K * 1e-16, so rho
    passes.  When it fails, the full spectrum decides and a rejection names
    the smallest eigenvalue.
    """
    rho = hermitian(entries)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > NORM_TOL:
        raise ValidationError(f"density matrix trace is {tr!r}, expected 1")
    if _is_diagonal(rho) or not _shifted_cholesky_succeeds(rho):
        lo = float(_spectrum(rho)[0])
        if lo < -PSD_TOL:
            raise ValidationError(f"density matrix has negative eigenvalue {lo:.3e}")
    return rho


def _shifted_cholesky_succeeds(rho: np.ndarray) -> bool:
    """True when rho + (PSD_TOL/2) I has a Cholesky factor, read from its
    lower triangle as the eigendecomposition reads it."""
    shifted = rho.copy()
    shifted.flat[:: rho.shape[0] + 1] += PSD_TOL / 2
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class BipartitionSpec:
    """A cut of spins {1..N} into two non-empty sides.

    Sides are stored in ascending spin order; the reduced or reshaped
    subsystems produced from a cut keep that ascending order.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        left = tuple(sorted(self.left))
        right = tuple(sorted(self.right))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if not left or not right:
            raise ValidationError("both sides of a bipartition must be non-empty")
        n = len(left) + len(right)
        if set(left) | set(right) != set(range(1, n + 1)) or set(left) & set(right):
            raise ValidationError(f"bipartition sides must be disjoint and cover 1..{n}")

    @property
    def n_spins(self) -> int:
        return len(self.left) + len(self.right)

    @classmethod
    def parse(cls, text: str, n_spins: int) -> "BipartitionSpec":
        """Parse a cut string such as ``1|2`` or ``1,3|2`` against n_spins.

        Each side is a comma- or space-separated list of spin indices; a
        side with neither commas nor spaces is read one digit per spin
        (only valid while all indices are single digits).  The spin count
        is checked before the spec is built, and no rejection repeats the
        text or the sides, so a long cut gets a short message.
        """
        halves = text.split("|")
        if len(halves) != 2:
            raise ValidationError(
                f"bipartition must contain exactly one '|', got {len(halves) - 1}"
            )
        sides = []
        for half in halves:
            half = half.strip()
            if "," in half or " " in half:
                tokens = [t for t in half.replace(",", " ").split() if t]
            else:
                tokens = list(half)
            sides.append(tuple(_read_int(t, "bipartition spin") for t in tokens))
        count = len(sides[0]) + len(sides[1])
        if count != n_spins:
            raise ValidationError(f"bipartition covers {count} spins, expected {n_spins}")
        return cls(sides[0], sides[1])

    def __str__(self) -> str:
        if self.n_spins <= 9:
            return "".join(map(str, self.left)) + "|" + "".join(map(str, self.right))
        return ",".join(map(str, self.left)) + "|" + ",".join(map(str, self.right))


def _spectrum(a: np.ndarray) -> np.ndarray:
    if _is_diagonal(a):
        return np.sort(np.diagonal(a).real)
    return np.linalg.eigvalsh(a)


def _is_diagonal(a: np.ndarray) -> bool:
    """Every off-diagonal entry is exactly 0; counts, so no K x K temporary."""
    return np.count_nonzero(a) == np.count_nonzero(np.diagonal(a))


def _partial_transpose(rho: np.ndarray, part: BipartitionSpec) -> np.ndarray:
    n = part.n_spins
    if rho.shape[0] != 2**n:
        raise ValidationError(
            f"bipartition over {n} spins does not match dimension {rho.shape[0]}"
        )
    t = rho.reshape([2] * (2 * n))
    perm = list(range(2 * n))
    for spin in part.right:
        ax = spin - 1
        perm[ax], perm[n + ax] = perm[n + ax], perm[ax]
    return t.transpose(perm).reshape(rho.shape)
