"""The N-spin molecule, its energy levels, the thermal ensemble, and the
spin observables read from it.

Units: k_B = 1 and hbar = 1, so level energies and temperature share one
unit and only their ratio matters.  The ensemble makes no attempt to keep
level counts integral; molecule_count and the per-level counts are reals,
which keeps the two readout pathways identical to rounding error instead
of to +-1 molecule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .qlinalg import PAULI_X, PAULI_Y, PAULI_Z, ValidationError, _require_spin_count

_PAULI_BY_AXIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

# Relative slack on sum(populations) == molecule_count.
POPULATION_SUM_TOL = 1e-9


@dataclass(frozen=True)
class SpinSystem:
    """A molecule of n_spins spin-1/2 nuclei with one energy per level."""

    n_spins: int
    level_energies: tuple[float, ...]

    def __post_init__(self):
        _require_spin_count(self.n_spins)
        k = 2**self.n_spins
        energies = tuple(float(e) for e in self.level_energies)
        object.__setattr__(self, "level_energies", energies)
        if len(energies) != k:
            raise ValidationError(f"expected {k} level energies, got {len(energies)}")
        if not (all(np.isfinite(energies)) and math.isfinite(max(energies) - min(energies))):
            raise ValidationError("level energies and their spread max - min must be finite")

    @property
    def dim(self) -> int:
        return 2**self.n_spins

    @property
    def spectral_width(self) -> float:
        """Full spread of the level energies, max - min."""
        return max(self.level_energies) - min(self.level_energies)

    @classmethod
    def zeeman(cls, larmor) -> "SpinSystem":
        """System with the default Zeeman level energies for given frequencies."""
        larmor = tuple(float(w) for w in larmor)
        return cls(len(larmor), tuple(default_energies(len(larmor), larmor)))


def default_energies(n_spins: int, larmor) -> list[float]:
    """Zeeman level energies E_k = sum_j s_j(k) * w_j / 2.

    s_j(k) is +1 when bit j of level index k is set (big-endian, spin 1 is
    the most significant bit) and -1 otherwise, so |0...0> is the ground
    level for positive frequencies.
    """
    _require_spin_count(n_spins)
    larmor = [float(w) for w in larmor]
    if len(larmor) != n_spins:
        raise ValidationError(
            f"larmor needs {n_spins} entries, one per spin: expected {n_spins}, got {len(larmor)}"
        )
    spread = sum(abs(w) for w in larmor)  # max - min of the energies below
    if not math.isfinite(spread):
        raise ValidationError(f"larmor frequencies and sum |w| must be finite, got {spread!r}")
    index = np.arange(2**n_spins)
    energies = np.zeros(2**n_spins)
    for j, w in enumerate(larmor):  # in spin order, as a per-level sum would add them
        energies += np.where((index >> (n_spins - 1 - j)) & 1, w / 2.0, -w / 2.0)
    return energies.tolist()


@dataclass(frozen=True, eq=False)
class ThermalEnsemble:
    """M molecules distributed over the levels of one spin system.

    populations[k] is the (real-valued) number of molecules whose initial
    state is level k; they sum to molecule_count.  Use ``boltzmann`` for
    the equilibrium distribution, or pass explicit populations for
    engineered ones (e.g. a zero-temperature [M, 0, ..., 0]).
    """

    system: SpinSystem
    temperature: float
    molecule_count: float
    populations: np.ndarray

    def __post_init__(self):
        positive = (("temperature", self.temperature), ("molecule_count", self.molecule_count))
        for name, value in positive:
            if not 0 < value < math.inf:  # also rejects NaN
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        if self.molecule_count < sys.float_info.min:  # else p = C / M keeps only 5e-324 / M
            raise ValidationError(f"molecule_count {self.molecule_count} is subnormal")
        # a Python float division overflows to inf quietly, where numpy's warns
        if not math.isfinite(self.system.spectral_width / float(self.temperature)):
            raise ValidationError(
                f"temperature {self.temperature} is too small: epsilon = spread / T overflows"
            )
        pops = np.array(self.populations, dtype=float)
        object.__setattr__(self, "populations", pops)
        if pops.shape != (self.system.dim,):
            raise ValidationError(
                f"expected {self.system.dim} populations, got shape {pops.shape}"
            )
        if np.any(pops < 0) or not np.all(np.isfinite(pops)):
            raise ValidationError("populations must be finite and nonnegative")
        total = float(pops.sum())
        if abs(total - self.molecule_count) > POPULATION_SUM_TOL * self.molecule_count:
            raise ValidationError(
                f"populations sum to {total!r}, "
                f"expected molecule_count {float(self.molecule_count)!r}"
            )
        self.populations.setflags(write=False)

    @classmethod
    def boltzmann(
        cls, system: SpinSystem, temperature: float, molecule_count: float
    ) -> "ThermalEnsemble":
        """The equilibrium distribution C_k = M exp(-E_k/T) / Z.

        Energies are shifted by their minimum before exponentiation so large
        E/T ratios cannot overflow to inf; the shift cancels in the
        normalization.  __post_init__ checks T and M.
        """
        e = np.asarray(system.level_energies, dtype=float)
        # At extreme E/T the weight underflows to 0, the correct limit; no
        # warning is due.  A temperature that is not positive and finite, or
        # so small that epsilon overflows, gives nan or inf here, quietly:
        # __post_init__ rejects it.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            weights = np.exp(-(e - e.min()) / temperature)
            pops = molecule_count * weights / weights.sum()
        return cls(system, temperature, molecule_count, pops)

    @property
    def probabilities(self) -> np.ndarray:
        """Occupation probabilities P_k = C_k / M."""
        return self.populations / self.molecule_count


@dataclass(frozen=True)
class EpsilonReport:
    """How close the ensemble sits to the equal-population regime."""

    delta_e: float
    epsilon: float
    max_population_spread: float


def equilibrium_density_matrix(ensemble: ThermalEnsemble) -> np.ndarray:
    """The ensemble-averaged statistical operator, diagonal in the eigenbasis."""
    return np.diag(ensemble.probabilities.astype(complex))


def epsilon_report(ensemble: ThermalEnsemble) -> EpsilonReport:
    """Spectral width, the small parameter width/T, and the population spread."""
    delta_e = ensemble.system.spectral_width
    probs = ensemble.probabilities
    return EpsilonReport(
        delta_e=delta_e,
        epsilon=delta_e / ensemble.temperature,
        max_population_spread=float(probs.max() - probs.min()),
    )


@dataclass(frozen=True)
class PauliSum:
    """The observable sum_j sigma_axis(spin j) / 2 over the listed spins.

    All spins make the collective magnetisation along the axis; one spin
    makes that spin's component.  It is the only observable the pathway
    engine accepts, which reads it term by term and never forms its
    2**N x 2**N matrix.
    """

    n_spins: int
    axis: str
    spins: tuple[int, ...]

    def __post_init__(self):
        if self.axis not in _PAULI_BY_AXIS:
            raise ValidationError(f"observable axis must be x, y, or z, got {self.axis!r}")
        _require_spin_count(self.n_spins)
        spins = tuple(int(s) for s in self.spins)
        object.__setattr__(self, "spins", spins)
        if not spins:
            raise ValidationError("a Pauli sum needs at least one spin")
        if len(set(spins)) != len(spins):
            raise ValidationError(f"spins must be distinct, got {spins}")
        for spin in spins:
            if not 1 <= spin <= self.n_spins:
                raise ValidationError(
                    f"observable spin {spin} out of range for {self.n_spins} spins"
                )

    @classmethod
    def collective(cls, n_spins: int, axis: str) -> "PauliSum":
        """Total spin component along an axis, over every spin."""
        return cls(n_spins, axis, tuple(range(1, n_spins + 1)))

    @property
    def dim(self) -> int:
        return 2**self.n_spins
