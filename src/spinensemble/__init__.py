"""Thermal ensembles of small spin molecules, simulated two ways.

The package evolves every Boltzmann-populated initial eigenstate of a
molecule separately and sums expectation values classically, evolves the
ensemble-averaged density matrix once and reads the same observable by
trace, and checks that the two numbers agree.  On top of that it measures
entanglement of the individual pure states and separability indicators of
the averaged state, which is where the two pictures stop agreeing.
"""

from .circuit import (
    Circuit,
    CircuitParseError,
    Gate,
    compose_propagator,
    format_circuit,
    parse_circuit,
    random_circuit,
)
from .engine import PathwayResult, compare_pathways
from .entanglement import (
    EntanglementReport,
    SeparabilityReport,
    entanglement_report,
    ppt_report,
)
from .qlinalg import (
    BipartitionSpec,
    ValidationError,
    density_matrix,
    hermitian,
    state_vector,
)
from .spin_system import (
    EpsilonReport,
    PauliSum,
    SpinSystem,
    ThermalEnsemble,
    default_energies,
    epsilon_report,
)

__all__ = [
    "BipartitionSpec",
    "Circuit",
    "CircuitParseError",
    "EntanglementReport",
    "EpsilonReport",
    "Gate",
    "PathwayResult",
    "PauliSum",
    "SeparabilityReport",
    "SpinSystem",
    "ThermalEnsemble",
    "ValidationError",
    "compare_pathways",
    "compose_propagator",
    "default_energies",
    "density_matrix",
    "entanglement_report",
    "epsilon_report",
    "format_circuit",
    "hermitian",
    "parse_circuit",
    "ppt_report",
    "random_circuit",
    "state_vector",
]
