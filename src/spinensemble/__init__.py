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
from .engine import (
    PathwayResult,
    compare_pathways,
    ensemble_expectation_sum,
    ensemble_expectation_trace,
    evolve_eigenstate,
    per_state_expectations,
)
from .entanglement import (
    EntanglementReport,
    SeparabilityReport,
    entanglement_entropy,
    entanglement_report,
    mixedness_report,
    ppt_report,
    schmidt_coefficients,
)
from .qlinalg import (
    BipartitionSpec,
    ValidationError,
    density_matrix,
    frobenius_distance,
    hermitian,
    hermitian_eigenvalues,
    maximally_mixed,
    partial_transpose,
    state_vector,
    unitary,
)
from .spin_system import (
    EpsilonReport,
    PauliSum,
    SpinSystem,
    ThermalEnsemble,
    boltzmann_populations,
    default_energies,
    epsilon_report,
    equilibrium_density_matrix,
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
    "boltzmann_populations",
    "compare_pathways",
    "compose_propagator",
    "default_energies",
    "density_matrix",
    "ensemble_expectation_sum",
    "ensemble_expectation_trace",
    "entanglement_entropy",
    "entanglement_report",
    "epsilon_report",
    "equilibrium_density_matrix",
    "evolve_eigenstate",
    "format_circuit",
    "frobenius_distance",
    "hermitian",
    "hermitian_eigenvalues",
    "maximally_mixed",
    "mixedness_report",
    "parse_circuit",
    "partial_transpose",
    "per_state_expectations",
    "ppt_report",
    "random_circuit",
    "schmidt_coefficients",
    "state_vector",
    "unitary",
]
