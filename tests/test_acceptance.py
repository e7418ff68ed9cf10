"""Acceptance gate: six package-level claims, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see both the pytest
pass/fail line and the printed verdict per criterion.  Every criterion is
self-contained and seeded; none depends on another's state.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spinensemble.circuit import Circuit, compose_propagator, parse_circuit, random_circuit
from spinensemble.cli import main
from spinensemble.engine import (
    compare_pathways,
    ensemble_expectation_sum,
    ensemble_expectation_trace,
    evolve_eigenstate,
)
from spinensemble.entanglement import entanglement_report, ppt_report
from spinensemble.qlinalg import BipartitionSpec, frobenius_distance, maximally_mixed
from spinensemble.spin_system import (
    PauliSum,
    SpinSystem,
    ThermalEnsemble,
    equilibrium_density_matrix,
)

PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def _verdict(number: int, description: str, problems: list[str]):
    status = "FAIL" if problems else "PASS"
    print(f"[criterion {number}] {status}: {description}")
    assert not problems, f"criterion {number}: " + "; ".join(problems[:5])


def _random_ensemble(rng, n_spins):
    system = SpinSystem.zeeman(rng.uniform(0.5, 3.0, size=n_spins))
    epsilon = 10.0 ** rng.uniform(-6.0, 0.0)
    temperature = system.spectral_width / epsilon
    molecule_count = 10.0 ** rng.uniform(2.0, 8.0)
    return ThermalEnsemble.boltzmann(system, temperature, molecule_count)


def test_criterion_1_pathway_agreement_on_random_circuits():
    """200 random circuits, N in 1..4, all collective axes, diff <= 1e-10 M."""
    rng = np.random.default_rng(2026)
    problems = []
    started = time.perf_counter()
    for n_spins in (1, 2, 3, 4):
        observables = {axis: PauliSum.collective(n_spins, axis) for axis in "xyz"}
        for index in range(50):
            ensemble = _random_ensemble(rng, n_spins)
            circuit = random_circuit(n_spins, rng)
            propagator = compose_propagator(circuit)
            budget = 1e-10 * ensemble.molecule_count
            for axis in "xyz":
                a = ensemble_expectation_sum(propagator, ensemble, observables[axis])
                b = ensemble_expectation_trace(circuit, ensemble, observables[axis])
                if abs(a - b) > budget:
                    problems.append(
                        f"N={n_spins} circuit {index} axis {axis}: |{a} - {b}| > {budget}"
                    )
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f} s, budget 30 s")
    _verdict(
        1,
        "sum and trace pathways agree within 1e-10*M on 200 random circuits "
        f"(600 comparisons, {elapsed:.2f} s)",
        problems,
    )


def test_criterion_2_entangled_molecules_mixed_ensemble():
    """Bell circuit at epsilon 1e-5: pure states maximally entangled, average near I/4."""
    problems = []
    started = time.perf_counter()
    system = SpinSystem.zeeman([2.0, 1.0])
    epsilon = 1e-5
    ensemble = ThermalEnsemble.boltzmann(system, system.spectral_width / epsilon, 1.0e6)
    propagator = compose_propagator(parse_circuit("H 1\nCNOT 1 2", 2))
    cut = BipartitionSpec((1,), (2,))

    for k in range(4):
        report = entanglement_report(evolve_eigenstate(propagator, k), cut)
        if abs(report.entropy_bits - 1.0) > 1e-9:
            problems.append(f"eigenstate {k}: entropy {report.entropy_bits} not 1.0 +- 1e-9")

    rho = propagator @ equilibrium_density_matrix(ensemble) @ propagator.conj().T
    sep = ppt_report(rho, cut)
    if sep.negativity > 1e-12:
        problems.append(f"evolved ensemble negativity {sep.negativity} > 1e-12")
    if sep.ppt_holds is not True or sep.ppt_conclusive is not True:
        problems.append("evolved ensemble state is not conclusively PPT")
    if sep.frobenius_to_mixed > 2e-5:
        problems.append(f"distance to I/4 is {sep.frobenius_to_mixed}, budget 2e-5")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f} s, budget 1 s")
    _verdict(
        2,
        "every molecule ends maximally entangled while the ensemble average "
        "stays separable and within 2e-5 of maximally mixed",
        problems,
    )


def test_criterion_3_populations_flatten_as_temperature_grows():
    """Over 4 decades of epsilon the spread shrinks monotonically, rho_eq -> I/K."""
    problems = []
    system = SpinSystem.zeeman([2.0, 1.0])
    identity_over_k = maximally_mixed(4)
    spreads = []
    for epsilon in (1e-1, 1e-2, 1e-3, 1e-4):
        ensemble = ThermalEnsemble.boltzmann(system, system.spectral_width / epsilon, 1.0e6)
        spread = float(np.max(np.abs(ensemble.probabilities - 0.25)))
        spreads.append(spread)
        distance = frobenius_distance(equilibrium_density_matrix(ensemble), identity_over_k)
        if distance > 2.0 * epsilon:
            problems.append(f"epsilon {epsilon}: ||rho - I/4|| = {distance} > {2.0 * epsilon}")
    for a, b in zip(spreads, spreads[1:]):
        if not b < a:
            problems.append(f"population spread failed to decrease: {a} then {b}")
    _verdict(
        3,
        "population spread decreases monotonically over 4 decades and "
        "rho_eq stays within 2*epsilon of I/K",
        problems,
    )


def test_criterion_4_identity_circuit_transverse_null():
    """No gates applied: transverse readout is 0 to 1e-12*M on both pathways."""
    rng = np.random.default_rng(77)
    problems = []
    for n_spins in (1, 2, 3, 4):
        for _ in range(3):
            ensemble = _random_ensemble(rng, n_spins)
            budget = 1e-12 * ensemble.molecule_count
            for axis in "xy":
                circuit = Circuit(n_spins)
                (result,) = compare_pathways(
                    circuit,
                    compose_propagator(circuit),
                    ensemble,
                    [PauliSum.collective(n_spins, axis)],
                )
                if abs(result.expectation_sum) > budget:
                    problems.append(f"N={n_spins} {axis}: sum {result.expectation_sum}")
                if abs(result.expectation_trace) > budget:
                    problems.append(f"N={n_spins} {axis}: trace {result.expectation_trace}")
    _verdict(
        4,
        "equilibrium ensembles read exactly zero transverse signal through "
        "both pathways (24 cases)",
        problems,
    )


def test_criterion_5_invariant_suite_standalone():
    """tests/test_invariants.py passes on its own in under a minute."""
    problems = []
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_invariants.py", "-q"],
        cwd=PACKAGE_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        tail = "\n".join(proc.stdout.splitlines()[-10:])
        problems.append(f"exit code {proc.returncode}: {tail}")
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f} s, budget 60 s")
    _verdict(
        5,
        f"randomized invariant suite passes standalone ({elapsed:.1f} s)",
        problems,
    )


def test_criterion_6_sweep_reports_are_byte_identical(tmp_path):
    """Two sweeps with one seed write the same bytes."""
    problems = []
    config_path = tmp_path / "sweep.cfg"
    config_path.write_text(
        "n_spins = 2\nlarmor = 2.0, 1.0\ntemperature = 3.0e5\n"
        "molecule_count = 1.0e6\nseed = 42\n"
    )
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for target in (first, second):
        code = main(["sweep", "--config", str(config_path), "--n", "10", "--output", str(target)])
        if code != 0:
            problems.append(f"sweep exited {code}")
    if not problems:
        bytes_a, bytes_b = first.read_bytes(), second.read_bytes()
        if bytes_a != bytes_b:
            problems.append("reports differ byte-for-byte")
        body = json.loads(bytes_a)
        if body["sweep"]["within_tolerance"] is not True:
            problems.append("sweep itself failed tolerance")
    _verdict(6, "repeated seeded sweeps produce byte-identical reports", problems)
