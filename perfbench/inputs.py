"""Seeded workload inputs: config and circuit text for each command.

The generator uses only the standard library's ``random`` module, never
``spinensemble.random_circuit`` or numpy's generators, so a change to the
program or its dependencies cannot change what a workload runs.  The same
(seed, workload, command index) always gives the same files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FIXED_1Q = ("H", "X", "Y", "Z", "S", "T")
ROTATIONS = ("RX", "RY", "RZ")
TWO_SPIN = ("CNOT", "CZ", "SWAP")

# The paper's regime: epsilon = (energy spread)/T of order 1e-5.
TEMPERATURE = "3.0e5"
MOLECULE_COUNT = "1.0e6"
LARMOR_RANGE = (0.5, 3.0)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the CLI command and the input shape it gets.

    For ``simulate`` each command runs one circuit of ``depth`` gates, of
    which ``two_spin_fraction`` are two-spin gates.  For ``sweep`` each
    command draws ``sweep_circuits`` circuits from the program's own seeded
    generator (depth uniform in 1..20, gate kinds uniform).
    """

    command: str
    n_spins: int
    depth: int = 0
    two_spin_fraction: float = 0.0
    sweep_circuits: int = 0


WORKLOADS = {
    # K = 1024: the dense K^3 layers (compose, PPT eigendecomposition,
    # density-matrix products) dominate each command.
    "simulate-n10": Workload("simulate", 10, depth=20, two_spin_fraction=0.3),
    # Pathway cross-check only: no entanglement, no PPT, a tiny report.
    "sweep-n8": Workload("sweep", 8, sweep_circuits=20),
    # K = 16: Python per-call overhead (parsing, per-gate embedding,
    # per-state reports, rendering) dominates.
    "simulate-n4": Workload("simulate", 4, depth=20, two_spin_fraction=0.3),
}


def circuit_text(rng: random.Random, n_spins: int, depth: int, two_spin_fraction: float) -> str:
    """A circuit with exactly round(depth * two_spin_fraction) two-spin gates.

    The other gates are drawn uniformly from the six fixed one-spin gates
    and the three rotations; angles are uniform in [0, 2*pi).
    """
    n_two = round(depth * two_spin_fraction)
    slots = [True] * n_two + [False] * (depth - n_two)
    rng.shuffle(slots)
    lines = []
    for two_spin in slots:
        if two_spin:
            a, b = rng.sample(range(1, n_spins + 1), 2)
            lines.append(f"{rng.choice(TWO_SPIN)} {a} {b}")
            continue
        kind = rng.choice(FIXED_1Q + ROTATIONS)
        spin = rng.randint(1, n_spins)
        if kind in ROTATIONS:
            lines.append(f"{kind} {spin} {rng.uniform(0.0, 6.283185307179586)!r}")
        else:
            lines.append(f"{kind} {spin}")
    return "\n".join(lines) + "\n"


def halves(n_spins: int) -> str:
    """The cut that splits the spins into two halves, e.g. '1,2|3,4'."""
    half = n_spins // 2
    left = ",".join(str(s) for s in range(1, half + 1))
    right = ",".join(str(s) for s in range(half + 1, n_spins + 1))
    return f"{left}|{right}"


def command_inputs(seed: int, name: str, index: int) -> tuple[str, str | None]:
    """Config text and circuit text (None for sweep) of command ``index``.

    The config names its circuit as ``circuit.qc`` in its own directory.
    """
    workload = WORKLOADS[name]
    rng = random.Random(f"{seed}:{name}:{index}")
    larmor = ", ".join(repr(rng.uniform(*LARMOR_RANGE)) for _ in range(workload.n_spins))
    lines = [
        f"n_spins = {workload.n_spins}",
        f"larmor = {larmor}",
        f"temperature = {TEMPERATURE}",
        f"molecule_count = {MOLECULE_COUNT}",
    ]
    if workload.command == "sweep":
        lines.append(f"seed = {rng.randrange(2**31)}")
        return "\n".join(lines) + "\n", None
    lines += [
        "circuit_path = circuit.qc",
        "observable = x",
        f"bipartition = {halves(workload.n_spins)}",
    ]
    circuit = circuit_text(rng, workload.n_spins, workload.depth, workload.two_spin_fraction)
    return "\n".join(lines) + "\n", circuit
