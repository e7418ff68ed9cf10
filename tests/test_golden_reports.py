"""Report bytes pinned by SHA-256 for fixed configs.

A report is a byte-deterministic function of its inputs for one numpy/BLAS
build and one thread count, so a change that means to leave the numerics
alone must leave every hash below alone.  A change that moves report bytes
on purpose updates the hashes here and says in CHANGES.md which fields
moved and why.

The runs use one BLAS thread in a fresh interpreter.  Every report here
but simulate-n4-cold-x is certified separable and needs no
eigendecomposition; that one runs the exact partial-transpose report,
whose eigendecomposition rounds its last digits by the thread count.  The
hashes
were taken with numpy 2.4.6 on OpenBLAS 0.3.31; another build may round
differently.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

ENSEMBLE = "temperature = 3.0e5\nmolecule_count = 1.0e6\n"

# n_spins -> (larmor, bipartition line, circuit text)
SIMULATE_SYSTEMS = {
    1: ("2.0", "", "H 1\nRX 1 0.7\nT 1\nRY 1 2.3\nS 1\n"),
    2: ("2.0, 1.0", "bipartition = 1|2\n", "H 1\nCNOT 1 2\nRY 2 0.9\nCZ 2 1\nRZ 1 1.7\nSWAP 1 2\n"),
    3: (
        "2.7, 1.6, 0.9",
        "bipartition = 1|2,3\n",
        "H 1\nCNOT 1 3\nRX 2 0.4\nCZ 3 2\nT 3\nSWAP 1 2\nRY 3 2.2\n",
    ),
    5: (
        "2.5, 2.0, 1.5, 1.0, 0.5",
        "bipartition = 1,2|3,4,5\n",
        "H 1\nCNOT 1 5\nRY 2 0.9\nCNOT 2 4\nH 3\nCZ 3 5\nRX 4 1.3\nSWAP 1 4\nT 5\n"
        "RZ 2 0.4\nCNOT 5 3\n",
    ),
}
OBSERVABLES = ("x", "y@1", "z")

# From N = 9 a gate pass runs over several column blocks; these run only
# collective x.  n_spins -> (larmor, bipartition line, circuit text)
BLOCKED_SIMULATE_SYSTEMS = {
    10: (
        "3.0, 2.8, 2.6, 2.4, 2.2, 2.0, 1.8, 1.6, 1.4, 1.2",
        "bipartition = 1,2,3,4,5|6,7,8,9,10\n",
        "H 1\nCNOT 1 10\nRY 2 0.9\nCZ 10 2\nX 10\nSWAP 3 9\nRX 9 1.3\nY 3\nCZ 9 10\n"
        "S 4\nRZ 10 0.4\nT 1\nZ 2\nCNOT 10 1\nH 6\nCZ 5 6\nRY 7 2.2\nCNOT 6 8\n",
    ),
}

# At T = 0.3 most molecules sit in the ground level, and the circuit
# entangles them across the cut: the evolved state lies outside the
# separable ball.  (larmor, bipartition line, circuit text)
COLD_SIMULATE_N4 = (
    "2.4, 1.8, 1.2, 0.6",
    "bipartition = 1,2|3,4\n",
    "H 1\nCNOT 1 3\nRY 2 0.9\nCNOT 2 4\nRX 4 1.3\nT 3\nCZ 1 2\nSWAP 3 4\n",
)

# name -> (larmor, seed, circuit count)
SWEEPS = {
    "sweep-n2": ("2.0, 1.0", 7, 6),
    "sweep-n4": ("2.4, 1.8, 1.2, 0.6", 44, 5),
    "sweep-n9": ("2.9, 2.6, 2.3, 2.0, 1.7, 1.4, 1.1, 0.8, 0.5", 45, 3),
}

# Taken when the trace pathway moved to one stream of column blocks of rho'.
PINNED_SHA256 = {
    "simulate-n1-x": "641cdec0e806d5ad6c0266f384479cb72f32a0167c7021ade987eceedc55611c",
    "simulate-n1-y@1": "4ca18b70e0ba7bc14458a2a6ac4ad152760fb425bc7a4ef54ed9a3ec81e0863b",
    "simulate-n1-z": "f91e50983b43eb8990cb963f953de1a8e4f0a6bfafdf3fb893041c398fe92484",
    "simulate-n2-x": "9fda5f556a7ac5c45dfa39d751890719049b559e008e51a822774e1f01f81c6c",
    "simulate-n2-y@1": "ed4c0804d939d795d0a2235a29095f85a459804447d5d075fd3d31d9da106d6b",
    "simulate-n2-z": "38f8453a4540b903f47339b41b9f6327c1d5b037fe2db41a6958230e900eb4cf",
    "simulate-n3-x": "eeec82b0f83d6f263ff33bc8c5651a0dd8c97a4bb6f948885165f34be1984451",
    "simulate-n3-y@1": "277257c8f43c79b6442b804666523ff51a38eea8336858a1b9e6026d6098f538",
    "simulate-n3-z": "bd3fea4df836f6c7f74513447d8b5f82b93f7f0f819efedd0fbb10df2a06d5b3",
    "simulate-n5-x": "1931cb36cf94c6ec9538928f766a56715140fa7f51616a91376d57b23da96932",
    "simulate-n5-y@1": "f59b05894146437714718666be2bc90a31792664c68a88f19a8f2ada292e0b7b",
    "simulate-n5-z": "fa5af291d923fe3db6cfd55b1dab20154e3bb99f050e8372ff454d7a03e855d2",
    "sweep-n2": "c745599965d02bcf40ac997fd603c73612079152563f630274dca4500e40a6f3",
    "sweep-n4": "a5c191f95901fd7c39c9a67ae893e17dba9dec9d067cbdab0c0fe0d2700740cd",
    "simulate-n10-x": "e2c501ab198ed13e0eb121af1cf55ff8d517dd70591df7b93dd0103c80ded9c8",
    "sweep-n9": "a948fdc6562677da77a00467c5791981f14cf136a5dd9c32ecfaaf0c3355b383",
    "simulate-n4-cold-x": "d80d9b813055eff82e01d63cdcdb675f012b5b2322d0773725ba271ec918fb45",
}

RUNNER = """\
import json, sys
from spinensemble.cli import main
for argv in json.load(sys.stdin):
    if main(argv) != 0:
        sys.exit(f"failed: {argv}")
"""


def write_runs(tmp_path: Path) -> dict[str, list[str]]:
    """Write every config and circuit; return the argv of each named run."""
    runs = {}
    systems = [(f"n{n}", n, s, OBSERVABLES, ENSEMBLE) for n, s in SIMULATE_SYSTEMS.items()]
    systems += [(f"n{n}", n, s, ("x",), ENSEMBLE) for n, s in BLOCKED_SIMULATE_SYSTEMS.items()]
    cold = ENSEMBLE.replace("3.0e5", "0.3")
    systems.append(("n4-cold", 4, COLD_SIMULATE_N4, ("x",), cold))
    for label, n_spins, (larmor, cut, circuit), observables, ensemble in systems:
        (tmp_path / f"{label}.qc").write_text(circuit)
        for observable in observables:
            name = f"simulate-{label}-{observable}"
            config = tmp_path / f"{name}.cfg"
            config.write_text(
                f"n_spins = {n_spins}\nlarmor = {larmor}\n{ensemble}"
                f"circuit_path = {label}.qc\nobservable = {observable}\n{cut}"
            )
            runs[name] = ["simulate", "--config", str(config)]
    for name, (larmor, seed, count) in SWEEPS.items():
        config = tmp_path / f"{name}.cfg"
        n_spins = len(larmor.split(","))
        config.write_text(f"n_spins = {n_spins}\nlarmor = {larmor}\n{ENSEMBLE}seed = {seed}\n")
        runs[name] = ["sweep", "--config", str(config), "--n", str(count)]
    for name, argv in runs.items():
        argv += ["--output", str(tmp_path / f"{name}.json")]
    return runs


def report_hashes(tmp_path: Path) -> dict[str, str]:
    runs = write_runs(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER],
        input=json.dumps(list(runs.values())),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        name: hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest()
        for name in runs
    }


def test_report_bytes_are_pinned(tmp_path):
    assert report_hashes(tmp_path) == PINNED_SHA256
