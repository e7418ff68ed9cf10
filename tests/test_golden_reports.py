"""Report bytes pinned by SHA-256 for fixed configs.

A report is a byte-deterministic function of its inputs for one numpy/BLAS
build and one thread count, so a change that means to leave the numerics
alone must leave every hash below alone.  A change that moves report bytes
on purpose updates the hashes here and says in CHANGES.md which fields
moved and why.

The runs use one BLAS thread in a fresh interpreter.  Every report here is
certified separable and needs no eigendecomposition, but one that did
would round its last digits by the thread count.  The hashes
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

# name -> (larmor, seed, circuit count)
SWEEPS = {"sweep-n2": ("2.0, 1.0", 7, 6), "sweep-n4": ("2.4, 1.8, 1.2, 0.6", 44, 5)}

# Taken when the separability section moved to the separable-ball certificate.
PINNED_SHA256 = {
    "simulate-n1-x": "443414707237db8addfea40b04881c21024afcc39c089b2372cf0e1a1f8344a4",
    "simulate-n1-y@1": "089f8373d7d83099bfd81b10a7255ac8a3494be6c0d0f9db5df0bb8630ecf977",
    "simulate-n1-z": "108978ad98d092cd35e7281e99f7732fc67cccdd2407d113dd0576f11dfce1bc",
    "simulate-n2-x": "0dc58a93fd9cd68459e87ccfd86cf457fe861086d97765158fa3159e2019a2ea",
    "simulate-n2-y@1": "e921fd5993e857fc2c770f98578b6689957104d40437d99c0e11dd8997261628",
    "simulate-n2-z": "f5284928db2c7495c8e9d66773e40e53690278ceb3cc1fd7d6c77219eaacc7fc",
    "simulate-n3-x": "9ddefca2fc6dd98e9ce2b879db2050e66ca55a0bf5a54a67271542d73561eb92",
    "simulate-n3-y@1": "ba35d4bc8fa31f975640910344772fcf86b06921295378c7d1c7b196df2d0406",
    "simulate-n3-z": "b399e419ae7eef01a2a4bed749508b0a4665141a351b56cffbe5b837ab3d9099",
    "simulate-n5-x": "2b94a1a15ab904efff85d9d1d7b3e6a8b07e9e958c76b16a98402f138df7c79c",
    "simulate-n5-y@1": "3d0dda9c50c28c7877368714d8cbbba8428b03e1374e018985045cf1b34c9386",
    "simulate-n5-z": "1b895f79a78a92ced01145975b4d3e7321182613c660b2e9db9939003a60306d",
    "sweep-n2": "bf05871f8352a6ee7581d21d506e2d0783d86d64f472534be5d93e6c7ca00618",
    "sweep-n4": "863f2efce672d4a1606ebea5ceb5faaa95253d63e9ab0cd46c1ba3b4b8dc8afb",
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
    for n_spins, (larmor, cut, circuit) in SIMULATE_SYSTEMS.items():
        (tmp_path / f"n{n_spins}.qc").write_text(circuit)
        for observable in OBSERVABLES:
            name = f"simulate-n{n_spins}-{observable}"
            config = tmp_path / f"{name}.cfg"
            config.write_text(
                f"n_spins = {n_spins}\nlarmor = {larmor}\n{ENSEMBLE}"
                f"circuit_path = n{n_spins}.qc\nobservable = {observable}\n{cut}"
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
