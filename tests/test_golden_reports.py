"""Report bytes pinned by SHA-256 for fixed configs.

A report is a byte-deterministic function of its inputs for one numpy/BLAS
build and one thread count, so a change that means to leave the numerics
alone must leave every hash below alone.  A change that moves report bytes
on purpose updates the hashes here and says in CHANGES.md which fields
moved and why.

The runs use one BLAS thread in a fresh interpreter, as
TestThreadCountIndependence does: the evolved partial transpose's
eigenvalues differ in their last digits between thread counts.  The hashes
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

# n_spins -> (larmor, bipartition and ball radius lines, circuit text)
SIMULATE_SYSTEMS = {
    1: ("2.0", "", "H 1\nRX 1 0.7\nT 1\nRY 1 2.3\nS 1\n"),
    2: ("2.0, 1.0", "bipartition = 1|2\n", "H 1\nCNOT 1 2\nRY 2 0.9\nCZ 2 1\nRZ 1 1.7\nSWAP 1 2\n"),
    3: (
        "2.7, 1.6, 0.9",
        "bipartition = 1|2,3\nball_radius = 1e-5\n",
        "H 1\nCNOT 1 3\nRX 2 0.4\nCZ 3 2\nT 3\nSWAP 1 2\nRY 3 2.2\n",
    ),
    5: (
        "2.5, 2.0, 1.5, 1.0, 0.5",
        "bipartition = 1,2|3,4,5\nball_radius = 1e-5\n",
        "H 1\nCNOT 1 5\nRY 2 0.9\nCNOT 2 4\nH 3\nCZ 3 5\nRX 4 1.3\nSWAP 1 4\nT 5\n"
        "RZ 2 0.4\nCNOT 5 3\n",
    ),
}
OBSERVABLES = ("x", "y@1", "z")

# name -> (larmor, seed, circuit count)
SWEEPS = {"sweep-n2": ("2.0, 1.0", 7, 6), "sweep-n4": ("2.4, 1.8, 1.2, 0.6", 44, 5)}

# Taken from the release before input checks moved into the library types.
PINNED_SHA256 = {
    "simulate-n1-x": "f14d47edb7a29c43ac7aba1aaed1ab726b50d8c79132453105ba4686f9323a6f",
    "simulate-n1-y@1": "1e1165eea1bb2e0e9c1d1ede99ae954a317e19fd3da93211dda5b350e4dba712",
    "simulate-n1-z": "227615e6f34e93f518e0141dee308276bff7228b5cf3ae91b282737718df39aa",
    "simulate-n2-x": "afe465964d2cdcb977562eb82871bec78b7675933c4d20c2bba38ce26ae8926f",
    "simulate-n2-y@1": "9fa5b373ac8bc224487531d9cccc2dcab642c620ed9eeda402c7b630c1feab95",
    "simulate-n2-z": "0e799e40bce967631d245eb5093679bc6a462c21d0598fd10515747fc8f19255",
    "simulate-n3-x": "50455c98aa404efba1706f6bb1da17da84825f7230d96f59f1c5d3d9df3a233f",
    "simulate-n3-y@1": "39621b2e19ccb562327b20a1bcdb9c73ad0b879ef94bfd42c8428deaeb41c0ef",
    "simulate-n3-z": "2d38714fcb2113facd37652db901f02f7f4938b70680502d4241bd5e714cd4da",
    "simulate-n5-x": "4aed3c9e998351ce38aa4307e9d414a6a8228a69e8336e29dadf9d6106b5cf63",
    "simulate-n5-y@1": "090b3f93043304ec6141ec8b12aef9e098baa400b8f9633c5297dacdc061ed6a",
    "simulate-n5-z": "08ae1377c20c780b79eeefb970a2474dcfe4a09e8050e840d40e32b752396cf3",
    "sweep-n2": "154d8d60e5089a498c331f753b3c4b6db6c5d193452ccfd5f73a13e9864f5b79",
    "sweep-n4": "09b27af5067f02f37a5a0af2ce8fa3c9679676355fff5cfb139f932391895f50",
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
