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

# Taken when the trace pathway moved to two row passes of the gate list.
PINNED_SHA256 = {
    "simulate-n1-x": "a0139fe32bd646f36e12baf78c2e11008acfe48615f2be5447770a8c77522bf0",
    "simulate-n1-y@1": "6f8cbf3385b1440c3a1679518dd7c558050be423506f3a026989fc94d336ee10",
    "simulate-n1-z": "f67212adb3346951ee6e72b2bcad8f902ca8ddb4e181b2f0ea438c355f1a8726",
    "simulate-n2-x": "ec4de6a404af220fd51eaaacfe7c06e8083126cf9c5157d360705b1c877696c7",
    "simulate-n2-y@1": "1fd822cf2259b106b19daedeffa59e4eedde0e9bf33db642f62716fad45be438",
    "simulate-n2-z": "90655f543a8632a2f490452da05a66631e54691df1e380060e61b16aa4cb63f1",
    "simulate-n3-x": "0baf0ff3e07a11b5db21bc0fcc4c284473fa4ab211c2b2645b3033887e856a04",
    "simulate-n3-y@1": "22ce3c16a37394e9c45f631086eeedbdf66a165900f1201f0a25be100d023da6",
    "simulate-n3-z": "bd7fd4a010fecdd90f924a7fb48ea632b43490c686ebb6fa4f369f8776b6ec1a",
    "simulate-n5-x": "4e0093e03bd9507e2d8cca09081534aa647a1066f76414a1c9f0e81782c75c4d",
    "simulate-n5-y@1": "48a8a7b9560836cb347bd38071e1b25feab0ca0613f06bb97968d1014447ea0a",
    "simulate-n5-z": "5874d60bca190af5dd3b3df373a05418c65921bd839a9a2b974c8aab3b4a4b8c",
    "sweep-n2": "7ec4955df2a306031b3b1f71cf0f8e186fea5812f3f6cd4b7429219d73d8ef57",
    "sweep-n4": "185a1c95cf3018adca4d48f3a682cc8752ba4b50057603ba768dfe0f727dc8ff",
    # Taken while every gate pass still ran on the whole operand, before
    # passes ran over column blocks.
    "simulate-n10-x": "f34226bfacba1432ee0f4759adec8b111c164a8e5c02d45f55ef3af4cc4a2ee2",
    "sweep-n9": "3018efbe465bc5bd098b8f0afc14f10fe6613b2096d7ee39ab15aceb6e257300",
    # Taken while the exact report still checked rho' as a density matrix.
    "simulate-n4-cold-x": "1cab35c8fee4439e233bdb97baea7428d87e127a46fc080bf1b25685374969de",
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
