"""Generated config text, circuit text and command lines through main().

Whatever the input, main() returns exit 0, 1 or 2 with at most one stderr
line of at most ERROR_CAP characters, never raises (which would print a
traceback) and never warns; no temporary file survives, and a failed run
leaves the earlier report byte for byte as it was.  Valid runs stay at 3 spins or fewer and at most
3 sweep circuits, so the search is deterministic and quick.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest

from spinensemble.circuit import GATE_KINDS
from spinensemble.cli import ERROR_CAP, main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EARLIER = b'{"earlier": "report"}\n'
# More digits than the interpreter converts to an int.
LONG = "1" * 5000

# Each key's values, the valid default first; n_spins, larmor and
# bipartition take their defaults from the spin count.
VALUES = {
    "n_spins": ["2", "1", "3", "0", "13", "-1", "100000", "two", "2.5", LONG],
    "larmor": ["2.0, 1.0", "2.0", "2.7 1.6 0.9", "nan, 1", "inf", "1.5e308, 1.5e308, 1.5e308", ","],
    "temperature": ["3e5", "1e-320", "1", "0", "-1", "nan", "inf", "warm", "1e308"],
    "molecule_count": ["1e6", "1", "0", "-5", "nan", "1e308", "5e-324", "many"],
    "circuit_path": ["c.qc", "missing.qc"],
    "observable": ["x", "y", "z@1", "z@2", "y@3", "q", "x@0", "x@two", "@1", "x@" + LONG],
    "bipartition": ["1|2", "1|2,3", "1,2|3", "2|1", "1|1", "12", "a|b", "1|3", "1|2," + LONG],
    "seed": ["7", "0", "-1", "x", LONG],
    "output_path": ["out.json"],
}
# ball_radius was a key once; it is now as unknown as frobnicate.
EXTRA_LINES = [
    "frobnicate = 1", "ball_radius = 0.05", "just words", "seed =", "n_spins = 2", "# comment"
]
SPIN_TOKENS = ["1", "2", "3", "0", "4", "1.5", "+1", "0.7", "inf", "nan", "-2.5", "abc", LONG]


def often(draw) -> bool:
    """True in about four draws of five."""
    return draw(st.sampled_from([True, True, True, True, False]))


@st.composite
def config_texts(draw, n_spins):
    """A valid config for n_spins, then a few keys changed, dropped or added."""
    entries = {key: values[0] for key, values in VALUES.items()}
    entries["n_spins"] = str(n_spins)
    entries["larmor"] = ", ".join(["2.0", "1.0", "0.5"][:n_spins])
    entries["bipartition"] = "1|" + ",".join(map(str, range(2, n_spins + 1)))
    if n_spins == 1:
        del entries["bipartition"]
    for key in draw(st.lists(st.sampled_from(list(VALUES)), max_size=2)):
        if often(draw):
            entries[key] = draw(st.sampled_from(VALUES[key]))
        else:
            entries.pop(key, None)
    lines = [f"{key} = {value}" for key, value in entries.items()]
    if not often(draw):
        lines.append(draw(st.sampled_from(EXTRA_LINES)))
    return "\n".join(lines) + "\n"


@st.composite
def circuit_texts(draw, n_spins):
    """Gate lines on spins 1..n_spins, some of them malformed."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(GATE_KINDS))
        spins = draw(st.lists(st.integers(1, n_spins), min_size=1, max_size=2, unique=True))
        args = [str(spin) for spin in spins]
        if name in ("RX", "RY", "RZ"):
            args.append("0.7")
        if not often(draw):
            name = draw(st.sampled_from([name, "h", "FROB", "#"]))
            args = draw(st.lists(st.sampled_from(SPIN_TOKENS), max_size=3))
        lines.append(" ".join([name, *args]))
    return "\n".join(lines) + "\n"


def path_or_junk(draw, path):
    """path, or in about one draw of five a path through a directory whose
    name holds a NUL or a newline, which no run can read or write."""
    if often(draw):
        return path
    directory, name = os.path.split(path)
    return os.path.join(directory, draw(st.sampled_from(["\0", "no\nsuch"])), name)


@st.composite
def argvs(draw, config_path, output_path):
    argv = [draw(st.sampled_from(["simulate", "sweep"])) if often(draw) else "frobnicate"]
    if often(draw):
        argv += ["--config", path_or_junk(draw, config_path)]
    if draw(st.booleans()):
        argv += ["--output", path_or_junk(draw, output_path)]
    if not often(draw):
        argv += ["--ball-radius", draw(st.sampled_from(["0.05", "nan", "inf", "0", "-1", "big"]))]
    if argv[0] == "sweep" or not often(draw):
        counts = ["3", "1"] if often(draw) else ["-1", "x", LONG]
        argv += ["--n", draw(st.sampled_from(counts))]
    if draw(st.booleans()):
        argv.append("--summary")
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


@hypothesis.settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
@hypothesis.given(data=st.data())
def test_any_input_exits_cleanly_and_keeps_the_earlier_report(workdir, data):
    directory = tempfile.mkdtemp(dir=workdir)
    config_path = os.path.join(directory, "run.cfg")
    output_path = os.path.join(directory, "out.json")
    n_spins = data.draw(st.integers(1, 3), label="n_spins")
    with open(config_path, "w") as handle:
        handle.write(data.draw(config_texts(n_spins), label="config"))
    with open(os.path.join(directory, "c.qc"), "w") as handle:
        handle.write(data.draw(circuit_texts(n_spins), label="circuit"))
    with open(output_path, "wb") as handle:
        handle.write(EARLIER)
    names_before = sorted(os.listdir(directory))
    argv = data.draw(argvs(config_path, output_path), label="argv")

    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)

    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    lines = stderr.getvalue().splitlines()
    assert len(lines) == (0 if code == 0 else 1)
    assert all(len(line) <= ERROR_CAP for line in lines)
    assert sorted(os.listdir(directory)) == names_before
    with open(output_path, "rb") as handle:
        written = handle.read()
    if code == 0:
        json.loads(written)
    else:
        assert written == EARLIER
