import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinensemble import circuit as circuit_module
from spinensemble import cli as cli_module
from spinensemble import engine as engine_module
from spinensemble import entanglement as entanglement_module
from spinensemble.circuit import CircuitParseError, format_circuit, random_circuit
from spinensemble.cli import (
    ERROR_CAP,
    ConfigError,
    UsageError,
    load_config,
    main,
    render_report,
    run_simulate,
    run_sweep,
    summary_lines,
)
from spinensemble.engine import compare_pathways
from spinensemble.qlinalg import ValidationError
from spinensemble.spin_system import PauliSum

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
BELL_TEXT = "H 1\nCNOT 1 2\n"

BASE_CONFIG = """\
n_spins = 2
larmor = 2.0, 1.0          # spin 1 fast, spin 2 slow
temperature = 3.0e5
molecule_count = 1.0e6
circuit_path = bell.qc
observable = x
bipartition = 1|2
output_path = report.json
"""

# At T = 0.5 the Bell circuit's ensemble average is entangled: outside the
# separable ball, so the exact partial-transpose path runs.
LOW_T_CONFIG = BASE_CONFIG.replace("temperature = 3.0e5", "temperature = 0.5")

ONE_SPIN_CONFIG = """\
n_spins = 1
larmor = 2.0
temperature = 3.0e5
molecule_count = 1.0e6
circuit_path = bell.qc
observable = x
output_path = report.json
"""


def write_config(tmp_path, text=BASE_CONFIG, circuit=BELL_TEXT, name="run.cfg"):
    (tmp_path / "bell.qc").write_text(circuit)
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def spins_config(n_spins, cut=None):
    """BASE_CONFIG for n_spins spins with Larmor frequencies 1..n_spins,
    cut into two halves unless a cut is given."""
    if cut is None:
        half = n_spins // 2
        cut = ",".join(map(str, range(1, half + 1))) + "|"
        cut += ",".join(map(str, range(half + 1, n_spins + 1)))
    return (
        BASE_CONFIG.replace("n_spins = 2", f"n_spins = {n_spins}")
        .replace("larmor = 2.0, 1.0", "larmor = " + ", ".join(map(str, range(1, n_spins + 1))))
        .replace("bipartition = 1|2", f"bipartition = {cut}")
    )


def rescale_blocks(monkeypatch, scale):
    """Replace simulate's block source with one that passes each block of
    evolved eigenstates through scale(start, block) first."""
    original = engine_module._eigenstate_blocks

    def scaled(circuit):
        for start, block in original(circuit):
            yield start, scale(start, block)

    monkeypatch.setattr(cli_module, "_eigenstate_blocks", scaled)


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert config.n_spins == 2
        assert config.larmor == (2.0, 1.0)
        assert config.temperature == 3.0e5
        assert config.molecule_count == 1.0e6
        assert config.circuit_path == "bell.qc"
        assert config.observable == "x"
        assert config.bipartition == "1|2"
        assert config.output_path == "report.json"
        assert config.base_dir == str(tmp_path)
        assert config.resolve("bell.qc") == str(tmp_path / "bell.qc")

    def test_minimal_config(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("n_spins = 1\nlarmor = 2.0\ntemperature = 1e5\nmolecule_count = 100\n")
        config = load_config(str(path))
        assert config.circuit_path is None and config.seed is None
        assert config.output_path is None

    def test_space_separated_larmor(self, tmp_path):
        path = tmp_path / "sp.cfg"
        path.write_text("n_spins = 2\nlarmor = 2.0 1.0\ntemperature = 1e5\nmolecule_count = 10\n")
        assert load_config(str(path)).larmor == (2.0, 1.0)

    @pytest.mark.parametrize(
        "mutation,fragment",
        [
            ("frobnicate = 1", "unknown key"),
            ("n_spins = 2", "duplicate key"),
            ("just some words", "expected key = value"),
            ("seed =", "empty value"),
            ("seed = -3", "seed must be an integer of digits 0-9"),
            ("seed = +2", "seed must be an integer of digits 0-9"),
        ],
    )
    def test_bad_extra_line(self, tmp_path, mutation, fragment):
        with pytest.raises(ConfigError, match=fragment):
            load_config(write_config(tmp_path, BASE_CONFIG + mutation + "\n"))

    @pytest.mark.parametrize(
        "old,new,fragment",
        [
            ("n_spins = 2", "n_spins = two", "must be an integer"),
            ("n_spins = 2", "n_spins = +2", "n_spins must be an integer of digits 0-9"),
            ("n_spins = 2", "n_spins = 1_2", "n_spins must be an integer of digits 0-9"),
            ("n_spins = 2", "n_spins = 0", "1..12"),
            ("n_spins = 2", "n_spins = 13", "1..12"),
            ("larmor = 2.0, 1.0          # spin 1 fast, spin 2 slow", "larmor = 2.0", "needs 2 entries"),
            ("larmor = 2.0, 1.0          # spin 1 fast, spin 2 slow", "larmor = a, b", "larmor entry must be a number"),
            ("temperature = 3.0e5", "temperature = -1", "must be positive"),
            ("temperature = 3.0e5", "temperature = inf", "must be finite"),
            ("temperature = 3.0e5", "temperature = 1_0", "temperature must be a number"),
            ("temperature = 3.0e5", "temperature = \u0661\u0660", "temperature must be a number"),
            ("molecule_count = 1.0e6", "molecule_count = 1_000", "molecule_count must be a number"),
            ("molecule_count = 1.0e6", "molecule_count = 0", "must be positive"),
            ("bipartition = 1|2", "bipartition = 1|1", "bipartition"),
            ("observable = x", "observable = q", "axis must be x, y, or z"),
            ("observable = x", "observable = x@²", "integer"),
        ],
    )
    def test_bad_value(self, tmp_path, old, new, fragment):
        with pytest.raises(ConfigError, match=fragment):
            load_config(write_config(tmp_path, BASE_CONFIG.replace(old, new)))

    def test_missing_required_key(self, tmp_path):
        text = BASE_CONFIG.replace("temperature = 3.0e5\n", "")
        with pytest.raises(ConfigError, match="missing required key 'temperature'"):
            load_config(write_config(tmp_path, text))

    def test_error_cites_file_and_line(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG + "mystery = 9\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:9"):
            load_config(path)

    def test_missing_circuit_file_names_resolved_path(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG.replace("bell.qc", "gone.qc"))
        with pytest.raises(ConfigError, match="circuit file not found") as err:
            load_config(path)
        assert str(tmp_path / "gone.qc") in str(err.value)

    def test_bipartition_needs_two_spins(self, tmp_path):
        path = tmp_path / "one.cfg"
        path.write_text(
            "n_spins = 1\nlarmor = 2.0\ntemperature = 1e5\n"
            "molecule_count = 10\nbipartition = 1|2\n"
        )
        with pytest.raises(ConfigError, match="covers 2 spins, expected 1"):
            load_config(str(path))

    def test_observable_checked_without_building_it(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("load_config built an observable matrix")

        monkeypatch.setattr(np, "kron", refuse)
        assert load_config(write_config(tmp_path)).observable == "x"
        spin_text = BASE_CONFIG.replace("observable = x", "observable = z@2")
        assert load_config(write_config(tmp_path, spin_text)).observable == "z@2"
        for bad, fragment in (("z@3", "out of range"), ("z@two", "integer"), ("w@1", "axis")):
            text = BASE_CONFIG.replace("observable = x", f"observable = {bad}")
            with pytest.raises(ConfigError, match=fragment):
                load_config(write_config(tmp_path, text))

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "absent.cfg"))


class TestParseObservable:
    """The observable spec as load_config parses it and keeps it."""

    @staticmethod
    def observable(tmp_path, spec):
        text = BASE_CONFIG.replace("observable = x", f"observable = {spec}")
        return load_config(write_config(tmp_path, text))._observable

    def test_collective(self, tmp_path):
        assert self.observable(tmp_path, "x") == PauliSum(2, "x", (1, 2))

    def test_single_spin(self, tmp_path):
        assert self.observable(tmp_path, "z@2") == PauliSum(2, "z", (2,))

    def test_bad_axis(self, tmp_path):
        with pytest.raises(ConfigError, match="axis"):
            self.observable(tmp_path, "w")

    def test_spin_out_of_range(self, tmp_path):
        with pytest.raises(ConfigError, match="out of range"):
            self.observable(tmp_path, "x@3")

    def test_spin_not_integer(self, tmp_path):
        with pytest.raises(ConfigError, match="integer"):
            self.observable(tmp_path, "x@first")


class TestRenderReport:
    def test_float_gets_17_significant_digits(self):
        assert '"a": 0.10000000000000001' in render_report({"a": 0.1})

    def test_floats_round_trip_exactly(self):
        rng = np.random.default_rng(60)
        values = [float(v) for v in rng.standard_normal(50) * 10.0 ** rng.integers(-8, 8, 50)]
        parsed = json.loads(render_report({"v": values}))
        assert parsed["v"] == values

    def test_scalars(self):
        text = render_report({"i": 3, "t": True, "f": False, "n": None, "s": 'say "hi"\n'})
        parsed = json.loads(text)
        assert parsed == {"i": 3, "t": True, "f": False, "n": None, "s": 'say "hi"\n'}

    def test_numpy_scalars(self):
        text = render_report({"f": np.float64(0.5), "i": np.int64(2), "b": np.bool_(True)})
        assert json.loads(text) == {"f": 0.5, "i": 2, "b": True}

    def test_nested_containers(self):
        report = {"outer": {"inner": [1, [2.5, None], {"deep": "x"}]}}
        assert json.loads(render_report(report)) == report

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            render_report({"bad": math.nan})
        with pytest.raises(ValidationError, match="finite"):
            render_report({"bad": math.inf})

    def test_flat_float_lists_render_like_the_recursion(self):
        """A list of plain floats is joined in one step; a tuple, or a list
        holding numpy floats, takes the per-value recursion.  Same bytes."""
        rng = np.random.default_rng(61)
        values = [float(v) for v in rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)]
        values += [-0.0, 0.0, 1.0, 5e-324, -1.7976931348623157e308, 0.1]
        for report in ({"v": values}, {"a": {"b": [values, [0.5]]}}, [values]):
            recursive = json.loads(json.dumps(report), parse_float=np.float64)
            assert render_report(report) == render_report(recursive)
        assert render_report({"v": values}) == render_report({"v": tuple(values)})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_in_a_float_list_rejected(self, bad):
        with pytest.raises(ValidationError, match=f"^non-finite value {bad!r} in report$"):
            render_report({"v": [0.5, 1.0, bad, 2.0]})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            render_report({"bad": {1, 2}})

    def test_output_ends_with_newline(self):
        assert render_report({}).endswith("\n")


class TestRunSimulate:
    def test_bell_report_contents(self, tmp_path):
        config = load_config(write_config(tmp_path))
        report = run_simulate(config)

        pathways = report["pathways"]
        assert pathways["gate_count"] == 2
        assert pathways["within_tolerance"] is True
        assert pathways["abs_difference"] <= pathways["tolerance"]

        per_state = report["entanglement"]["per_state"]
        assert [entry["initial_eigenstate"] for entry in per_state] == [0, 1, 2, 3]
        for entry in per_state:
            assert abs(entry["entropy_bits"] - 1.0) < 1e-9
            assert entry["schmidt_rank"] == 2 and entry["is_product"] is False

        evolved = report["separability"]["evolved"]
        assert evolved["ppt_holds"] is True and evolved["ppt_conclusive"] is True
        assert evolved["certified_separable"] is True and evolved["min_pt_eigenvalue"] is None
        assert evolved["negativity"] == 0.0
        assert evolved["frobenius_to_mixed"] <= 2e-5
        assert report["sweep"] is None

        written = (tmp_path / "report.json").read_text()
        assert json.loads(written) == report

    def test_config_echo_is_output_independent(self, tmp_path):
        config = load_config(write_config(tmp_path))
        report = run_simulate(config)
        echo = report["config_echo"]
        assert "output_path" not in echo and "base_dir" not in echo
        assert set(echo) == {
            "n_spins", "larmor", "temperature", "molecule_count",
            "circuit_path", "observable", "bipartition", "seed",
        }

    def test_empty_circuit(self, tmp_path):
        config = load_config(write_config(tmp_path, circuit="# no gates\n"))
        report = run_simulate(config)
        assert report["pathways"]["gate_count"] == 0
        # collective x has an all-zero diagonal, so both pathways read 0
        assert report["pathways"]["expectation_sum"] == 0.0
        assert report["pathways"]["expectation_trace"] == 0.0
        for entry in report["entanglement"]["per_state"]:
            assert entry["entropy_bits"] == 0.0 and entry["is_product"] is True

    def test_single_spin_run_skips_bipartite_sections(self, tmp_path):
        (tmp_path / "flip.qc").write_text("X 1\n")
        path = tmp_path / "one.cfg"
        path.write_text(
            "n_spins = 1\nlarmor = 2.0\ntemperature = 1e5\nmolecule_count = 1e4\n"
            "circuit_path = flip.qc\nobservable = z\noutput_path = out.json\n"
        )
        report = run_simulate(load_config(str(path)))
        assert report["entanglement"] is None
        for section in ("initial", "evolved"):
            block = report["separability"][section]
            assert block["min_pt_eigenvalue"] is None
            assert block["ppt_holds"] is None
            assert block["frobenius_to_mixed"] >= 0.0

    @pytest.mark.parametrize(
        "drop,fragment",
        [
            ("circuit_path = bell.qc\n", "needs circuit_path"),
            ("observable = x\n", "needs observable"),
            ("bipartition = 1|2\n", "needs bipartition"),
        ],
    )
    def test_missing_simulate_inputs(self, tmp_path, drop, fragment):
        config = load_config(write_config(tmp_path, BASE_CONFIG.replace(drop, "")))
        with pytest.raises(ConfigError, match=fragment):
            run_simulate(config)

    def test_no_output_target_is_an_error(self, tmp_path):
        text = BASE_CONFIG.replace("output_path = report.json\n", "")
        config = load_config(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="no output path"):
            run_simulate(config)

    def test_explicit_output_beats_config(self, tmp_path):
        config = load_config(write_config(tmp_path))
        target = tmp_path / "elsewhere.json"
        run_simulate(config, output_path=str(target))
        assert target.exists()
        assert not (tmp_path / "report.json").exists()

    def test_product_state_entropies_are_positive_zero(self, tmp_path):
        config = load_config(write_config(tmp_path, circuit="H 1\n"))
        report = run_simulate(config)
        for entry in report["entanglement"]["per_state"]:
            assert entry["is_product"] is True
            assert math.copysign(1.0, entry["entropy_bits"]) == 1.0 and entry["entropy_bits"] == 0.0
        text = (tmp_path / "report.json").read_text()
        assert text.count('"entropy_bits": 0,') == 4 and '"entropy_bits": -0' not in text
        assert "entropy range 0.000000..0.000000 bits" in "\n".join(summary_lines(report))

    def test_observable_is_built_once(self, tmp_path, monkeypatch):
        """load_config builds the PauliSum to check the spec, and simulate
        reuses it: one PauliSum is constructed per command."""
        built = []
        original = PauliSum.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(PauliSum, "__post_init__", counting)
        assert main(["simulate", "--config", write_config(tmp_path)]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize(
        "command,observable", [("simulate", "x"), ("simulate", "y@2"), ("sweep", None)]
    )
    def test_no_dense_observable_is_built(self, tmp_path, monkeypatch, command, observable):
        """The pathways read a PauliSum term by term: no 2**N x 2**N
        observable is embedded from its spin operators."""

        def refuse(*args):
            raise AssertionError("a dense observable was built")

        monkeypatch.setattr(np, "kron", refuse)
        if command == "simulate":
            text = BASE_CONFIG.replace("observable = x", f"observable = {observable}")
            argv = ["simulate", "--config", write_config(tmp_path, text)]
        else:
            config = write_config(tmp_path, BASE_CONFIG + "seed = 3\n")
            argv = ["sweep", "--config", config, "--n", "4"]
        assert main(argv) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert (report["pathways"] or report["sweep"])["within_tolerance"] is True

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_each_gate_matrix_is_built_once(self, tmp_path, monkeypatch, command):
        """The propagator and the trace pathway's two passes run one
        compiled plan per circuit, so each gate's matrix is built and
        checked once."""
        built, circuits = [], []
        build_matrix, build_random = circuit_module._gate_matrix, cli_module.random_circuit

        def counting_matrix(gate):
            built.append(gate)
            return build_matrix(gate)

        def recording(*args, **kwargs):
            circuits.append(build_random(*args, **kwargs))
            return circuits[-1]

        monkeypatch.setattr(circuit_module, "_gate_matrix", counting_matrix)
        monkeypatch.setattr(cli_module, "random_circuit", recording)
        if command == "simulate":
            text = "H 1\nRY 2 0.4\nCNOT 1 2\nCZ 2 1\nSWAP 1 2\n"
            assert main(["simulate", "--config", write_config(tmp_path, circuit=text)]) == 0
            assert len(built) == 5
        else:
            config = write_config(tmp_path, BASE_CONFIG + "seed = 3\n")
            assert main(["sweep", "--config", config, "--n", "4"]) == 0
            assert len(circuits) == 4
            assert len(built) == sum(len(circuit.gates) for circuit in circuits) > 0

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_ensemble_is_built_once(self, tmp_path, monkeypatch, command):
        """load_config builds the ensemble to check the config, and the
        command reuses it."""
        calls = []
        original = cli_module.default_energies

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli_module, "default_energies", counting)
        if command == "simulate":
            argv = ["simulate", "--config", write_config(tmp_path)]
        else:
            argv = ["sweep", "--config", write_config(tmp_path, BASE_CONFIG + "seed = 3\n"), "--n", "2"]
        assert main(argv) == 0
        assert len(calls) == 1

    def test_reports_are_byte_deterministic(self, tmp_path):
        config = load_config(write_config(tmp_path))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_simulate(config, output_path=str(a))
        run_simulate(config, output_path=str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "text,circuit,expected",
        [(BASE_CONFIG, BELL_TEXT, 0), (ONE_SPIN_CONFIG, "H 1\n", 0), (LOW_T_CONFIG, BELL_TEXT, 1)],
        ids=["two-spins", "one-spin", "low-temperature"],
    )
    def test_one_eigendecomposition_per_simulate(self, tmp_path, monkeypatch, text, circuit, expected):
        """A certified simulate needs no LAPACK factorization at all: the
        initial report is read off the populations and the evolved one off
        the separable ball.  Outside the ball, the evolved state is positive
        by construction, so no Cholesky factorization checks it, and its
        partial transpose takes one eigendecomposition."""
        calls = {"eigvalsh": 0, "cholesky": 0}

        def counting(name):
            original = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        assert main(["simulate", "--config", write_config(tmp_path, text, circuit)]) == 0
        assert calls == {"eigvalsh": expected, "cholesky": 0}

    @pytest.mark.parametrize(
        "text,circuit,svd_calls",
        [
            (BASE_CONFIG, "H 1\nRY 2 0.4\nCNOT 1 2\nSWAP 2 1\n", 1),
            (LOW_T_CONFIG, BELL_TEXT, 1),
            (ONE_SPIN_CONFIG, "H 1\nRX 1 0.3\n", 0),
            (BASE_CONFIG + "seed = 3\n", None, 0),
        ],
        ids=["two-spins", "low-temperature", "one-spin", "sweep"],
    )
    def test_one_batched_svd_and_no_dense_unitary_check(
        self, tmp_path, monkeypatch, text, circuit, svd_calls
    ):
        """The Schmidt table of every eigenstate is one batched SVD, and the
        composed propagator is trusted by construction: the package has no
        dense U^dagger U check for a command to run."""
        calls = []
        original = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "spinensemble" or name.startswith("spinensemble.")
        ]
        assert {"spinensemble.cli", "spinensemble.engine", "spinensemble.qlinalg"} <= {
            module.__name__ for module in modules
        }
        for module in modules:
            assert not hasattr(module, "unitary"), module.__name__
        if circuit is None:
            argv = ["sweep", "--config", write_config(tmp_path, text), "--n", "4"]
        else:
            argv = ["simulate", "--config", write_config(tmp_path, text, circuit)]
        assert main(argv) == 0
        assert len(calls) == svd_calls
        if svd_calls:
            assert calls[0][0] == 4  # one matrix per eigenstate

    @pytest.mark.parametrize(
        "command,n_spins", [("simulate", 1), ("simulate", 2), ("simulate", 10), ("sweep", 10)]
    )
    def test_no_command_composes_the_propagator(self, tmp_path, monkeypatch, command, n_spins):
        """Both pathways read only the gate list: with compose_propagator
        refused in every package module that binds it, each command runs
        and its pathways agree."""

        def refuse(*args):
            raise AssertionError("a command composed the propagator")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "spinensemble" and hasattr(module, "compose_propagator"):
                monkeypatch.setattr(module, "compose_propagator", refuse)
        if n_spins == 1:
            path = write_config(tmp_path, ONE_SPIN_CONFIG, "H 1\nRX 1 0.3\n")
        else:
            circuit = f"H 1\nCNOT 1 {n_spins}\nRY 2 0.4\nCZ {n_spins} 1\n"
            path = write_config(tmp_path, spins_config(n_spins) + "seed = 3\n", circuit)
        if command == "simulate":
            argv = ["simulate", "--config", path]
        else:
            argv = ["sweep", "--config", path, "--n", "2"]
        assert main(argv) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert (report["pathways"] or report["sweep"])["within_tolerance"] is True

    @staticmethod
    def simulate_peak(tmp_path, n_spins, axis, cut=None, temperature="3.0e5", suffix=""):
        """The traced peak of a simulate on a 20-gate random circuit and
        then the gates in suffix, in K x K complex arrays, and its evolved
        separability report.  The cut defaults to the two halves of the
        spins."""
        circuit = random_circuit(n_spins, np.random.default_rng(61), min_depth=20, max_depth=20)
        text = (
            spins_config(n_spins, cut)
            .replace("temperature = 3.0e5", f"temperature = {temperature}")
            .replace("observable = x", f"observable = {axis}")
        )
        config = load_config(write_config(tmp_path, text, format_circuit(circuit) + suffix))
        tracemalloc.start()
        try:
            report = run_simulate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (16 * 4**n_spins), report["separability"]["evolved"]

    @classmethod
    def certified_peak(cls, tmp_path, n_spins, axis, cut=None):
        peak, evolved = cls.simulate_peak(tmp_path, n_spins, axis, cut)
        assert evolved["certified_separable"] is True
        return peak

    @pytest.mark.parametrize(
        "axis,cut",
        [("x", None), ("z", None), ("x", "1,3,5,7,9|2,4,6,8")],
        ids=["x", "z", "x-interleaved"],
    )
    def test_certified_run_holds_two_operator_arrays_at_most(self, tmp_path, axis, cut):
        """rho' is the one K x K array a simulate holds: the sum side reads
        the eigenstates block by block from the gate list, never composing
        U, and every gate pass runs in place over 1 MiB column blocks.  At
        N = 9 the peak is one K x K array and two blocks of a quarter each.
        An interleaved cut copies one block for the Schmidt table, where it
        once copied the whole of U (2.0 arrays)."""
        assert self.certified_peak(tmp_path, 9, axis, cut) <= 1.6

    def test_certified_run_holds_one_operator_array_and_its_blocks(self, tmp_path):
        """At N = 10 the two 1 MiB column blocks are an eighth of an array
        between them, and rho' is released before the sum side builds its
        first block: the peak stays near one K x K array and an eighth
        (1.22 arrays if rho' were kept through the sum side)."""
        assert self.certified_peak(tmp_path, 10, "x") <= 1.17

    def test_uncertified_run_holds_rho_and_its_partial_transpose(self, tmp_path):
        """Outside the separable ball the exact report reads rho' as the
        trace side left it, with no checked copy, Hermitian test or
        Cholesky factor beside it: rho' and its partial transpose are the
        peak, where the checked path held about four arrays."""
        # at T = 0.3 the ground level holds 96% of the molecules, and the
        # last two gates entangle them across the cut
        suffix = "H 1\nCNOT 1 9\n"
        peak, evolved = self.simulate_peak(tmp_path, 9, "x", temperature="0.3", suffix=suffix)
        assert evolved["certified_separable"] is False and evolved["ppt_holds"] is False
        assert peak <= 2.5

    def test_exact_report_runs_with_no_block_held(self, tmp_path):
        """The exact report runs once the stream is spent, after the trace
        side and the reader have dropped the last block: at N = 9, where a
        block is a quarter of an array, rho' and its partial transpose
        are the peak (2.26 arrays with the last block still held)."""
        suffix = "H 1\nCNOT 1 9\n"
        peak, evolved = self.simulate_peak(tmp_path, 9, "x", temperature="0.3", suffix=suffix)
        assert evolved["certified_separable"] is False
        assert peak < 2.1

    def test_low_temperature_bell_average_is_npt(self, tmp_path):
        """H 1; CNOT 1 2 maps the eigenstates onto the Bell states, so the
        evolved state is Bell-diagonal with weights p_k; its partial
        transpose has smallest eigenvalue 1/2 - max p_k."""
        report = run_simulate(load_config(write_config(tmp_path, LOW_T_CONFIG)))
        probabilities = np.array(report["ensemble"]["populations"]) / 1.0e6
        initial = report["separability"]["initial"]
        evolved = report["separability"]["evolved"]
        assert initial["certified_separable"] is True
        assert initial["min_pt_eigenvalue"] == probabilities.min()
        assert evolved["certified_separable"] is False and evolved["ppt_holds"] is False
        assert abs(evolved["min_pt_eigenvalue"] - (0.5 - probabilities.max())) < 1e-14
        assert evolved["negativity"] > 0.3
        assert "evolved ensemble state: NPT" in "\n".join(summary_lines(report))


def test_both_callers_spend_rho_before_the_first_eigenstate_block(tmp_path, monkeypatch):
    """engine._pathways fixes one order for compare_pathways and simulate:
    rho''s stream is spent before the first block of eigenstates is drawn.
    In simulate the separability reader has then made both reports, the
    exact one included, so no eigenstate block exists beside its K x K copy
    of rho'.  At N = 9 each stream has four blocks."""
    n_spins = 9
    events, reports_made = [], []

    def recorded(name, source):
        def blocks(*args):
            for start, block in source(*args):
                events.append((name, start, [len(made) for made in reports_made]))
                yield start, block
            events.append((name, "spent", [len(made) for made in reports_made]))

        return blocks

    def capturing(blocks, probabilities, part, reports):
        reports_made.append(reports)
        return reader(blocks, probabilities, part, reports)

    reader = cli_module._with_separability
    sources = {"rho": engine_module._evolved_blocks, "eigen": engine_module._eigenstate_blocks}
    for module in (engine_module, cli_module):
        monkeypatch.setattr(module, "_evolved_blocks", recorded("rho", sources["rho"]))
        monkeypatch.setattr(module, "_eigenstate_blocks", recorded("eigen", sources["eigen"]))
    monkeypatch.setattr(cli_module, "_with_separability", capturing)
    circuit = random_circuit(n_spins, np.random.default_rng(61), min_depth=20, max_depth=20)
    config = load_config(
        write_config(
            tmp_path,
            spins_config(n_spins).replace("temperature = 3.0e5", "temperature = 0.3"),
            format_circuit(circuit),
        )
    )
    starts = list(range(0, 2**n_spins, 128))

    compare_pathways(circuit, config._ensemble, [config._observable])
    expected = [(name, start, []) for name in ("rho", "eigen") for start in starts + ["spent"]]
    assert events == expected

    events.clear()
    report = run_simulate(config)
    assert report["separability"]["evolved"]["min_pt_eigenvalue"] is not None
    rho = [("rho", start, [0]) for start in starts + ["spent"]]
    eigen = [("eigen", start, [2]) for start in starts + ["spent"]]
    assert events == rho + eigen


class TestRunSweep:
    def make_config(self, tmp_path, extra="seed = 7\n"):
        text = (
            "n_spins = 2\nlarmor = 2.0, 1.0\ntemperature = 3.0e5\n"
            "molecule_count = 1.0e6\noutput_path = sweep.json\n" + extra
        )
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        return load_config(str(path))

    def test_requires_seed(self, tmp_path):
        config = self.make_config(tmp_path, extra="")
        with pytest.raises(ConfigError, match="needs seed"):
            run_sweep(config, 3)

    def test_negative_count_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="nonnegative"):
            run_sweep(self.make_config(tmp_path), -1)

    def test_sweep_reads_no_separability(self, tmp_path, monkeypatch):
        """Only simulate reports separability: neither compare_pathways nor
        a sweep sums rho''s purity or distance, and the engine holds no
        reference to the sums."""

        def refuse(block, start):
            raise AssertionError("separability sums read outside simulate")

        monkeypatch.setattr(entanglement_module, "_distance_sums", refuse)
        assert not hasattr(engine_module, "_distance_sums")
        config = self.make_config(tmp_path)
        circuit = random_circuit(2, np.random.default_rng(3), 20, 20)
        observables = [PauliSum.collective(2, axis) for axis in "xyz"]
        results = compare_pathways(circuit, config._ensemble, observables)
        assert all(r.abs_difference <= 1e-10 * 1.0e6 for r in results)
        assert run_sweep(config, 3)["sweep"]["within_tolerance"] is True

    def test_empty_sweep(self, tmp_path):
        report = run_sweep(self.make_config(tmp_path), 0)
        sweep = report["sweep"]
        assert sweep["n_circuits"] == 0
        assert sweep["per_circuit_max_difference"] == []
        assert sweep["max_abs_difference"] is None
        assert sweep["within_tolerance"] is None
        assert sweep["worst_case"] is None
        assert (tmp_path / "sweep.json").exists()

    def test_small_sweep_passes_and_reports_worst_case(self, tmp_path):
        report = run_sweep(self.make_config(tmp_path), 6)
        sweep = report["sweep"]
        assert sweep["within_tolerance"] is True
        assert len(sweep["per_circuit_max_difference"]) == 6
        assert sweep["max_abs_difference"] == max(sweep["per_circuit_max_difference"])
        worst = sweep["worst_case"]
        assert 0 <= worst["circuit_index"] < 6
        assert worst["observable"] in ("collective x", "collective y", "collective z")
        assert worst["abs_difference"] == sweep["max_abs_difference"]

    def test_same_seed_same_bytes(self, tmp_path):
        config = self.make_config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_sweep(config, 4, output_path=str(a))
        run_sweep(config, 4, output_path=str(b))
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def sweep_peak(tmp_path, n_spins, n_circuits):
        """The traced peak of a sweep, in K x K complex arrays."""
        path = tmp_path / "sweep.cfg"
        path.write_text(
            f"n_spins = {n_spins}\nlarmor = {', '.join(map(str, range(1, n_spins + 1)))}\n"
            "temperature = 3.0e5\nmolecule_count = 1.0e6\noutput_path = sweep.json\nseed = 5\n"
        )
        config = load_config(str(path))
        tracemalloc.start()
        try:
            report = run_sweep(config, n_circuits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["sweep"]["within_tolerance"] is True
        return peak / (16 * 4**n_spins)

    def test_holds_two_operator_arrays_at_most(self, tmp_path):
        """Each circuit's rho' is read and released before its U is
        composed, so a sweep never holds U and rho' together, and every
        gate pass runs in place over 1 MiB column blocks: at N = 9 the peak
        is one K x K array and two blocks of a quarter each."""
        assert self.sweep_peak(tmp_path, 9, 20) <= 1.6

    def test_holds_one_operator_array_and_its_blocks(self, tmp_path):
        """At N = 10 the two column blocks are an eighth of an array."""
        assert self.sweep_peak(tmp_path, 10, 5) <= 1.25


class TestSummaryLines:
    def test_simulate_summary(self, tmp_path):
        report = run_simulate(load_config(write_config(tmp_path)))
        lines = summary_lines(report)
        assert 8 <= len(lines) <= 12
        text = "\n".join(lines)
        assert "pathway agreement" in text
        assert "entangled: yes" in text
        assert "evolved ensemble state: separable (certified, every cut)" in text

    def test_sweep_summary(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "n_spins = 2\nlarmor = 2.0, 1.0\ntemperature = 3.0e5\n"
            "molecule_count = 1.0e6\noutput_path = s.json\nseed = 3\n"
        )
        report = run_sweep(load_config(str(path)), 3)
        text = "\n".join(summary_lines(report))
        assert "sweep: 3 random circuit(s), seed 3" in text
        assert "sweep max |sum - trace|" in text


class TestMainExitCodes:
    def test_simulate_success(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["simulate", "--config", path]) == 0
        assert (tmp_path / "report.json").exists()
        assert capsys.readouterr().err == ""

    def test_summary_flag_prints(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["simulate", "--config", path, "--summary"]) == 0
        out = capsys.readouterr().out
        assert "pathway agreement" in out

    def test_output_flag(self, tmp_path):
        path = write_config(tmp_path)
        target = tmp_path / "custom.json"
        assert main(["simulate", "--config", path, "--output", str(target)]) == 0
        assert target.exists()

    def test_sweep_success(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG + "seed = 11\n")
        assert main(["sweep", "--config", path, "--n", "2"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["simulate"],
            ["sweep", "--config", "x.cfg"],
            ["simulate", "--config", "x.cfg", "--ball-radius", "-1"],
        ],
    )
    def test_usage_errors_exit_1(self, argv, capsys, tmp_path):
        if "--ball-radius" in argv:
            argv = ["simulate", "--config", write_config(tmp_path), "--ball-radius", "-1"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_subnormal_molecule_count_exits_1(self, tmp_path, capsys):
        """At M = 5e-324 the populations are [5e-324, 0, 0, 0]: p would
        describe a pure |00> and the report a distance of 0.866, where M = 1
        gives 0.479.  The run is refused instead."""
        text = BASE_CONFIG.replace("temperature = 3.0e5", "temperature = 1")
        text = text.replace("molecule_count = 1.0e6", "molecule_count = 5e-324")
        path = write_config(tmp_path, text)
        assert main(["simulate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err == "error: molecule_count 5e-324 is subnormal\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_ball_radius_exits_1_and_keeps_report(self, tmp_path, capsys, source, radius):
        """The ball_radius key and the --ball-radius flag are gone: the
        separable ball's radius is built in.  Either one is now an unknown
        key or argument."""
        path = write_config(tmp_path)
        assert main(["simulate", "--config", path]) == 0
        report = tmp_path / "report.json"
        before = report.read_bytes()
        capsys.readouterr()
        if source == "flag":
            argv = ["simulate", "--config", path, "--ball-radius", radius]
        else:
            text = BASE_CONFIG + f"ball_radius = {radius}\n"
            argv = ["simulate", "--config", write_config(tmp_path, text)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        expected = "unrecognized arguments" if source == "flag" else "unknown key 'ball_radius'"
        assert expected in err
        assert report.read_bytes() == before

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "none.cfg")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_circuit_parse_error_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, circuit="h 1\n")
        assert main(["simulate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "unknown gate name" in err

    def test_validation_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def explode(config, output_path=None):
            raise ValidationError("numeric check failed")

        monkeypatch.setattr("spinensemble.cli.run_simulate", explode)
        path = write_config(tmp_path)
        assert main(["simulate", "--config", path]) == 2
        assert "validation error: numeric check failed" in capsys.readouterr().err

    @pytest.mark.parametrize("role,name", [("config", "run.cfg"), ("circuit", "bell.qc")])
    def test_non_utf8_file_exits_1_and_keeps_report(self, tmp_path, capsys, role, name):
        path = write_config(tmp_path)
        assert main(["simulate", "--config", path]) == 0
        report = tmp_path / "report.json"
        before = report.read_bytes()
        capsys.readouterr()
        bad = tmp_path / name
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        assert main(["simulate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot read {role} {bad}: 'utf-8' codec can't decode")
        assert report.read_bytes() == before

    def test_trace_imaginary_residual_exits_2_and_keeps_report(
        self, tmp_path, capsys, monkeypatch
    ):
        path = write_config(tmp_path)
        assert main(["simulate", "--config", path]) == 0
        report = tmp_path / "report.json"
        before = report.read_bytes()
        capsys.readouterr()
        original = engine_module._evolved_blocks

        def skewed(circuit, ensemble):
            for start, block in original(circuit, ensemble):
                if start == 0:
                    block[0, 1] += 1e-9j  # with rho[1, 0], tr(rho' x) gains 1e-9 i
                    block[1, 0] += 1e-9j
                yield start, block

        monkeypatch.setattr(cli_module, "_evolved_blocks", skewed)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        message = "validation error: trace expectation has imaginary residual 1.000e-09"
        assert err.splitlines() == [message]
        assert report.read_bytes() == before

    def test_unnormalized_propagator_exits_2_and_keeps_report(
        self, tmp_path, capsys, monkeypatch
    ):
        """The sum side runs after the trace side has finished; evolved
        eigenstates that fail the Schmidt table's normalisation check still
        exit 2."""
        path = write_config(tmp_path)
        assert main(["simulate", "--config", path]) == 0
        report = tmp_path / "report.json"
        before = report.read_bytes()
        capsys.readouterr()
        rescale_blocks(monkeypatch, lambda start, block: 1.01 * block)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("validation error: evolved eigenstate 0 is not normalized")
        assert report.read_bytes() == before

    def test_unnormalized_eigenstate_in_a_later_block_is_named(
        self, tmp_path, capsys, monkeypatch
    ):
        """At N = 10 the eigenstates come in 16 blocks of 64; a bad column
        in the eleventh block is named by its global eigenstate index."""

        def scale(start, block):
            if start <= 700 < start + block.shape[1]:
                block[:, 700 - start] *= 1.01
            return block

        path = write_config(tmp_path, spins_config(10), "H 1\nCNOT 1 10\nRY 2 0.4\n")
        rescale_blocks(monkeypatch, scale)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("validation error: evolved eigenstate 700 is not normalized")
        assert not (tmp_path / "report.json").exists()

    def test_config_error_message_is_actionable(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG.replace("observable = x", "observable = k"))
        assert main(["simulate", "--config", path]) == 1
        assert "axis must be x, y, or z" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where,fragment",
        [
            ("observable", "observable spin of 5000 digits is too long"),
            ("circuit", "line 1: spin index of 5000 digits is too long"),
            ("output_path", "run.cfg:8: NUL character in value for 'output_path'"),
            ("n_spins", "error: n_spins of 5000 digits is too long"),
            ("seed", "error: seed of 5000 digits is too long"),
            ("bipartition", "error: bipartition spin of 5000 digits is too long"),
            ("--n", "error: argument --n: circuit count of 5000 digits is too long"),
        ],
    )
    def test_unconvertible_value_exits_1_with_one_line(self, tmp_path, capsys, where, fragment):
        """An integer of more digits than the interpreter converts, wherever
        one is read, and an output path that holds a NUL character are input
        errors, not tracebacks, and the one line they print is short."""
        digits = "1" * 5000
        text = {
            "observable": BASE_CONFIG.replace("observable = x", "observable = x@" + digits),
            "output_path": BASE_CONFIG.replace("= report.json", "= re\0port.json"),
            "n_spins": BASE_CONFIG.replace("n_spins = 2", "n_spins = " + digits),
            "seed": BASE_CONFIG + "seed = " + digits + "\n",
            "bipartition": BASE_CONFIG.replace("bipartition = 1|2", "bipartition = 1|2, " + digits),
        }.get(where, BASE_CONFIG + "seed = 7\n")
        circuit = "H " + digits + "\n" if where == "circuit" else BELL_TEXT
        argv = ["sweep", "--n", digits] if where == "--n" else ["simulate"]
        assert main([*argv, "--config", write_config(tmp_path, text, circuit)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert len(err) <= ERROR_CAP + 1
        assert fragment in err and "Traceback" not in err
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize(
        "option,name,fragment",
        [
            ("--config", "a\0b", "error: argument --config: NUL character in path"),
            ("--output", "r\0.json", "error: argument --output: NUL character in path"),
            ("--config", "a\nb", "error: cannot read config "),
        ],
    )
    def test_path_argument_exits_1_with_one_line(self, tmp_path, capsys, option, name, fragment):
        """A NUL character, which no path holds, and a newline, which the
        message would otherwise carry onto a second line."""
        argv = ["simulate", "--config", write_config(tmp_path)]
        argv += [option, str(tmp_path / name)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and len(err) <= ERROR_CAP + 1
        assert err.startswith(fragment) and "Traceback" not in err
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("temperature = 3.0e5", "temperature = 1_0", "temperature must be a number, got '1_0'"),
            ("larmor = 2.0, 1.0", "larmor = 2.0, \u0661", "larmor entry must be a number, got '\u0661'"),
        ],
    )
    def test_real_outside_ascii_or_with_underscore_exits_1(
        self, tmp_path, capsys, old, new, message
    ):
        """float() reads '1_0' as 10.0 and Arabic-Indic digits as digits;
        a config real is refused as an integer would be."""
        text = BASE_CONFIG.replace(old, new)
        assert main(["simulate", "--config", write_config(tmp_path, text)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: " + message]
        assert not list(tmp_path.glob("*.json"))

    def test_long_message_is_cut_to_the_cap(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("temperature = 3.0e5", "temperature = " + "warm" * 500)
        assert main(["simulate", "--config", write_config(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: temperature must be a number, got 'warmwarm")
        assert err.endswith("...\n") and len(err) == ERROR_CAP + 1

    def test_non_unitary_gate_exits_2(self, tmp_path, capsys, monkeypatch):
        skewed = np.array([[1, 1], [0, 1]], dtype=complex)
        monkeypatch.setitem(circuit_module._FIXED_1Q, "H", skewed)
        path = write_config(tmp_path)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: matrix is not unitary")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "report.json").exists()

    def test_non_unitary_rotation_exits_2(self, tmp_path, capsys, monkeypatch):
        skewed = np.array([[1, 0.5], [0, 1]], dtype=complex)
        monkeypatch.setattr(circuit_module, "_rotation_matrix", lambda kind, angle: skewed)
        path = write_config(tmp_path, circuit="H 1\nRY 2 0.3\nCNOT 1 2\n")
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: matrix is not unitary")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "report.json").exists()

    def test_two_spin_gate_that_is_not_a_signed_permutation_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        hadamard = circuit_module._FIXED_1Q["H"]
        monkeypatch.setitem(circuit_module._FIXED_2Q, "CZ", np.kron(hadamard, hadamard))
        path = write_config(tmp_path, circuit="H 1\nCZ 1 2\n")
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: a two-spin gate must permute")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "error",
        [np.linalg.LinAlgError("Eigenvalues did not converge"), MemoryError("Unable to allocate")],
    )
    def test_linear_algebra_failure_exits_2_and_keeps_report(
        self, tmp_path, capsys, monkeypatch, error
    ):
        path = write_config(tmp_path, LOW_T_CONFIG)
        assert main(["simulate", "--config", path]) == 0
        report = tmp_path / "report.json"
        before = report.read_bytes()
        names_before = sorted(os.listdir(tmp_path))
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"numeric error: {type(error).__name__}: {error}"]
        assert report.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == names_before


class TestFailedRunKeepsReport:
    """A run that fails, before or after the numerics, must leave an
    earlier report intact."""

    @staticmethod
    def rerun(tmp_path, capsys, monkeypatch, text, **patches):
        """The exit code and stderr lines of a simulate on config text, with
        warnings raised as errors and the cli names in patches replaced, run
        after a good simulate whose report it must leave as it was."""
        path = write_config(tmp_path)
        assert main(["simulate", "--config", path]) == 0
        report = tmp_path / "report.json"
        before = report.read_bytes()
        names_before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        write_config(tmp_path, text)
        for name, replacement in patches.items():
            monkeypatch.setattr(cli_module, name, replacement)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--config", path])
        assert report.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == names_before
        return code, capsys.readouterr().err.splitlines()

    @staticmethod
    def refuse(*args):
        raise AssertionError("the run went further than it should")

    def test_overflowing_temperature_keeps_earlier_report(self, tmp_path, capsys, monkeypatch):
        """At T = 1e-320, epsilon = spread / T overflows: the ensemble
        refuses it, so the config is refused naming the temperature, before
        the circuit is read."""
        text = BASE_CONFIG.replace("temperature = 3.0e5", "temperature = 1e-320")
        assert self.rerun(tmp_path, capsys, monkeypatch, text, parse_circuit=self.refuse) == (
            1,
            ["error: temperature 1e-320 is too small: epsilon = spread / T overflows"],
        )

    def test_overflowing_level_spread_keeps_earlier_report(self, tmp_path, capsys, monkeypatch):
        """Larmor frequencies 1e308, 1e308 give finite level energies whose
        spread max - min = 2e308 overflows: the config is refused naming
        larmor, before the circuit is read."""
        text = BASE_CONFIG.replace("larmor = 2.0, 1.0", "larmor = 1e308, 1e308").replace(
            "temperature = 3.0e5", "temperature = 1"
        )
        assert self.rerun(tmp_path, capsys, monkeypatch, text, parse_circuit=self.refuse) == (
            1,
            ["error: larmor frequencies and sum |w| must be finite, got inf"],
        )

    def test_failed_render_keeps_earlier_report(self, tmp_path, capsys, monkeypatch):
        """A report that fails to render after the numerics, as one holding
        a non-finite value would, exits 2."""

        def fail(report):
            raise ValidationError("non-finite value inf in report")

        assert self.rerun(tmp_path, capsys, monkeypatch, BASE_CONFIG, render_report=fail) == (
            2,
            ["validation error: non-finite value inf in report"],
        )


TEN_SPIN_CIRCUIT = """\
H 1
CNOT 1 6
RY 2 0.7
CNOT 2 7
H 3
CZ 3 8
RX 4 1.3
CNOT 4 9
T 5
H 5
SWAP 5 10
RZ 6 0.4
H 7
CNOT 7 2
RY 8 2.1
S 9
CNOT 10 5
H 10
RX 6 0.9
CZ 1 10
"""

class TestThreadCountIndependence:
    """Report bytes do not depend on the BLAS thread count.  The certified
    report runs no eigendecomposition, whose last digits would; every
    other reduction runs in numpy's own loops."""

    def test_ten_spin_report_at_one_and_two_threads(self, tmp_path):
        (tmp_path / "ten.qc").write_text(TEN_SPIN_CIRCUIT)
        config = tmp_path / "ten.cfg"
        config.write_text(
            "n_spins = 10\n"
            "larmor = 2.9, 2.6, 2.3, 2.1, 1.8, 1.5, 1.3, 1.1, 0.8, 0.6\n"
            "temperature = 3.0e5\nmolecule_count = 1.0e6\ncircuit_path = ten.qc\n"
            "observable = x\nbipartition = 1,2,3,4,5|6,7,8,9,10\n"
        )
        runs = {}
        for threads in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
            )
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[name] = threads
            output = tmp_path / f"threads{threads}.json"
            argv = ["simulate", "--config", str(config), "--output", str(output)]
            runs[threads] = (subprocess.Popen([sys.executable, "-m", "spinensemble", *argv], env=env), output)
        for proc, _ in runs.values():
            assert proc.wait(timeout=300) == 0
        one, two = (output.read_text().splitlines() for _, output in runs.values())
        assert '      "certified_separable": true,' in one[one.index('    "evolved": {'):]
        assert [i for i, (a, b) in enumerate(zip(one, two)) if a != b] == []
        assert len(one) == len(two)


class TestReportReplacement:
    """The report replaces its target in one step, keeping what a rewrite keeps."""

    def test_existing_report_keeps_its_mode(self, tmp_path):
        path = write_config(tmp_path)
        report = tmp_path / "report.json"
        report.write_text("old\n")
        report.chmod(0o640)
        assert main(["simulate", "--config", path]) == 0
        assert report.stat().st_mode & 0o7777 == 0o640
        assert json.loads(report.read_text())["pathways"]["within_tolerance"] is True

    def test_symlinked_target_is_written_through(self, tmp_path):
        path = write_config(tmp_path)
        real = tmp_path / "reports" / "real.json"
        real.parent.mkdir()
        real.write_text("old\n")
        link = tmp_path / "report.json"
        link.symlink_to(real)
        assert main(["simulate", "--config", path]) == 0
        assert link.is_symlink()
        assert json.loads(real.read_text())["pathways"]["within_tolerance"] is True
        assert sorted(os.listdir(real.parent)) == ["real.json"]

    def test_failed_write_names_the_target(self, tmp_path, capsys):
        """Not the temporary file beside it, whose name holds the process id."""
        target = tmp_path / "missing" / "r.json"
        assert main(["simulate", "--config", write_config(tmp_path), "--output", str(target)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"
        assert sorted(os.listdir(tmp_path)) == ["bell.qc", "run.cfg"]


OUTPUT = "temperature = 3.0e5\nmolecule_count = 1.0e6\noutput_path = report.json\n"

# (command, config text, circuit text for simulate or circuit count for sweep)
VERDICT_CASES = {
    "bell": ("simulate", BASE_CONFIG, BELL_TEXT),
    "one-spin": ("simulate", ONE_SPIN_CONFIG, "H 1\n"),
    "ten-spin": (
        "simulate",
        "n_spins = 10\nlarmor = 2.9, 2.6, 2.3, 2.1, 1.8, 1.5, 1.3, 1.1, 0.8, 0.6\n"
        "circuit_path = bell.qc\nobservable = x\nbipartition = 1,2,3,4,5|6,7,8,9,10\n" + OUTPUT,
        TEN_SPIN_CIRCUIT,
    ),
    "sweep-two": ("sweep", "n_spins = 2\nlarmor = 2.0, 1.0\nseed = 7\n" + OUTPUT, 6),
    "three-spin": (
        "simulate",
        "n_spins = 3\nlarmor = 2.7, 1.6, 0.9\ncircuit_path = bell.qc\nobservable = y@2\n"
        "bipartition = 1|2,3\n" + OUTPUT,
        "RX 1 0.5\nRY 2 0.5\nCNOT 3 2\nRY 2 0.5\nCZ 1 2\n",
    ),
    "six-spin": (
        "simulate",
        "n_spins = 6\nlarmor = 2.9, 2.4, 1.9, 1.5, 1.1, 0.7\ncircuit_path = bell.qc\n"
        "observable = z\nbipartition = 1,2,3|4,5,6\n" + OUTPUT,
        "H 2\nRX 5 5.8196943314269065\nSWAP 4 5\nH 5\nCNOT 2 6\nSWAP 6 5\nCZ 1 5\n"
        "RY 2 3.0292060382260737\nZ 1\nRY 6 2.9493651109832024\nRZ 3 3.5173023363995277\nS 5\n"
        "SWAP 6 5\nRY 4 2.721039153009213\nS 3\nH 1\nY 6\n",
    ),
    "sweep-five": (
        "sweep", "n_spins = 5\nlarmor = 2.5, 2.0, 1.5, 1.0, 0.5\nseed = 55\n" + OUTPUT, 8
    ),
    "sweep-seven": (
        "sweep", "n_spins = 7\nlarmor = 2.8, 2.5, 2.1, 1.7, 1.3, 0.9, 0.6\nseed = 77\n" + OUTPUT, 5
    ),
}

# Taken from the release before the Pauli-sum kernels; certified_separable,
# added with the separable ball, replaced the verdicts against a caller's
# ball radius.
PINNED_VERDICTS = {
    "bell": {
        "within_tolerance": True,
        "initial.ppt_holds": True,
        "initial.ppt_conclusive": True,
        "initial.certified_separable": True,
        "evolved.ppt_holds": True,
        "evolved.ppt_conclusive": True,
        "evolved.certified_separable": True,
        "schmidt_rank": [[2, 4]],
        "is_product": [[False, 4]],
    },
    "one-spin": {
        "within_tolerance": True,
        "initial.ppt_holds": None,
        "initial.ppt_conclusive": None,
        "initial.certified_separable": None,
        "evolved.ppt_holds": None,
        "evolved.ppt_conclusive": None,
        "evolved.certified_separable": None,
    },
    "six-spin": {
        "within_tolerance": True,
        "initial.ppt_holds": True,
        "initial.ppt_conclusive": False,
        "initial.certified_separable": True,
        "evolved.ppt_holds": True,
        "evolved.ppt_conclusive": False,
        "evolved.certified_separable": True,
        "schmidt_rank": [[2, 64]],
        "is_product": [[False, 64]],
    },
    "sweep-five": {
        "within_tolerance": True,
    },
    "sweep-seven": {
        "within_tolerance": True,
    },
    "sweep-two": {
        "within_tolerance": True,
    },
    "ten-spin": {
        "within_tolerance": True,
        "initial.ppt_holds": True,
        "initial.ppt_conclusive": False,
        "initial.certified_separable": True,
        "evolved.ppt_holds": True,
        "evolved.ppt_conclusive": False,
        "evolved.certified_separable": True,
        "schmidt_rank": [[16, 1024]],
        "is_product": [[False, 1024]],
    },
    "three-spin": {
        "within_tolerance": True,
        "initial.ppt_holds": True,
        "initial.ppt_conclusive": False,
        "initial.certified_separable": True,
        "evolved.ppt_holds": True,
        "evolved.ppt_conclusive": False,
        "evolved.certified_separable": True,
        "schmidt_rank": [[2, 1], [1, 1], [2, 1], [1, 1]] * 2,
        "is_product": [[False, 1], [True, 1], [False, 1], [True, 1]] * 2,
    },
}


def runs(values: list) -> list:
    """Run-length form of a per-state list: [[value, count], ...]."""
    encoded = []
    for value in values:
        if encoded and encoded[-1][0] == value:
            encoded[-1][1] += 1
        else:
            encoded.append([value, 1])
    return encoded


def report_verdicts(report: dict) -> dict:
    """Every verdict field of a report, keyed by where it sits."""
    verdicts = {}
    if report["pathways"] is not None:
        verdicts["within_tolerance"] = report["pathways"]["within_tolerance"]
    if report["sweep"] is not None:
        verdicts["within_tolerance"] = report["sweep"]["within_tolerance"]
    if report["separability"] is not None:
        for stage, section in report["separability"].items():
            for field in ("ppt_holds", "ppt_conclusive", "certified_separable"):
                verdicts[f"{stage}.{field}"] = section[field]
    if report["entanglement"] is not None:
        per_state = report["entanglement"]["per_state"]
        verdicts["schmidt_rank"] = runs([entry["schmidt_rank"] for entry in per_state])
        verdicts["is_product"] = runs([entry["is_product"] for entry in per_state])
    return verdicts


class TestPinnedVerdicts:
    """Changes to the numerics may move last digits of a report but must
    never flip a verdict; the pinned values come from an earlier release."""

    @pytest.mark.parametrize("name", sorted(VERDICT_CASES))
    def test_verdicts_are_unchanged(self, tmp_path, name):
        command, text, circuit = VERDICT_CASES[name]
        if command == "simulate":
            argv = ["simulate", "--config", write_config(tmp_path, text, circuit)]
        else:
            argv = ["sweep", "--config", write_config(tmp_path, text), "--n", str(circuit)]
        assert main(argv) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report_verdicts(report) == PINNED_VERDICTS[name]
