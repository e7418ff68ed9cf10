"""Command-line driver: configs in, deterministic reports out.

Configs are flat key = value text ('#' comments).  Keys: n_spins, larmor,
temperature, molecule_count, circuit_path, observable, bipartition, seed,
output_path.  Relative paths inside a config resolve against the config
file's directory; a path given on the command line resolves against the
working directory.

Both commands share one frame: _report_target makes every refusal of
the config and the output target before any circuit work, and
_write_report builds the fixed section layout (config_echo, ensemble,
pathways, entanglement, separability, sweep; unused sections are null)
and writes it in one step.  Floats are printed with 17 significant
digits, so a report is a byte-deterministic function of config, circuit
text, and seed.  No timestamps, no environment echo.

The observable spec names a PauliSum, the collective or one spin's
magnetisation, which the pathways read term by term: neither command
builds a 2**N x 2**N observable matrix.

Exit codes: 0 success, 1 usage or config or parse trouble, 2 numeric
validation failure such as a non-unitary gate matrix, or a linear-algebra
routine that fails or runs out of memory.  A failure prints one stderr
line of at most ERROR_CAP characters.  Every integer and real read from
a config, circuit, cut or the command line goes through qlinalg's
_read_int or _read_real.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParseError, format_circuit, parse_circuit, random_circuit
from .engine import (
    _eigenstate_blocks,
    _evolved_blocks,
    _pathway_tolerance,
    _pathways,
    _within_tolerance,
    compare_pathways,
)
from .entanglement import _schmidt_table, _with_separability
from .qlinalg import BipartitionSpec, ValidationError, _read_int, _read_real
from .spin_system import (
    PauliSum,
    SpinSystem,
    ThermalEnsemble,
    default_energies,
    epsilon_report,
)

SWEEP_AXES = ("x", "y", "z")
ERROR_CAP = 400  # characters in the one stderr line of a failed run


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 1."""


class UsageError(ValueError):
    """Bad command line; maps to exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs, as loaded from a config file.

    base_dir anchors the relative paths named inside the config.
    """

    n_spins: int
    larmor: tuple[float, ...]
    temperature: float
    molecule_count: float
    circuit_path: str | None = None
    observable: str | None = None
    bipartition: str | None = None
    seed: int | None = None
    output_path: str | None = None
    base_dir: str = "."

    def resolve(self, path: str) -> str:
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)

    @functools.cached_property
    def _ensemble(self) -> ThermalEnsemble:
        """build_ensemble(self), built once: load_config builds it to check
        the values, and the commands reuse it."""
        return build_ensemble(self)

    @functools.cached_property
    def _observable(self) -> PauliSum | None:
        """The observable spec as a PauliSum, built once like _ensemble: 'x'
        means the collective x observable, 'x@2' spin 2's alone."""
        if self.observable is None:
            return None
        axis, at, spin_text = (part.strip() for part in self.observable.partition("@"))
        if not at:
            return PauliSum.collective(self.n_spins, axis)
        return PauliSum(self.n_spins, axis, (_read_int(spin_text, "observable spin"),))

    @functools.cached_property
    def _bipartition(self) -> BipartitionSpec | None:
        """The cut, parsed once like _ensemble."""
        text = self.bipartition
        return None if text is None else BipartitionSpec.parse(text, self.n_spins)


_KEY_ORDER = tuple(f.name for f in dataclasses.fields(RunConfig) if f.name != "base_dir")
_REQUIRED_KEYS = ("n_spins", "larmor", "temperature", "molecule_count")


def _parse_entries(text: str, label: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{label}:{line_number}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_ORDER:
            raise ConfigError(f"{label}:{line_number}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"{label}:{line_number}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{label}:{line_number}: empty value for {key!r}")
        if "\0" in value:  # no path, number or spec holds one
            raise ConfigError(f"{label}:{line_number}: NUL character in value for {key!r}")
        entries[key] = value
    return entries


def _read_text(path: str, role: str) -> str:
    """The file's UTF-8 text; ConfigError names the file when it cannot be
    read or is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {role} {path}: {exc}") from None


def load_config(path: str) -> RunConfig:
    """Parse and validate a config file; raises ConfigError on any problem."""
    entries = _parse_entries(_read_text(path, "config"), path)
    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ConfigError(f"{path}: missing required key {key!r}")

    larmor_tokens = entries["larmor"].replace(",", " ").split()
    try:
        config = RunConfig(
            n_spins=_read_int(entries["n_spins"], "n_spins"),
            larmor=tuple(_read_real(tok, "larmor entry") for tok in larmor_tokens),
            temperature=_read_real(entries["temperature"], "temperature"),
            molecule_count=_read_real(entries["molecule_count"], "molecule_count"),
            circuit_path=entries.get("circuit_path"),
            observable=entries.get("observable"),
            bipartition=entries.get("bipartition"),
            seed=_read_int(entries["seed"], "seed") if "seed" in entries else None,
            output_path=entries.get("output_path"),
            base_dir=os.path.dirname(os.path.abspath(path)),
        )
        if config.circuit_path is not None:
            resolved = config.resolve(config.circuit_path)
            if not os.path.isfile(resolved):
                raise ConfigError(f"circuit file not found: {resolved}")
        # Other values are checked by the library types built from them,
        # which the commands then reuse.
        config._ensemble  # checks larmor, temperature and molecule_count
        config._observable
        config._bipartition
    except ValidationError as exc:  # a library type's rejection of a value
        raise ConfigError(str(exc)) from None
    return config


def build_ensemble(config: RunConfig) -> ThermalEnsemble:
    system = SpinSystem(config.n_spins, default_energies(config.n_spins, config.larmor))
    return ThermalEnsemble.boltzmann(system, config.temperature, config.molecule_count)


def _report_target(config: RunConfig, command: str, output_path: str | None) -> str:
    """The target of command's report, output_path (--output) before the
    config's.  Every refusal the command makes of its config comes here,
    before any circuit work: a key it needs, no target, or a target in a
    directory that does not exist."""
    needed = ("seed",) if command == "sweep" else ("circuit_path", "observable", "bipartition")
    for key in needed:
        if getattr(config, key) is None and (key != "bipartition" or config.n_spins >= 2):
            suffix = " for 2 or more spins" if key == "bipartition" else ""
            raise ConfigError(f"{command} needs {key} in the config{suffix}")
    if output_path is None:
        if config.output_path is None:
            raise ConfigError("no output path: set output_path in the config or pass --output")
        output_path = config.resolve(config.output_path)
    if not os.path.isdir(os.path.dirname(os.path.realpath(output_path))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), output_path)
    return output_path


def run_simulate(config: RunConfig, output_path: str | None = None) -> dict:
    """Dual-pathway run of one circuit; writes and returns the report."""
    target = _report_target(config, "simulate", output_path)
    circuit_text = _read_text(config.resolve(config.circuit_path), "circuit")
    circuit = parse_circuit(circuit_text, config.n_spins)
    ensemble = config._ensemble
    observable, part = config._observable, config._bipartition

    separability, per_state = [], []
    rho_blocks = _with_separability(
        _evolved_blocks(circuit, ensemble), ensemble.probabilities, part, separability
    )
    eigenstates = _eigenstate_blocks(circuit)
    if part is not None:
        eigenstates = _with_schmidt_rows(eigenstates, part, per_state)
    (result,) = _pathways(rho_blocks, eigenstates, ensemble, [observable])
    initial, evolved = map(dataclasses.asdict, separability)
    return _write_report(
        config, target,
        pathways={
            "gate_count": len(circuit.gates),
            "per_state_values": result.per_state_values.tolist(),
            "expectation_sum": result.expectation_sum,
            "expectation_trace": result.expectation_trace,
            "abs_difference": result.abs_difference,
            "tolerance": _pathway_tolerance(ensemble),
            "within_tolerance": _within_tolerance(result.abs_difference, ensemble),
        },
        entanglement=None if part is None else {"bipartition": str(part), "per_state": per_state},
        separability={"initial": initial, "evolved": evolved},
    )


def _with_schmidt_rows(blocks, part, per_state: list):
    """Each (start, block) of blocks, after appending the entanglement
    section's entry for each of the block's eigenstates to per_state."""
    for start, block in blocks:
        table = (column.tolist() for column in _schmidt_table(block, part, start))
        for k, (row, entropy, rank) in enumerate(zip(*table), start):
            per_state.append(
                {
                    "initial_eigenstate": k,
                    "schmidt_coefficients": row,
                    "entropy_bits": entropy,
                    "schmidt_rank": rank,
                    "is_product": rank == 1,
                }
            )
        yield start, block


def run_sweep(config: RunConfig, n_circuits: int, output_path: str | None = None) -> dict:
    """Seeded random circuits, both pathways on all three collective axes."""
    target = _report_target(config, "sweep", output_path)
    if n_circuits < 0:
        raise ConfigError(f"circuit count must be nonnegative, got {n_circuits}")

    ensemble = config._ensemble
    observables = [PauliSum.collective(config.n_spins, axis) for axis in SWEEP_AXES]
    rng = np.random.default_rng(config.seed)

    per_circuit: list[float] = []
    worst = None
    for index in range(n_circuits):
        circuit = random_circuit(config.n_spins, rng)
        results = compare_pathways(circuit, ensemble, observables)
        circuit_max = 0.0
        for axis, result in zip(SWEEP_AXES, results):
            difference = result.abs_difference
            circuit_max = max(circuit_max, difference)
            if worst is None or difference > worst["abs_difference"]:
                worst = {
                    "circuit_index": index,
                    "observable": f"collective {axis}",
                    "abs_difference": difference,
                    "circuit_text": format_circuit(circuit),
                }
        per_circuit.append(circuit_max)

    return _write_report(
        config, target,
        sweep={
            "n_circuits": n_circuits,
            "observables": [f"collective {axis}" for axis in SWEEP_AXES],
            "tolerance": _pathway_tolerance(ensemble),
            "per_circuit_max_difference": per_circuit,
            "max_abs_difference": max(per_circuit) if per_circuit else None,
            "within_tolerance": (
                _within_tolerance(max(per_circuit), ensemble) if per_circuit else None
            ),
            "worst_case": worst,
        },
    )


def _write_report(
    config: RunConfig, target: str, *,
    pathways=None, entanglement=None, separability=None, sweep=None,
) -> dict:
    """The fixed six-section report, a section not passed left null;
    rendered first, then written over target in one step, and returned.

    A run that fails while rendering or writing leaves an earlier report
    at the target untouched and no temporary file behind.
    """
    ensemble = config._ensemble
    # output_path and base_dir are left out of the echo, so that redirecting
    # the output of a run never changes the report body.
    echo = {key: getattr(config, key) for key in _KEY_ORDER if key != "output_path"}
    echo["larmor"] = list(config.larmor)
    report = {
        "config_echo": echo,
        "ensemble": {
            "dim": ensemble.system.dim,
            "level_energies": list(ensemble.system.level_energies),
            "epsilon_report": dataclasses.asdict(epsilon_report(ensemble)),
            "populations": ensemble.populations.tolist(),
        },
        "pathways": pathways,
        "entanglement": entanglement,
        "separability": separability,
        "sweep": sweep,
    }
    text = render_report(report)
    # Write through a symlink instead of replacing it with a regular file.
    real = os.path.realpath(target)
    directory, name = os.path.split(real)
    temp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        with contextlib.suppress(FileNotFoundError):
            os.chmod(temp, os.stat(real).st_mode & 0o7777)
        os.replace(temp, real)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(temp)
        if isinstance(exc, OSError):  # name the target, not the temporary file
            raise OSError(exc.errno, exc.strerror, target) from None
        raise
    return report


def render_report(report: dict) -> str:
    """Serialize a report to JSON text, floats at 17 significant digits."""
    return _render_value(report, 0) + "\n"


def _render_value(value, level: int) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError(f"non-finite value {value!r} in report")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        pad, inner = "  " * level, "  " * (level + 1)
        if isinstance(value, list) and set(map(type, value)) == {float}:
            # the bulk of a report: one join instead of a call per value
            if not all(map(math.isfinite, value)):
                bad = next(item for item in value if not math.isfinite(item))
                raise ValidationError(f"non-finite value {bad!r} in report")
            items = (",\n" + inner).join([format(item, ".17g") for item in value])
            return "[\n" + inner + items + "\n" + pad + "]"
        items = ",\n".join(inner + _render_value(item, level + 1) for item in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad, inner = "  " * level, "  " * (level + 1)
        items = ",\n".join(
            f"{inner}{_json_key(str(key))}: {_render_value(item, level + 1)}"
            for key, item in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} in report")


@functools.lru_cache(maxsize=256)  # a report has a few dozen distinct keys
def _json_key(key: str) -> str:
    return json.dumps(key)


def summary_lines(report: dict) -> list[str]:
    """Roughly ten human-readable lines stating what the report shows."""
    echo = report["config_echo"]
    eps = report["ensemble"]["epsilon_report"]
    lines = [
        f"system: {echo['n_spins']} spin(s), dim {report['ensemble']['dim']}",
        f"ensemble: M = {echo['molecule_count']:g} molecules, T = {echo['temperature']:g}, "
        f"epsilon = {eps['epsilon']:.3e}",
    ]
    pathways = report["pathways"]
    if pathways is not None:
        verdict = "yes" if pathways["within_tolerance"] else "NO"
        lines += [
            f"circuit: {echo['circuit_path']} ({pathways['gate_count']} gate(s)), "
            f"observable: {echo['observable']}",
            f"pathway sum:   {pathways['expectation_sum']:.12e}",
            f"pathway trace: {pathways['expectation_trace']:.12e}",
            f"pathway agreement: diff = {pathways['abs_difference']:.3e} "
            f"<= {pathways['tolerance']:.3e}: {verdict}",
        ]
    entanglement = report["entanglement"]
    if entanglement is not None:
        entropies = [entry["entropy_bits"] for entry in entanglement["per_state"]]
        entangled = any(not entry["is_product"] for entry in entanglement["per_state"])
        lines.append(
            f"per-molecule evolved states entangled: {'yes' if entangled else 'no'} "
            f"(entropy range {min(entropies):.6f}..{max(entropies):.6f} bits, "
            f"cut {entanglement['bipartition']})"
        )
    separability = report["separability"]
    if separability is not None:
        evolved = separability["evolved"]
        if evolved["ppt_holds"] is not None:
            if evolved["certified_separable"]:
                verdict = "separable (certified, every cut)"
            elif evolved["ppt_holds"]:
                verdict = "PPT, so separable (2 spins)" if evolved["ppt_conclusive"] else "PPT only"
            else:
                verdict = "NPT"
            lines.append(f"evolved ensemble state: {verdict}, negativity {evolved['negativity']:.3e}")
        lines.append(
            f"distance to maximally mixed: {separability['initial']['frobenius_to_mixed']:.3e} "
            f"initial, {evolved['frobenius_to_mixed']:.3e} evolved"
        )
    sweep = report["sweep"]
    if sweep is not None:
        lines.append(
            f"sweep: {sweep['n_circuits']} random circuit(s), seed {echo['seed']}, "
            "observables collective x, y, z"
        )
        if sweep["max_abs_difference"] is None:
            lines.append("sweep verdict: empty sweep, nothing to compare")
        else:
            verdict = "yes" if sweep["within_tolerance"] else "NO"
            lines.append(
                f"sweep max |sum - trace| = {sweep['max_abs_difference']:.3e} "
                f"<= {sweep['tolerance']:.3e}: {verdict}"
            )
            lines.append(f"worst case: circuit {sweep['worst_case']['circuit_index']}, "
                         f"{sweep['worst_case']['observable']}")
    return lines


def _circuit_count(text: str) -> int:
    """--n's value; argparse prefixes a rejection with 'argument --n: '."""
    try:
        return _read_int(text, "circuit count")
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _path(text: str) -> str:
    """A path argument, which no file name allows to hold a NUL."""
    if "\0" in text:
        raise argparse.ArgumentTypeError(f"NUL character in path {text!r}")
    return text


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):
        raise UsageError(message)


@functools.cache  # built on the first main call, then reused
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="spinensemble",
        description="Dual-pathway thermal-ensemble simulator for small spin molecules.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="{simulate,sweep}")
    simulate = commands.add_parser("simulate", help="run one circuit through both pathways")
    sweep = commands.add_parser("sweep", help="cross-check pathways on seeded random circuits")
    for sub in (simulate, sweep):
        sub.add_argument(
            "--config", type=_path, required=True, help="path to a key = value config file"
        )
        sub.add_argument("--output", type=_path, help="report file path (overrides output_path)")
        sub.add_argument("--summary", action="store_true", help="print a short verdict")
    sweep.add_argument("--n", type=_circuit_count, required=True, help="number of random circuits")
    return parser


def _print_error(prefix: str, exc: BaseException) -> None:
    """One stderr line of at most ERROR_CAP characters, whatever exc holds."""
    line = " ".join(f"{prefix}{exc}".splitlines())
    if len(line) > ERROR_CAP:
        line = line[: ERROR_CAP - 3] + "..."
    print(line, file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config)
        if args.command == "simulate":
            report = run_simulate(config, output_path=args.output)
        else:
            report = run_sweep(config, args.n, output_path=args.output)
        if args.summary:
            print("\n".join(summary_lines(report)))
        return 0
    except (UsageError, ConfigError, CircuitParseError, OSError) as exc:
        _print_error("error: ", exc)
        return 1
    except ValidationError as exc:
        _print_error("validation error: ", exc)
        return 2
    except (np.linalg.LinAlgError, MemoryError) as exc:
        _print_error(f"numeric error: {type(exc).__name__}: ", exc)
        return 2


def entry_point():
    sys.exit(main(sys.argv[1:]))
