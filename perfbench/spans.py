"""Out-of-program tracing: wrap the package's public functions in spans.

Nothing in the package changes.  ``Tracer.install`` finds each traced
function in its defining module and rebinds every module-level name in
the package that refers to it, so calls made through ``from .x import f``
are traced as well.  A traced function a later version renames or deletes
is listed in ``absent`` and reads as 0 calls; it is never an error.

Self time of a span is its duration minus the durations of its direct
child spans.  The time spent hashing results for ``useful_ratio`` is
taken off the clock every span reads, so it lands in no span's self time;
it still shows in the traced-minus-untraced overhead.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time
from dataclasses import dataclass, field

PACKAGE = "spinensemble"
MODULES = ("cli", "circuit", "engine", "entanglement", "qlinalg", "spin_system")

# (span name, defining module, function name).  "cli" is the root span:
# the whole command as spinensemble.cli.main runs it.
TRACED = (
    ("cli", "cli", "main"),
    ("cli.load_config", "cli", "load_config"),
    ("cli.parse_observable", "cli", "parse_observable"),
    ("cli.build_ensemble", "cli", "build_ensemble"),
    ("cli.render_report", "cli", "render_report"),
    ("circuit.parse_circuit", "circuit", "parse_circuit"),
    ("circuit.random_circuit", "circuit", "random_circuit"),
    ("circuit.compose_propagator", "circuit", "compose_propagator"),
    ("circuit.gate_unitary", "circuit", "gate_unitary"),
    ("engine.compare_pathways", "engine", "compare_pathways"),
    ("engine.per_state_expectations", "engine", "per_state_expectations"),
    ("engine.ensemble_expectation_sum", "engine", "ensemble_expectation_sum"),
    ("engine.ensemble_expectation_trace", "engine", "ensemble_expectation_trace"),
    ("qlinalg.unitary", "qlinalg", "unitary"),
    ("qlinalg.density_matrix", "qlinalg", "density_matrix"),
    ("qlinalg.hermitian_eigenvalues", "qlinalg", "hermitian_eigenvalues"),
    ("qlinalg.partial_transpose", "qlinalg", "partial_transpose"),
    ("entanglement.ppt_report", "entanglement", "ppt_report"),
    ("entanglement.entanglement_report", "entanglement", "entanglement_report"),
    ("spin_system.collective_observable", "spin_system", "collective_observable"),
    ("spin_system.equilibrium_density_matrix", "spin_system", "equilibrium_density_matrix"),
)

# (span, statistic) pairs reported per command.  The spans with a
# useful_ratio are the ones whose results get hashed.
PER_LAYER = (
    ("cli", "self_s"),
    ("cli.load_config", "self_s"),
    ("cli.parse_observable", "calls"),
    ("cli.build_ensemble", "self_s"),
    ("cli.render_report", "self_s"),
    ("circuit.compose_propagator", "self_s"),
    ("circuit.compose_propagator", "calls"),
    ("circuit.compose_propagator", "useful_ratio"),
    ("circuit.gate_unitary", "self_s"),
    ("circuit.gate_unitary", "calls"),
    ("circuit.parse_circuit", "self_s"),
    ("circuit.random_circuit", "self_s"),
    ("engine.compare_pathways", "self_s"),
    ("engine.per_state_expectations", "self_s"),
    ("engine.ensemble_expectation_sum", "self_s"),
    ("engine.ensemble_expectation_trace", "self_s"),
    ("qlinalg.unitary", "self_s"),
    ("qlinalg.unitary", "calls"),
    ("qlinalg.unitary", "useful_ratio"),
    ("qlinalg.density_matrix", "self_s"),
    ("qlinalg.hermitian_eigenvalues", "self_s"),
    ("qlinalg.partial_transpose", "self_s"),
    ("entanglement.ppt_report", "self_s"),
    ("entanglement.ppt_report", "calls"),
    ("entanglement.entanglement_report", "self_s"),
    ("entanglement.entanglement_report", "calls"),
    ("spin_system.collective_observable", "self_s"),
    ("spin_system.collective_observable", "calls"),
    ("spin_system.collective_observable", "useful_ratio"),
    ("spin_system.equilibrium_density_matrix", "self_s"),
)
UNITS = {"self_s": "s", "calls": "count", "useful_ratio": "ratio"}
_HASHED = {span for span, stat in PER_LAYER if stat == "useful_ratio"}


@dataclass
class SpanStats:
    self_s: float = 0.0
    calls: int = 0
    digests: set = field(default_factory=set)

    @property
    def useful_ratio(self) -> float:
        """Distinct results over calls; 0 when never called."""
        return len(self.digests) / self.calls if self.calls else 0.0


def _digest(value) -> bytes:
    if hasattr(value, "tobytes"):
        head = f"{getattr(value, 'dtype', '')}{getattr(value, 'shape', '')}".encode()
        return hashlib.sha1(head + value.tobytes()).digest()
    return hashlib.sha1(repr(value).encode()).digest()


class Tracer:
    """Span statistics for the commands run while installed."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {name: SpanStats() for name, _, _ in TRACED}
        self.absent: list[str] = []
        self._open: list[float] = []  # child time accumulated by each open span
        self._paused = 0.0  # tracer time (hashing) hidden from every span
        self._restore: list[tuple[object, str, object]] = []

    def _clock(self) -> float:
        return time.perf_counter() - self._paused

    def reset(self):
        """Start a fresh count, e.g. before each command."""
        self.stats = {name: SpanStats() for name in self.stats}

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._clock() - start
                child = self._open.pop()
                stats = self.stats[name]
                stats.self_s += duration - child
                stats.calls += 1
                if self._open:
                    self._open[-1] += duration
            if name in _HASHED:
                began = time.perf_counter()
                stats.digests.add(_digest(result))
                self._paused += time.perf_counter() - began
            return result

        return traced

    def install(self):
        """Rebind every package-level reference to each traced function."""
        self.absent = []
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                continue
        for name, home, attr in TRACED:
            original = getattr(modules.get(home), attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()
