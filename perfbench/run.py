"""spinensemble benchmark: times the real CLI in-process and checks every report.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload simulate-n4 --seed 1 --seconds 30 --trace 0

The package is imported from ./src, and every command goes through
``spinensemble.cli.main(argv)`` in this one process, as a closed loop:
the next command starts only when the previous one has returned.  Inputs
come from ``inputs.py`` and depend only on the seed.  Each report is
checked by ``checks.py``; a bad report or a nonzero exit counts as a
failed command.  The second command of every run repeats the first and
must write the same bytes.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every other
command with ``spans.Tracer`` installed, and prints per-command medians
of the per-layer metrics and the tracing overhead.  The last line of
stdout is the result JSON.  The first line records the environment; with
--trace 0 the line before the result records the command-time tail.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from checks import command_problems, self_test
from inputs import WORKLOADS, command_inputs
from spans import PER_LAYER, UNITS, Tracer

# BLAS threads: all cores up to this cap, so hosts with many cores give
# comparable figures.  One thread makes simulate-n10 about 1.6x slower.
MAX_BLAS_THREADS = 2
MIN_COMMANDS = 2  # command 1 repeats command 0, for the byte-identity check
SETUP_SAMPLES = 15
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import spinensemble.cli\n"
    "print(time.perf_counter() - start)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; exits nonzero without a result."""


def blas_threads() -> int:
    """Pin BLAS threads before numpy loads; returns the count."""
    threads = min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_cli(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spinensemble", "cli.py")):
        raise BenchError(f"no spinensemble source under {src}")
    sys.path.insert(0, src)
    from spinensemble import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise BenchError(f"imported {cli.__file__}, not the checkout's source")
    return cli


def environment(threads: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    return {
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "host": platform.node(),
        "platform": platform.platform(),
    }


class SetupSampler:
    """Seconds a fresh interpreter takes to import spinensemble.cli.

    The samples are spread evenly over a run, between commands, so that
    their median does not hang on one moment's machine load.
    """

    def __init__(self, root: str):
        self.root, self.samples = root, []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), self.env.get("PYTHONPATH")) if p
        )

    def _sample(self):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"fresh import failed: {proc.stderr.strip()}")
        self.samples.append(float(proc.stdout.split()[-1]))

    def sample_due(self, elapsed: float, seconds: float):
        """Take the samples due by ``elapsed`` of a ``seconds``-long run."""
        while len(self.samples) < SETUP_SAMPLES and elapsed >= len(self.samples) * seconds / SETUP_SAMPLES:
            self._sample()

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self._sample()
        return statistics.median(self.samples)


def call_cli(cli, argv: list[str]) -> tuple[float, int]:
    """Wall seconds and exit code of one in-process CLI command."""
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed command, not a benchmark error
        traceback.print_exc()
        code = -1
    return time.perf_counter() - start, code


class Runner:
    """Writes a workload's inputs, runs its commands and checks the reports."""

    def __init__(self, cli, name: str, seed: int, workdir: str):
        self.cli, self.name, self.seed, self.workdir = cli, name, seed, workdir
        self.workload = WORKLOADS[name]

    def config(self, spec: int) -> str:
        """Path of spec's config, writing its files on first use."""
        folder = os.path.join(self.workdir, f"spec-{spec}")
        config = os.path.join(folder, "config.cfg")
        if not os.path.isdir(folder):
            os.mkdir(folder)
            config_text, circuit_text = command_inputs(self.seed, self.name, spec)
            with open(config, "w", encoding="utf-8") as handle:
                handle.write(config_text)
            if circuit_text is not None:
                with open(os.path.join(folder, "circuit.qc"), "w", encoding="utf-8") as handle:
                    handle.write(circuit_text)
        return config

    def run(self, index: int, config: str) -> tuple[float, int, bytes | None]:
        """Seconds, exit code and report bytes of one command."""
        out = os.path.join(self.workdir, f"out-{index}.json")
        argv = [self.workload.command, "--config", config, "--output", out]
        if self.workload.command == "sweep":
            argv += ["--n", str(self.workload.sweep_circuits)]
        seconds, code = call_cli(self.cli, argv)
        try:
            with open(out, "rb") as handle:
                body = handle.read()
            os.remove(out)
        except FileNotFoundError:
            body = None
        return seconds, code, body

    def problems(self, code: int, body: bytes | None, repeat_of: bytes | None = None):
        return command_problems(
            code, body, self.workload.command, self.workload.n_spins, repeat_of
        )

    def self_test(self, clean: bytes):
        """The checks must flag every tampering of a real, clean report."""
        with contextlib.redirect_stderr(io.StringIO()):
            _, forced_exit, _ = self.run(-1, os.path.join(self.workdir, "missing.cfg"))
        misses = self_test(clean, forced_exit, self.workload.command, self.workload.n_spins)
        if misses:
            raise BenchError("output checks are broken: " + "; ".join(misses))

    def loop(
        self, seconds: float, tracer: Tracer | None = None, setup: SetupSampler | None = None
    ) -> dict:
        """Closed loop for about ``seconds``: command i runs spec max(i - 1, 0).

        A command starts only if the mean command so far still fits.
        With a tracer, the odd-numbered commands run traced, so traced and
        untraced commands see the same machine load; the repeat of command
        0 then also shows that tracing leaves the report unchanged.
        Between commands, ``setup`` takes the import samples that are due.
        """
        times, traced, spans = [], [], []
        failed, first, index, busy = 0, None, 0, 0.0
        start = time.perf_counter()
        while index < MIN_COMMANDS or time.perf_counter() - start + busy / index <= seconds:
            spec = max(index - 1, 0)
            config = self.config(spec)
            with_spans = tracer is not None and index % 2 == 1
            if with_spans:
                tracer.reset()
                tracer.install()
            try:
                elapsed, code, body = self.run(index, config)
            finally:
                if with_spans:
                    tracer.uninstall()
                    spans.append(tracer.stats)
            problems = self.problems(code, body, repeat_of=first if index == 1 else None)
            if problems:
                failed += 1
                print(f"command {index} failed: {'; '.join(problems)}", file=sys.stderr)
            if index == 0:
                first = body
                if not problems:
                    self.self_test(body)
            if index >= 1:
                shutil.rmtree(os.path.join(self.workdir, f"spec-{spec}"), ignore_errors=True)
            times.append(elapsed)
            busy += elapsed
            traced.append(with_spans)
            index += 1
            if setup is not None:
                setup.sample_due(time.perf_counter() - start, seconds)
        return {"times": times, "traced": traced, "spans": spans, "failed": failed}


def end_to_end(run: dict, circuits_per_command: int, setup_s: float) -> dict:
    """The gated metrics.

    The rate uses the median command, not the mean: on a shared host,
    stalls from other tenants swing means and tails far more than medians.
    """
    times = run["times"]
    attempted = len(times)
    median = statistics.median(times)
    return {
        "setup_s": (setup_s, "s"),
        "cmd_s.p50": (median, "s"),
        "circuits_per_s": (circuits_per_command / median, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((attempted - run["failed"]) / attempted, "fraction"),
    }


def tail(run: dict, circuits_per_command: int) -> dict:
    """Ungated record of the command-time tail and the mean throughput."""
    times = run["times"]
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    return {
        "commands": len(times),
        "cmd_s.p90": cuts[89],
        "cmd_s.p99": cuts[98],
        "mean_circuits_per_s": circuits_per_command * len(times) / sum(times),
    }


def per_layer(run: dict, absent: list[str]) -> dict:
    """Per-command medians of the span statistics, plus tracing overhead."""
    metrics = {
        f"{span}.{stat}": (
            statistics.median(getattr(stats[span], stat) for stats in run["spans"]),
            UNITS[stat],
        )
        for span, stat in PER_LAYER
    }
    plain = statistics.median(t for t, traced in zip(run["times"], run["traced"]) if not traced)
    with_spans = statistics.median(t for t, traced in zip(run["times"], run["traced"]) if traced)
    metrics["trace.untraced_cmd_s.p50"] = (plain, "s")
    metrics["trace.traced_cmd_s.p50"] = (with_spans, "s")
    metrics["trace.overhead_s"] = (with_spans - plain, "s")
    metrics["trace.absent_spans"] = (len(absent), "count")
    return metrics


def benchmark(args, root: str) -> dict:
    threads = blas_threads()
    cli = import_cli(root)
    workload = WORKLOADS[args.workload]
    print(json.dumps({"env": environment(threads), "workload": args.workload,
                      "spec": vars(workload), "seed": args.seed}))

    os.makedirs(os.path.join(root, ".perfbench_run"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".perfbench_run"))
    try:
        runner = Runner(cli, args.workload, args.seed, workdir)
        if args.trace:
            tracer = Tracer()
            run = runner.loop(args.seconds, tracer=tracer)
            if tracer.absent:
                print(f"absent spans: {', '.join(tracer.absent)}", file=sys.stderr)
            metrics = per_layer(run, tracer.absent)
        else:
            setup = SetupSampler(root)
            run = runner.loop(args.seconds, setup=setup)
            circuits = workload.sweep_circuits if workload.command == "sweep" else 1
            metrics = end_to_end(run, circuits, setup.median())
            print(json.dumps({"tail": tail(run, circuits)}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run["times"])
    return {
        "correct": run["failed"] == 0,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = benchmark(args, os.getcwd())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
