"""Output checks that decide whether a benchmarked command failed.

A command fails when its exit code is not 0, when its report breaks one
of the invariants below, or when a repeat of the same command in the run
does not produce the same bytes.  ``self_test`` proves that the checks
catch a tampered report and a nonzero exit.
"""

from __future__ import annotations

import copy
import json

PATHWAY_TOL = 1e-10  # the README's agreement contract, times molecule_count
SCHMIDT_NORM_TOL = 1e-9
# |frobenius_to_mixed(U rho U') - frobenius_to_mixed(rho)| budget, relative
# to the initial distance.  Unitary conjugation preserves the spectrum, so
# the two differ only by rounding: at most 3e-11 relative over 200 N = 4 and
# 3 N = 10 benchmark circuits at epsilon ~ 1e-5.
INVARIANCE_REL_TOL = 1e-8


def report_problems(report: dict, command: str, n_spins: int) -> list[str]:
    """Every invariant the report breaks, as one line each; [] when sound."""
    try:
        if report["config_echo"]["n_spins"] != n_spins:
            return [f"report is for {report['config_echo']['n_spins']} spins, expected {n_spins}"]
        if command == "sweep":
            return _sweep_problems(report["sweep"])
        return _simulate_problems(report)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"report lacks an expected field: {exc!r}"]


def _sweep_problems(sweep: dict) -> list[str]:
    problems = []
    if sweep["within_tolerance"] is not True:
        problems.append("sweep pathways disagree beyond tolerance")
    if not sweep["max_abs_difference"] <= sweep["tolerance"]:
        problems.append(
            f"sweep max difference {sweep['max_abs_difference']} exceeds {sweep['tolerance']}"
        )
    return problems


def _simulate_problems(report: dict) -> list[str]:
    problems = []
    pathways = report["pathways"]
    molecule_count = report["config_echo"]["molecule_count"]
    if pathways["within_tolerance"] is not True:
        problems.append("pathways disagree beyond tolerance")

    populations = report["ensemble"]["populations"]
    values = pathways["per_state_values"]
    if len(populations) != len(values):
        problems.append(f"{len(values)} per-state values for {len(populations)} levels")
    weighted = sum(p * v for p, v in zip(populations, values))
    if not abs(weighted - pathways["expectation_sum"]) <= PATHWAY_TOL * molecule_count:
        problems.append(
            f"sum of populations * per_state_values {weighted!r} != "
            f"expectation_sum {pathways['expectation_sum']!r}"
        )

    for entry in report["entanglement"]["per_state"]:
        norm = sum(c * c for c in entry["schmidt_coefficients"])
        if not abs(norm - 1.0) <= SCHMIDT_NORM_TOL:
            problems.append(
                f"eigenstate {entry['initial_eigenstate']}: sum of Schmidt^2 = {norm!r}"
            )

    initial = report["separability"]["initial"]
    evolved = report["separability"]["evolved"]
    d0, d1 = initial["frobenius_to_mixed"], evolved["frobenius_to_mixed"]
    if not abs(d1 - d0) <= INVARIANCE_REL_TOL * d0:
        problems.append(f"distance to I/K changed under unitary evolution: {d0!r} -> {d1!r}")
    if evolved["ppt_holds"] is not True:
        problems.append("evolved ensemble state fails the PPT test at epsilon ~ 1e-5")
    return problems


def command_problems(
    exit_code: int, report_bytes: bytes | None, command: str, n_spins: int,
    repeat_of: bytes | None = None,
) -> list[str]:
    """Problems of one finished command; repeat_of is the earlier run's bytes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if report_bytes is None:
        return ["no report written"]
    if repeat_of is not None and report_bytes != repeat_of:
        return ["repeat of the same command is not byte-identical"]
    try:
        report = json.loads(report_bytes)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    return report_problems(report, command, n_spins)


# (field path, change) pairs: each change breaks exactly one invariant.
_TAMPER = {
    "simulate": (
        (("pathways", "within_tolerance"), lambda v: False),
        (("pathways", "expectation_sum"), lambda v: v + 1.0),
        (("entanglement", "per_state", 0, "schmidt_coefficients", 0), lambda v: v * 1.001),
        (("separability", "evolved", "frobenius_to_mixed"), lambda v: v * 1.01),
        (("separability", "evolved", "ppt_holds"), lambda v: False),
    ),
    "sweep": (
        (("sweep", "within_tolerance"), lambda v: False),
        (("sweep", "max_abs_difference"), lambda v: 1.0),
    ),
}


def _tampered(report: dict, path: tuple, change) -> bytes:
    tampered = copy.deepcopy(report)
    node = tampered
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return json.dumps(tampered).encode()


def self_test(clean: bytes, forced_exit: int, command: str, n_spins: int) -> list[str]:
    """Checks that fail to fire; [] when the checks work.

    ``clean`` is a real report, which must pass.  Every tampering in
    _TAMPER, a changed repeat and ``forced_exit`` (the exit code of a
    command made to fail) must each be flagged.
    """
    misses = []
    if command_problems(0, clean, command, n_spins):
        misses.append("clean report flagged")
    report = json.loads(clean)
    for path, change in _TAMPER[command]:
        if not command_problems(0, _tampered(report, path, change), command, n_spins):
            misses.append(f"tampered {'.'.join(map(str, path))} not flagged")
    if not command_problems(0, clean + b" ", command, n_spins, repeat_of=clean):
        misses.append("changed repeat not flagged")
    if not command_problems(forced_exit, clean, command, n_spins):
        misses.append(f"forced exit code {forced_exit} not flagged")
    return misses
