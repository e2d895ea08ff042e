"""The output checker: a job fails on a wrong exit code, an output mismatch or
a failed cross-check, so a faster wrong answer counts as a failure.

Jobs on fixed groups are compared with outputs recorded by `record.py`
(`expected.json`).  Jobs on the seeded conjugated groups are checked by
conjugation invariance: G^P has the same Molien-type series as G, and its
invariant dimensions are the coefficients of that series.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import workloads

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def results_digest(results) -> str:
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def group_of(argv: list[str]) -> str | None:
    return next((word[1:] for word in argv if word.startswith("@")), None)


def base_group(name: str) -> str:
    """The unconjugated group behind a group name."""
    for base in workloads.CONJUGATED:
        if name == workloads.conjugated(base):
            return base
    return name


def _base_job_id(job_id: str, group: str) -> str:
    return job_id.replace(group, base_group(group))


def check_job(
    job_id: str, argv: list[str], exit_code, stdout: str, expected: dict, series_ok: dict
) -> str | None:
    """None when the job's output is right, else the reason it is wrong."""
    group = group_of(argv)
    conjugate = group is not None and base_group(group) != group
    record = expected["jobs"].get(_base_job_id(job_id, group) if conjugate else job_id)
    if conjugate and argv[0] == "invariants":
        want_exit = 0
    elif record is None:
        return "no recorded output for this job"
    else:
        want_exit = record["exit"]
    if exit_code != want_exit:
        return f"exit code {exit_code}, expected {want_exit}"
    try:
        document = json.loads(stdout)
        results = document["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable structured output: {exc!r}"
    if document.get("command") != argv[0]:
        return f"command {document.get('command')!r}, expected {argv[0]!r}"
    if conjugate and not series_ok.get(group, False):
        return f"series of {group} differs from that of {base_group(group)}"
    if argv[0] == "invariants":
        series = expected["molien_bicomm"][base_group(group)]["series"]
        try:
            dims = [entry["dimension"] for entry in results["degrees"]]
        except (KeyError, TypeError) as exc:
            return f"malformed invariants results: {exc!r}"
        want = [int(c) for c in series[1 : len(dims) + 1]]
        if dims != want:
            return f"dimensions {dims} differ from the series coefficients {want}"
        if conjugate:
            return None
    if results_digest(results) != record["results_sha256"]:
        return "results differ from the recorded output"
    return None


def conjugated_series_ok(paths: dict[str, Path], expected: dict) -> dict[str, bool]:
    """Whether each conjugated group's bicommutative series equals its base's."""
    from bicomm import format_rational, load_group, molien_bicomm

    verdicts = {}
    for base in workloads.CONJUGATED:
        name = workloads.conjugated(base)
        series = molien_bicomm(load_group(paths[name]))
        want = expected["molien_bicomm"][base]
        verdicts[name] = (
            [format_rational(c) for c in series.numerator.coeffs] == want["numerator"]
            and [format_rational(c) for c in series.denominator.coeffs]
            == want["denominator"]
        )
    return verdicts
