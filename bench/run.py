"""The bicomm benchmark: the five CLI subcommands, end to end, on named workloads.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it times untraced passes over the workload's job list, each in
a fresh interpreter, starting a new pass while fewer than S seconds have gone
by, and reports the end-to-end metrics as medians over the passes.  With
--trace 1 it runs one untraced and one traced pass and reports the per-layer
metrics of the traced one.  Every job's output is checked.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A results file with provenance is written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 15
# Every pass process is stopped by this many seconds after the run started,
# so that a run ends within three minutes even when the program hangs.
RUN_DEADLINE_S = 165

END_TO_END_UNITS = {
    "wall_s": "s",
    "slowest_job_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def measure_setup() -> float:
    """Median wall time of a fresh `python -m bicomm --version`.

    One untimed call first, so compiling the bytecode is not counted.
    """
    command = [sys.executable, "-m", "bicomm", "--version"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60
        )
        elapsed = time.perf_counter() - start
        if done.returncode != 0 or not done.stdout.startswith("bicomm "):
            raise RuntimeError(f"bicomm --version failed: {done.stderr.strip()}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def run_pass(
    jobs: list[dict], tmp: Path, index: int, trace: bool, spans_path=None, deadline=None
) -> dict | None:
    """One pass in a fresh interpreter; None when the pass process failed or
    was still running at `deadline` (a `time.monotonic` value)."""
    spec_path = tmp / f"pass{index}.spec.json"
    report_path = tmp / f"pass{index}.report.json"
    spec = {"src": str(SRC), "jobs": jobs, "trace": trace}
    if spans_path is not None:
        spec["spans_path"] = str(spans_path)
    spec_path.write_text(json.dumps(spec))
    timeout = None if deadline is None else max(deadline - time.monotonic(), 0.1)
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "pass_runner.py"), str(spec_path), str(report_path)],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"pass {index} stopped after the run's {RUN_DEADLINE_S} s", file=sys.stderr)
        return None
    if done.returncode != 0 or not report_path.exists():
        print(f"pass {index} failed: {done.stderr.strip()}", file=sys.stderr)
        return None
    return json.loads(report_path.read_text())


def check_pass(report, jobs, expected, series_ok) -> list[dict]:
    """Per-job verdicts; every job of a failed pass process fails."""
    verdicts = []
    ran = {job["id"]: job for job in report["jobs"]} if report else {}
    for job in jobs:
        got = ran.get(job["id"])
        if got is None:
            reason = "job did not run"
        else:
            reason = checks.check_job(
                job["id"], job["template"], got["exit"], got["stdout"], expected, series_ok
            )
        verdicts.append({"id": job["id"], "ok": reason is None, "reason": reason})
    return verdicts


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bicomm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "jobs": [
            {"id": job_id, "argv": argv + workloads.STRUCTURED}
            for job_id, argv in workloads.WORKLOADS[workload]
        ],
        "conjugator": [[str(v) for v in row] for row in workloads.conjugator(seed)],
    }


def end_to_end(reports: list[dict], setup_s: float, attempted: int, failed: int) -> dict:
    """Medians over the passes that ran; a pass process that failed has no times."""
    good = [r for r in reports if r is not None]

    def median(values):
        return statistics.median(values) if values else 0.0

    return {
        "wall_s": median([r["wall_s"] for r in good]),
        "slowest_job_s": median([max(j["seconds"] for j in r["jobs"]) for r in good]),
        "cpu_s": median([r["cpu_s"] for r in good]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
        "setup_s": setup_s,
        "success_rate": (attempted - failed) / attempted,
    }


def per_layer(untraced: dict | None, traced: dict | None) -> dict:
    if traced is None:
        return {}
    metrics = tracing.layer_metrics(traced["trace"])
    metrics["cli.output_bytes"] = sum(len(j["stdout"].encode()) for j in traced["jobs"])
    metrics["trace.overhead_ratio"] = (
        traced["wall_s"] / untraced["wall_s"] if untraced is not None else 0.0
    )
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_yield", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "bicomm" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'bicomm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    expected = checks.load_expected()
    OUT.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as tmp_name:
        tmp = Path(tmp_name)
        paths = workloads.write_groups(args.seed, tmp)
        jobs = [
            {"id": job_id, "template": argv, "argv": workloads.job_argv(argv, paths)}
            for job_id, argv in workloads.WORKLOADS[args.workload]
        ]
        series_ok = checks.conjugated_series_ok(paths, expected)
        setup_s = None
        reports = []
        if trace:
            reports.append(run_pass(jobs, tmp, 0, trace=False, deadline=deadline))
            reports.append(
                run_pass(jobs, tmp, 1, trace=True, spans_path=OUT / f"{tag}.spans.json",
                         deadline=deadline)
            )
        else:
            setup_s = measure_setup()
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds:
                reports.append(run_pass(jobs, tmp, len(reports), trace=False, deadline=deadline))
                if reports[-1] is None:
                    break
        verdicts = [check_pass(r, jobs, expected, series_ok) for r in reports]
    attempted = sum(len(v) for v in verdicts)
    failed = sum(not entry["ok"] for v in verdicts for entry in v)
    if trace:
        metrics = per_layer(reports[0], reports[1])
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(reports, setup_s, attempted, failed)
        units = END_TO_END_UNITS
    results = {
        "provenance": provenance(args.workload, args.seed, args.seconds, trace),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        "passes": [
            None if r is None else {
                "wall_s": r["wall_s"],
                "cpu_s": r["cpu_s"],
                "peak_rss_mb": r["peak_rss_mb"],
                "jobs": [
                    {"id": j["id"], "exit": j["exit"], "seconds": j["seconds"],
                     "stdout_bytes": len(j["stdout"].encode())}
                    for j in r["jobs"]
                ],
                "trace": r.get("trace"),
            }
            for r in reports
        ],
        "verdicts": verdicts,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(results, indent=1))
    for name, entry in results["metrics"].items():
        print(f"{name:40s} {entry['value']:>16.6f} {entry['unit']}")
    for v in verdicts:
        for entry in v:
            if not entry["ok"]:
                print(f"FAILED {entry['id']}: {entry['reason']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": results["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
