"""One workload pass in a fresh interpreter: run the jobs in process, in order.

Usage: python3 bench/pass_runner.py SPEC.json REPORT.json

SPEC names the program's source directory, the jobs (id and full argv for
`bicomm.cli.main`) and whether to trace.  REPORT receives each job's exit
code, seconds and captured output, the pass wall time, the CPU time of this
process over the jobs, its peak RSS and, when traced, the span summary.
A fresh process gives every pass cold caches, as a command-line user has.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    from bicomm import cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        for job in spec["jobs"]:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(job["argv"])
                except Exception:  # a crash fails this job; the pass goes on
                    code = None
                    traceback.print_exc()
            jobs.append(
                {
                    "id": job["id"],
                    "exit": code,
                    "seconds": time.perf_counter() - start,
                    "stdout": out.getvalue(),
                    "stderr": err.getvalue(),
                }
            )
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {
        "jobs": jobs,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    return report


def main() -> int:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    report = run_pass(spec)
    with open(sys.argv[2], "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
