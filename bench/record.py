"""Record the reference outputs the checker compares against: expected.json.

Run from the repository root as `python3 bench/record.py`, only when the
program's outputs are meant to change.  For every job on a fixed group it
stores the exit code and a digest of the structured `results`; for the
groups whose invariants are computed it stores the bicommutative Molien
series and its expansion.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from bicomm import cli, expand, format_rational, load_group, molien_bicomm  # noqa: E402

SERIES_ORDER = 20


def main() -> int:
    expected = {"jobs": {}, "molien_bicomm": {}}
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        paths = workloads.write_groups(0, Path(tmp))
        for jobs in workloads.WORKLOADS.values():
            for job_id, argv in jobs:
                group = checks.group_of(argv)
                if group is not None and checks.base_group(group) != group:
                    continue
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(workloads.job_argv(argv, paths))
                results = json.loads(out.getvalue())["results"]
                expected["jobs"][job_id] = {
                    "exit": code,
                    "results_sha256": checks.results_digest(results),
                }
                print(f"recorded {job_id}: exit {code}", file=sys.stderr)
        for name in ("S_3", "B_3", "A_4", "D_6"):
            f = molien_bicomm(load_group(paths[name]))
            expected["molien_bicomm"][name] = {
                "numerator": [format_rational(c) for c in f.numerator.coeffs],
                "denominator": [format_rational(c) for c in f.denominator.coeffs],
                "series": [format_rational(c) for c in expand(f, SERIES_ORDER).coefficients],
            }
    checks.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
