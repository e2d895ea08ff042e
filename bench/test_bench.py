"""Tests of the benchmark itself: self time, the checker and the tracer.

Run from the repository root: python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


def test_self_time_subtracts_the_union_of_child_intervals():
    # 0: [0, 100] with children 1 [10, 30], 2 [20, 50] (overlapping 1) and
    # 4 [90, 120] (clipped to 100); 3 [12, 18] is a child of 1.
    starts = [0, 10, 20, 12, 90]
    ends = [100, 30, 50, 18, 120]
    parents = [-1, 0, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [50, 14, 30, 6, 30]


def test_layer_metrics_sum_self_time_and_calls_per_layer():
    summary = {
        "self_s": {"hilbert.molien_classic": 1.0, "hilbert.molien_bicomm": 2.0},
        "calls": {"invariants.EchelonBasis.add": 4, "hilbert.char_det": 7},
        "counters": {tracing.ECHELON_GREW: 1, tracing.CLOSURE_ELEMENTS: 12},
    }
    metrics = tracing.layer_metrics(summary)
    assert metrics["hilbert.molien_s"] == 3.0
    assert metrics["hilbert.char_det_calls"] == 7
    assert metrics["invariants.echelon_yield"] == 0.25
    assert metrics["group_action.closure_elements"] == 12
    assert metrics["group_action.act_bulk_calls"] == 0


@pytest.mark.parametrize("seed", range(12))
def test_conjugator_is_seeded_invertible_fractional_and_gives_dense_generators(seed):
    p = workloads.conjugator(seed)
    assert p == workloads.conjugator(seed)
    assert all(v != 0 and abs(v.numerator) <= 3 and v.denominator <= 4 for row in p for v in row)
    p_inv = workloads.inverse(p)
    assert p_inv is not None
    assert any(v.denominator != 1 for row in p for v in row)
    assert any(v.denominator != 1 for row in p_inv for v in row)
    groups = workloads.all_groups(seed)
    for base in workloads.CONJUGATED:
        for g in groups[workloads.conjugated(base)]:
            assert all(v and v.denominator <= workloads.MAX_DENOMINATOR for row in g for v in row)


def test_conjugated_groups_have_the_orders_of_their_bases(tmp_path):
    from bicomm import load_group

    paths = workloads.write_groups(5, tmp_path)
    for base in workloads.CONJUGATED:
        conjugate = load_group(paths[workloads.conjugated(base)])
        assert conjugate.order == load_group(paths[base]).order


def _jobs(entries, paths):
    return [
        {"id": job_id, "template": argv, "argv": workloads.job_argv(argv, paths)}
        for job_id, argv in entries
    ]


def _failures(report, jobs, expected, series_ok):
    return [v["id"] for v in run.check_pass(report, jobs, expected, series_ok) if not v["ok"]]


def test_checker_counts_corrupted_outputs_and_exit_codes(tmp_path):
    paths = workloads.write_groups(3, tmp_path)
    by_id = {job_id: argv for jobs in workloads.WORKLOADS.values() for job_id, argv in jobs}
    jobs = _jobs([(i, by_id[i]) for i in ("nonfg C_4", "hilbert B_3P")], paths)
    expected = checks.load_expected()
    series_ok = checks.conjugated_series_ok(paths, expected)
    report = run.run_pass(jobs, tmp_path, 0, trace=False)
    assert _failures(report, jobs, expected, series_ok) == []

    nonfg, hilbert = report["jobs"]
    original = nonfg["stdout"]
    nonfg["exit"] = 1
    assert _failures(report, jobs, expected, series_ok) == ["nonfg C_4"]
    nonfg["exit"] = 0
    document = json.loads(original)
    document["results"]["gaps"][0]["span_dimension"] += 1
    nonfg["stdout"] = json.dumps(document)
    assert _failures(report, jobs, expected, series_ok) == ["nonfg C_4"]
    nonfg["stdout"] = original[: len(original) // 2]
    assert _failures(report, jobs, expected, series_ok) == ["nonfg C_4"]
    nonfg["stdout"] = original

    assert _failures(report, jobs, expected, {"B_3P": False}) == ["hilbert B_3P"]
    hilbert["stdout"] = hilbert["stdout"].replace('"1"', '"2"', 1)
    assert _failures(report, jobs, expected, series_ok) == ["hilbert B_3P"]
    assert _failures(None, jobs, expected, series_ok) == ["nonfg C_4", "hilbert B_3P"]


def test_checker_compares_invariant_dimensions_with_the_series():
    expected = checks.load_expected()
    argv = ["invariants", "--group", "@S_3P", "--max-degree", "2"]
    series = expected["molien_bicomm"]["S_3"]["series"]
    degrees = [{"degree": n, "dimension": int(series[n])} for n in (1, 2)]
    stdout = json.dumps({"command": "invariants", "results": {"degrees": degrees}})
    ok = {"S_3P": True}
    assert checks.check_job("invariants S_3P", argv, 0, stdout, expected, ok) is None
    degrees[1]["dimension"] += 1
    stdout = json.dumps({"command": "invariants", "results": {"degrees": degrees}})
    assert "dimensions" in checks.check_job("invariants S_3P", argv, 0, stdout, expected, ok)


def test_traced_pass_records_every_wrapped_binding(tmp_path):
    paths = workloads.write_groups(1, tmp_path)
    tiny = [
        ("hilbert", ["hilbert", "--group", "@C_4", "--order", "4"]),
        ("invariants", ["invariants", "--group", "@S_3P", "--max-degree", "2"]),
        ("nonfg", ["nonfg", "--group", "@C_4", "--cutoff", "1", "--max-degree", "3"]),
        ("symmetric", ["symmetric", "--d", "2", "--max-degree", "3"]),
        ("verify", ["verify", "--d", "1", "--order", "2"]),
    ]
    report = run.run_pass(_jobs(tiny, paths), tmp_path, 0, trace=True)
    assert [job["exit"] for job in report["jobs"]] == [0] * len(tiny)
    calls = report["trace"]["calls"]
    assert sorted(name for name in tracing.SPAN_NAMES if not calls.get(name)) == []
    metrics = run.per_layer(report, report)
    for name, value in metrics.items():
        if name.endswith(("_calls", "_elements", "_bytes")):
            assert value > 0, name
    assert len(report["trace"]["job_layer_self_s"]) == len(tiny)


def test_bare_benchmark_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "symmetric", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
