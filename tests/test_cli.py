import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bicomm
from bicomm import RationalFunction, UniPoly, char_det
from bicomm.cli import (
    EXIT_CAP,
    EXIT_GROUP_FILE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    MAX_ORDER,
    build_parser,
    main,
)


@pytest.fixture
def s2_file(tmp_path):
    path = tmp_path / "s2.group"
    path.write_text(json.dumps({"d": 2, "generators": [[["0", "1"], ["1", "0"]]]}))
    return str(path)


@pytest.fixture
def unipotent_file(tmp_path):
    path = tmp_path / "unipotent.group"
    path.write_text(json.dumps({"d": 2, "generators": [[["1", "1"], ["0", "1"]]]}))
    return str(path)


@pytest.fixture
def scaling_file(tmp_path):
    """diag(2, 1): an infinite group, so loading it exits 4."""
    path = tmp_path / "scaling.group"
    path.write_text(json.dumps({"d": 2, "generators": [[["2", "0"], ["0", "1"]]]}))
    return str(path)


def child_env():
    """Environment for a child that imports the same package as this process,
    installed or not."""
    return dict(os.environ, PYTHONPATH=str(Path(bicomm.__file__).resolve().parents[1]))


def block_plus_identity(d, block):
    """The rows of a d x d group-file matrix: `block` in the top left corner,
    the identity elsewhere."""
    rows = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
    for i, row in enumerate(block):
        rows[i][: len(row)] = row
    return rows


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rational_function(payload):
    return RationalFunction(
        UniPoly([Fraction(c) for c in payload["numerator"]]),
        UniPoly([Fraction(c) for c in payload["denominator"]]),
    )


class TestHilbertCommand:
    def test_plain_output_has_expected_series(self, capsys, s2_file):
        code, out, _ = run_main(capsys, "hilbert", "--group", s2_file, "--order", "6")
        assert code == EXIT_OK
        assert "[0, 1, 2, 6, 13, 22, 36]" in out
        assert "molien_classic" in out and "dicks_formanek" in out

    def test_structured_output_round_trips(self, capsys, s2_file):
        code, out, _ = run_main(
            capsys, "hilbert", "--group", s2_file, "--order", "6", "--format", "structured"
        )
        assert code == EXIT_OK
        document = json.loads(out)
        assert document["input"]["group_order"] == 2
        from bicomm import dicks_formanek, group_closure, molien_bicomm, molien_classic
        from bicomm import permutation_matrix

        group = group_closure([permutation_matrix((1, 0))])
        recomputed = {
            "molien_classic": molien_classic(group),
            "dicks_formanek": dicks_formanek(group),
            "molien_bicomm": molien_bicomm(group),
        }
        for name, expected in recomputed.items():
            assert parse_rational_function(document["results"][name]) == expected
        series = [Fraction(c) for c in document["results"]["molien_bicomm"]["series"]]
        assert series == [0, 1, 2, 6, 13, 22, 36]

    def test_cap_exceeded_exit_code(self, capsys, unipotent_file):
        code, _, err = run_main(
            capsys, "hilbert", "--group", unipotent_file, "--cap", "1000"
        )
        assert code == EXIT_CAP
        assert "cap" in err

    def test_infinite_group_exceeds_rank_bound(self, capsys, scaling_file):
        code, out, err = run_main(capsys, "hilbert", "--group", scaling_file)
        assert code == EXIT_CAP
        assert out == ""
        assert "cap of 12 elements" in err

    @pytest.mark.parametrize(
        "d,block",
        [
            (6, [["2"]]),
            (6, [["2", "1"], ["1", "1"]]),
            (6, [["0", "1"], ["1", "1"]]),
            (6, [["1", "1"], ["0", "1"]]),
            (6, [["1/2"]]),
            (16, [["0", "1"], ["1", "1"]]),
        ],
        ids=[
            "diag(2,1,...)", "[[2,1],[1,1]]", "golden", "shear", "diag(1/2,1,...)", "golden d=16"
        ],
    )
    def test_infinite_generator_exits_within_a_second(self, tmp_path, d, block):
        # block + I: at rank 6 and above, B(d) exceeds the default cap, and
        # closing such a group up to the cap would run for minutes.
        path = tmp_path / "infinite.group"
        path.write_text(json.dumps({"d": d, "generators": [block_plus_identity(d, block)]}))
        result = subprocess.run(
            [sys.executable, "-m", "bicomm", "hilbert", "--group", str(path)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=1,
        )
        assert result.returncode == EXIT_CAP
        assert result.stdout == ""
        assert "infinite order" in result.stderr and "cap of 100000 elements" in result.stderr

    @pytest.mark.parametrize("d", [2, 6, 16])
    def test_infinite_group_of_finite_order_generators_exits_within_a_second(
        self, tmp_path, d
    ):
        # The infinite dihedral group <diag(-1, 1), [[1, 0], [2, -1]]> + I:
        # both generators have order 2, their product infinite order.  From
        # d = 6 on, B(d) exceeds the default cap; the closure finds an
        # element of infinite order among its first 256 elements.
        path = tmp_path / "dihedral.group"
        blocks = [[["-1", "0"], ["0", "1"]], [["1", "0"], ["2", "-1"]]]
        gens = [block_plus_identity(d, block) for block in blocks]
        path.write_text(json.dumps({"d": d, "generators": gens}))
        result = subprocess.run(
            [sys.executable, "-m", "bicomm", "hilbert", "--group", str(path), "--order", "2"],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=1,
        )
        assert result.returncode == EXIT_CAP
        assert result.stdout == ""
        assert "cap of" in result.stderr
        if d >= 6:
            assert "infinite order" in result.stderr

    def test_missing_group_file(self, capsys, tmp_path):
        code, _, err = run_main(capsys, "hilbert", "--group", str(tmp_path / "nope"))
        assert code == EXIT_GROUP_FILE
        assert "error" in err

    def test_invalid_group_file(self, capsys, tmp_path):
        path = tmp_path / "bad.group"
        path.write_text("{broken")
        code, _, _ = run_main(capsys, "hilbert", "--group", str(path))
        assert code == EXIT_GROUP_FILE

    def test_singular_generator_is_a_file_error(self, capsys, tmp_path):
        path = tmp_path / "singular.group"
        path.write_text(
            json.dumps({"d": 2, "generators": [[["1", "1"], ["1", "1"]]]})
        )
        code, _, _ = run_main(capsys, "hilbert", "--group", str(path))
        assert code == EXIT_GROUP_FILE

    @pytest.mark.parametrize(
        "document",
        [
            {"d": True, "generators": [[["1"]]]},
            {"d": 1, "generators": [[["-\u0661"]]]},
        ],
        ids=["boolean rank", "arabic-indic digit"],
    )
    def test_lenient_json_values_are_file_errors(self, capsys, tmp_path, document):
        path = tmp_path / "lenient.group"
        path.write_text(json.dumps(document))
        code, out, err = run_main(capsys, "hilbert", "--group", str(path))
        assert code == EXIT_GROUP_FILE
        assert out == ""
        assert "error" in err

    def test_group_file_rank_is_bounded(self, capsys, tmp_path):
        path = tmp_path / "rank17.group"
        path.write_text(json.dumps({"d": 17, "generators": []}))
        code, out, err = run_main(capsys, "hilbert", "--group", str(path), "--order", "1")
        assert code == EXIT_GROUP_FILE
        assert out == ""
        assert "at most 16" in err

    @pytest.mark.parametrize(
        "content",
        [
            b'\xff\xfe{"d":1}',
            b'{"d": 1, "generators": [[["' + b"7" * 5000 + b'"]]]}',
            b'{"d": 1, "generators": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        ],
        ids=["not utf-8", "5000-digit entry", "nested 100000 deep"],
    )
    def test_malformed_bytes_are_file_errors(self, capsys, tmp_path, content):
        path = tmp_path / "malformed.group"
        path.write_bytes(content)
        code, out, err = run_main(capsys, "hilbert", "--group", str(path))
        assert code == EXIT_GROUP_FILE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "7" * 100 not in err

    @pytest.mark.parametrize(
        "entry",
        ["a" * 100_000, "1/" + "0" * 4000, json.loads("[" * 900 + "]" * 900)],
        ids=["100000-character string", "4000-digit zero denominator", "nested 900 deep"],
    )
    def test_bad_entries_are_quoted_in_bounded_form(self, capsys, tmp_path, entry):
        path = tmp_path / "long.group"
        path.write_text(json.dumps({"d": 1, "generators": [[[entry]]]}))
        code, out, err = run_main(capsys, "hilbert", "--group", str(path))
        assert code == EXIT_GROUP_FILE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 100


class TestOtherCommands:
    def test_invariants_lists_bases(self, capsys, s2_file):
        code, out, _ = run_main(
            capsys, "invariants", "--group", s2_file, "--max-degree", "2"
        )
        assert code == EXIT_OK
        assert "degree 1: dimension 1" in out
        assert "x1 + x2" in out
        assert "degree 2: dimension 2" in out

    def test_nonfg_reports_gap(self, capsys, s2_file):
        code, out, _ = run_main(
            capsys, "nonfg", "--group", s2_file, "--cutoff", "1", "--max-degree", "4"
        )
        assert code == EXIT_OK
        assert "cutoff 1: gap at degree 2" in out

    def test_symmetric_report(self, capsys):
        code, out, _ = run_main(capsys, "symmetric", "--d", "2", "--max-degree", "4")
        assert code == EXIT_OK
        assert "e_{1,1}" in out
        assert "n_{1,1} = 1" in out
        assert "degree 4: span 13 vs invariants 13  ok" in out

    def test_structured_symmetric(self, capsys):
        code, out, _ = run_main(
            capsys, "symmetric", "--d", "2", "--max-degree", "4", "--format", "structured"
        )
        assert code == EXIT_OK
        document = json.loads(out)
        assert document["results"]["saturated_everywhere"] is True


class TestVerifyCommand:
    def test_verify_passes_at_rank_two(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--d", "2", "--order", "6")
        assert code == EXIT_OK
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_verify_passes_at_rank_one(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--d", "1", "--order", "8")
        assert code == EXIT_OK

    def test_verify_is_deterministic(self, capsys):
        _, first, _ = run_main(capsys, "verify", "--d", "2", "--order", "5")
        _, second, _ = run_main(capsys, "verify", "--d", "2", "--order", "5")
        assert first == second

    def test_structured_verify(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "--d", "1", "--order", "6", "--format", "structured"
        )
        assert code == EXIT_OK
        document = json.loads(out)
        assert document["results"]["all_passed"] is True
        assert all(check["pass"] for check in document["results"]["checks"])

    @pytest.fixture
    def series_without_trace_term(self, monkeypatch):
        """Replace `cli`'s molien_bicomm by one that drops the tr(g) t term."""

        def broken(group):
            def term(g):
                bulk = RationalFunction(UniPoly.one(), char_det(g)) - RationalFunction.one()
                return bulk * bulk

            return group.average(term)

        monkeypatch.setattr("bicomm.cli.molien_bicomm", broken)

    def test_mismatch_plain(self, capsys, series_without_trace_term):
        code, out, _ = run_main(capsys, "verify", "--d", "2", "--order", "3")
        assert code == EXIT_MISMATCH
        lines = out.splitlines()
        assert any(line.startswith("FAIL  ") for line in lines)
        assert "MISMATCH DETECTED" in out
        # Without the tr(g) t term the series misses the linear invariants.
        fail = lines.index("FAIL  symmetric S_2: bicommutative series matches Reynolds dimensions")
        assert lines[fail + 1] == (
            "      symmetric S_2, degree 1: series coefficient 0, brute-force dimension 1"
        )
        assert lines[fail + 2].startswith("PASS  symmetric S_2: classical series")

    def test_mismatch_structured(self, capsys, series_without_trace_term):
        code, out, _ = run_main(
            capsys, "verify", "--d", "2", "--order", "3", "--format", "structured"
        )
        assert code == EXIT_MISMATCH
        results = json.loads(out)["results"]
        assert results["all_passed"] is False
        passed = {check["check"]: check["pass"] for check in results["checks"]}
        assert passed["trivial group series equals free-algebra series (d=2)"] is False
        details = {check["check"]: check.get("detail") for check in results["checks"]}
        assert details["symmetric S_2: bicommutative series matches Reynolds dimensions"] == {
            "group": "symmetric S_2",
            "degree": 1,
            "series": "0",
            "dimension": 1,
        }
        assert all("detail" not in check for check in results["checks"] if check["pass"])


class TestArgumentHandling:
    def test_unknown_flag_rejected(self, capsys):
        code = main(["hilbert", "--group", "x", "--bogus"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_invalid_parameters_rejected_before_output(self, capsys, s2_file):
        for argv in (
            ["hilbert", "--group", s2_file, "--order", "-1"],
            ["nonfg", "--group", s2_file, "--cutoff", "0"],
            ["symmetric", "--d", "1"],
            ["hilbert", "--group", s2_file, "--cap", "0"],
            ["hilbert", "--group", s2_file, "--cap", "-5"],
            ["invariants", "--group", s2_file, "--max-degree", "0"],
            ["invariants", "--group", s2_file, "--max-degree", "-2"],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == EXIT_USAGE
            assert captured.out == ""
            assert "error" in captured.err

    @pytest.mark.parametrize(
        "argv", [["hilbert", "--group", "unread.group"], ["verify"]], ids=["hilbert", "verify"]
    )
    def test_order_must_be_nonnegative(self, capsys, argv):
        parser = build_parser()
        assert parser.parse_args(argv + ["--order", "0"]).order == 0
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + ["--order", "-1"])
        assert exc.value.code == EXIT_USAGE
        assert "--order" in capsys.readouterr().err

    def test_hilbert_order_is_bounded(self, capsys, tmp_path):
        argv = ["hilbert", "--group", "unread.group", "--order", str(MAX_ORDER)]
        assert build_parser().parse_args(argv).order == MAX_ORDER
        # The file is missing, so only an argument check can give exit 2.
        missing = str(tmp_path / "missing.group")
        code, out, err = run_main(capsys, "hilbert", "--group", missing, "--order", "20000")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--order" in err

    @pytest.mark.parametrize(
        "bounds, flag",
        [
            (["--cutoff", "0"], "--cutoff"),
            (["--cutoff", "3", "--max-degree", "3"], "--max-degree"),
        ],
        ids=["cutoff 0", "max-degree at cutoff"],
    )
    def test_nonfg_bounds_checked_before_the_group_loads(
        self, capsys, scaling_file, bounds, flag
    ):
        code, out, err = run_main(capsys, "nonfg", "--group", scaling_file, *bounds)
        assert code == EXIT_USAGE
        assert out == ""
        assert "error" in err
        assert flag in err

    @pytest.mark.parametrize(
        "argv",
        [["--d", "1", "--order", "300"], ["--d", "9"]],
        ids=["too many monomials", "rank above the bound"],
    )
    def test_verify_request_is_bounded(self, capsys, argv):
        code, out, err = run_main(capsys, "verify", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--d" in err

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["--d", "6"], ["--d"]),
            (["--d", "40", "--max-degree", "2"], ["--d"]),
            (["--d", "3", "--max-degree", "9"], ["--d", "--max-degree"]),
        ],
        ids=["rank above the bound", "rank far above the bound", "too many monomials"],
    )
    def test_symmetric_request_is_bounded(self, capsys, argv, flags):
        code, out, err = run_main(capsys, "symmetric", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        for flag in flags:
            assert flag in err

    @pytest.mark.parametrize(
        "generators, argv",
        [
            ([], ["invariants", "--max-degree", "78"]),
            ([[["-1"]]], ["nonfg", "--cutoff", "1", "--max-degree", "78"]),
        ],
        ids=["invariants", "nonfg with an early gap"],
    )
    def test_group_request_is_bounded(self, capsys, tmp_path, generators, argv):
        # Rank 1, degrees 1..78: 3,004 monomials, over MAX_MONOMIALS.
        path = tmp_path / "rank1.group"
        path.write_text(json.dumps({"d": 1, "generators": generators}))
        code, out, err = run_main(capsys, argv[0], "--group", str(path), *argv[1:])
        assert code == EXIT_USAGE
        assert out == ""
        assert "--max-degree 78" in err

    def test_largest_admitted_invariants_request_at_rank_two(self, capsys, s2_file):
        code, out, _ = run_main(capsys, "invariants", "--group", s2_file, "--max-degree", "14")
        assert code == EXIT_OK
        assert "degree 14: dimension" in out

    def test_missing_subcommand_rejected(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_module_entry_point(self, s2_file):
        result = subprocess.run(
            [sys.executable, "-m", "bicomm", "hilbert", "--group", s2_file, "--order", "4"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == EXIT_OK
        assert "[0, 1, 2, 6, 13]" in result.stdout

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_closed_stdout_is_not_an_error(self, s2_file, fmt):
        # At the largest order the output is far larger than a 64 KB pipe
        # buffer, so the child is still writing when the reader goes away.
        argv = ["hilbert", "--group", s2_file, "--order", str(MAX_ORDER), "--format", fmt]
        child = subprocess.Popen(
            [sys.executable, "-m", "bicomm", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        child.stdout.read(10)
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=120) == EXIT_OK
        assert "Traceback" not in err
