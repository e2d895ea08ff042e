import json
import subprocess
import sys
from fractions import Fraction

import pytest

from bicomm import RationalFunction, UniPoly
from bicomm.cli import (
    EXIT_CAP,
    EXIT_GROUP_FILE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
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


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rational_function(payload):
    return RationalFunction(
        UniPoly.from_coeffs([Fraction(c) for c in payload["numerator"]]),
        UniPoly.from_coeffs([Fraction(c) for c in payload["denominator"]]),
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

    def test_infinite_group_exceeds_rank_bound(self, capsys, tmp_path):
        path = tmp_path / "scaling.group"
        path.write_text(json.dumps({"d": 2, "generators": [[["2", "0"], ["0", "1"]]]}))
        code, out, err = run_main(capsys, "hilbert", "--group", str(path))
        assert code == EXIT_CAP
        assert out == ""
        assert "cap of 12 elements" in err

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

    def test_missing_subcommand_rejected(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_module_entry_point(self, s2_file):
        result = subprocess.run(
            [sys.executable, "-m", "bicomm", "hilbert", "--group", s2_file, "--order", "4"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_OK
        assert "[0, 1, 2, 6, 13]" in result.stdout
