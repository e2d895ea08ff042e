"""Byte-identity of every subcommand's output on small fixed inputs.

Each job runs through `cli.main` in both output formats; the SHA-256 of its
stdout (with the group-file path replaced by a placeholder) and its exit code
must match the digests below.  A refactor that changes any printed byte, in
either format, fails here.  S_3^P is S_3 conjugated by a fixed non-monomial
rational matrix, so non-integer entries and dense images are covered too.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from bicomm.cli import main

_P = [[2, 1, 0], [0, 1, 1], [1, 0, 1]]
_P_INV = [
    ["1/3", "-1/3", "1/3"],
    ["1/3", "2/3", "-2/3"],
    ["-1/3", "1/3", "2/3"],
]
_S_3 = [
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
]


def _mul(a, b):
    return [
        [sum(Fraction(x) * Fraction(y) for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]


GROUPS = {
    "S_2": [[[0, 1], [1, 0]]],
    "C_4": [[[0, -1], [1, 0]]],
    "S_3": _S_3,
    "D_6": [[[1, -1], [1, 0]], [[0, 1], [1, 0]]],
    "S_3P": [_mul(_mul(_P, g), _P_INV) for g in _S_3],
    "trivial": [],  # of rank 2
}

JOBS = [
    *(("hilbert", name, ["--order", "6"]) for name in GROUPS),
    *(("invariants", name, ["--max-degree", "3"]) for name in GROUPS),
    ("nonfg", "S_2", ["--cutoff", "2", "--max-degree", "4"]),
    ("nonfg", "C_4", ["--cutoff", "2", "--max-degree", "4"]),
    ("nonfg", "C_4", ["--cutoff", "4", "--max-degree", "9"]),
    ("nonfg", "D_6", ["--cutoff", "1", "--max-degree", "3"]),
    ("nonfg", "S_3", ["--cutoff", "1", "--max-degree", "3"]),
    ("nonfg", "S_3P", ["--cutoff", "1", "--max-degree", "3"]),
    ("nonfg", "trivial", ["--cutoff", "1", "--max-degree", "5"]),
    ("symmetric", None, ["--d", "2", "--max-degree", "5"]),
    ("symmetric", None, ["--d", "3", "--max-degree", "4"]),
    ("verify", None, ["--d", "1", "--order", "4"]),
    ("verify", None, ["--d", "2", "--order", "4"]),
    ("verify", None, ["--d", "3", "--order", "3"]),
]

# (exit code, SHA-256 of stdout) per job id, recorded before the engine's
# duplicate code paths were merged; the C_4 cutoff-4 job's digests were
# recorded before `nonfg` seeded its spans with the invariant bases, and the
# trivial group's (its nonfg job finds no gap, so the scan runs to
# --max-degree) before `nonfg` built each basis and product span on first use.
DIGESTS = {
    "hilbert S_2 --order 6 plain": [0, "dea39843a75fabbd8cb3968b0d2cf00a89aa0531cfe56591721c0def46d6b514"],
    "hilbert S_2 --order 6 structured": [0, "8d953fd6ae02f69896818cf53d19c71d60e247d70c00085a949b7694335e1cc9"],
    "hilbert C_4 --order 6 plain": [0, "e1ef6646830e05408202c2ec13fefda6c27603d1782c110237da4c7466a167d5"],
    "hilbert C_4 --order 6 structured": [0, "a7d5a6249622b0c81ff1bb5a4321fd025a27b11273330f16afedae3a6b74c629"],
    "hilbert S_3 --order 6 plain": [0, "b9a840d35ae8e6f49bcf7e93451e4bc30db825968ce8dcb951ea687a67475d0d"],
    "hilbert S_3 --order 6 structured": [0, "1230dc040d04d8c0d47758c7017d8e6138f3a0c6839ff5d6910a8f5764681d9d"],
    "hilbert D_6 --order 6 plain": [0, "9180433d43057139db5561c899be884c16a5e5992bf0518c6699c816e0856b8b"],
    "hilbert D_6 --order 6 structured": [0, "fe3f0d22db0333a598c60918df1c07f12915896c738d3cf658a1b086f6addf25"],
    "hilbert S_3P --order 6 plain": [0, "b9a840d35ae8e6f49bcf7e93451e4bc30db825968ce8dcb951ea687a67475d0d"],
    "hilbert S_3P --order 6 structured": [0, "1230dc040d04d8c0d47758c7017d8e6138f3a0c6839ff5d6910a8f5764681d9d"],
    "hilbert trivial --order 6 plain": [0, "52cdb594967919b2ab52a9ecde6455b6e214f8e933c9b5bcec036d8853d31b23"],
    "hilbert trivial --order 6 structured": [0, "06ba6948841e1f52d66a93f288e36caed01451e213d82260f7c575545ee0b3cc"],
    "invariants S_2 --max-degree 3 plain": [0, "f5ec38c5e22c2b632f69fce67cf2c2d70a336b8a0dd73ea0ee32646e0e3be347"],
    "invariants S_2 --max-degree 3 structured": [0, "77eb68478b1d5fb60f9c069a69dbe83f32f98785e0c17ba00332465e6a9f5cb2"],
    "invariants C_4 --max-degree 3 plain": [0, "e56d7320700f335a99454df60a0c3f9440a93508b3b32a6c4f777f169636df6e"],
    "invariants C_4 --max-degree 3 structured": [0, "9c9ad807f2a6bf9210337495b82f2797ab28da43b5846212f0f54c66dd460b4d"],
    "invariants S_3 --max-degree 3 plain": [0, "a33f0bab2c19de5f9f96403e26ba3e9dc0a7a1e19793e950b74edcf1a29d23c2"],
    "invariants S_3 --max-degree 3 structured": [0, "19179dca3fd0ec3b6e49a07571872e033409e22873ff346a77520063268b06b6"],
    "invariants D_6 --max-degree 3 plain": [0, "21ab3fe64d9b961759c475c1d6a6bd578b78fe4ba03e3681b8bacfacb7bed106"],
    "invariants D_6 --max-degree 3 structured": [0, "f901ca77e3dc22abe98577b4679620ded775fa45ca2e63333772e8fa9a04ad36"],
    "invariants S_3P --max-degree 3 plain": [0, "e51af2f320bd626f1d04961369da72265310f261c323b482b20592a7cb43d7b9"],
    "invariants S_3P --max-degree 3 structured": [0, "33ccdb9617a6b89b39b7c02b060dbb57e9ecd7de27e14b118bfd56e9345723e2"],
    "invariants trivial --max-degree 3 plain": [0, "08cd09f40a76b8dab5f017acbd1491b9cc5449870fbec978b4a50c7de178f90e"],
    "invariants trivial --max-degree 3 structured": [0, "afad42bb34027d8bae80d9dcdc68ae38705b82ecc7131dfb52e19c7937e136ab"],
    "nonfg S_2 --cutoff 2 --max-degree 4 plain": [0, "1f0517a8067fe6c8ceb148c5e3590be770d9d89bf06274c047334c8abcd48eee"],
    "nonfg S_2 --cutoff 2 --max-degree 4 structured": [0, "4546e08401ec0b9e0bac7c81ef6b1f3624e2481fc34ff299ae36bef0330751df"],
    "nonfg C_4 --cutoff 2 --max-degree 4 plain": [0, "bba8704c29042a212343f7c6cba619d0e3cb7fce45ce6b4fbf5690cbeb7bb426"],
    "nonfg C_4 --cutoff 2 --max-degree 4 structured": [0, "28690b98c182e2dcc7e241e87241b4603e4729f8ee1dd9a920c3fd2a5abeb8d6"],
    "nonfg C_4 --cutoff 4 --max-degree 9 plain": [0, "06b0d1f0ac8b03f4868c4832ed0206f6d580e2c7310a5a55babcbe295cc4d577"],
    "nonfg C_4 --cutoff 4 --max-degree 9 structured": [0, "05660bb6bfbc0b83cd8fce3e93fdd060dab9f658dbaf1b4fc109fef28386d498"],
    "nonfg D_6 --cutoff 1 --max-degree 3 plain": [0, "dcf1d11c456046fe2e0d3fdfb517ac5375d7689077140da766f4dfd61a3f8f1b"],
    "nonfg D_6 --cutoff 1 --max-degree 3 structured": [0, "1459ee04a02bb2cc975db7b4e66f7513474e5cdbd2a997d02932da774e59b09f"],
    "nonfg S_3 --cutoff 1 --max-degree 3 plain": [0, "4542025c3dcd8bd3ad72f7f4e58d37fa8a36e56bb20b26499060256381e91cac"],
    "nonfg S_3 --cutoff 1 --max-degree 3 structured": [0, "8f491888c470d5744155ec6662cede888571b9f0c82df879b1b1f077e4dc5fb3"],
    "nonfg S_3P --cutoff 1 --max-degree 3 plain": [0, "4542025c3dcd8bd3ad72f7f4e58d37fa8a36e56bb20b26499060256381e91cac"],
    "nonfg S_3P --cutoff 1 --max-degree 3 structured": [0, "8f491888c470d5744155ec6662cede888571b9f0c82df879b1b1f077e4dc5fb3"],
    "nonfg trivial --cutoff 1 --max-degree 5 plain": [0, "24cc810447ee7b643213744d56757edffa01d64c74ec1affda731563dd8bfd71"],
    "nonfg trivial --cutoff 1 --max-degree 5 structured": [0, "e5a6575aade9e64b5e6ac8b96ecb909fd336c3c2864d1a776c879940f3f5b0ab"],
    "symmetric - --d 2 --max-degree 5 plain": [0, "fcff1990d1527d72bb6904a6cf3ef20c6ef2c7cbb704761724bf4f9954eacfec"],
    "symmetric - --d 2 --max-degree 5 structured": [0, "ecba29275b1cd90543082d85cc9ee4e38c67641e1dc4d22ea3b6d0d6d8151b74"],
    "symmetric - --d 3 --max-degree 4 plain": [0, "3460872545994adf24118ce35bd18dd303034269bb6f90a33b902df5190df46d"],
    "symmetric - --d 3 --max-degree 4 structured": [0, "5e568bc3e6189167c0eabb469f57d7e96b2844c4f27a1522d30f2ec6c024a687"],
    "verify - --d 1 --order 4 plain": [0, "d924e3d244e68d14c4797f7473853e6cbdb063080b07b703fb5ebafccf12d660"],
    "verify - --d 1 --order 4 structured": [0, "98f043f555bcb364f35bd25bcf93087449117496b72f724021f929007a61956a"],
    "verify - --d 2 --order 4 plain": [0, "636eaf0c01c953e5e3ea0e4dc96af480b1ea499057092aa42bbd3b11e23537f5"],
    "verify - --d 2 --order 4 structured": [0, "8038902574314426932c9f76274db43eea5ded8713c5b57792c5befa830ac293"],
    "verify - --d 3 --order 3 plain": [0, "000ebf5e5bd28304cded71c79ec547bcea3a5868361190215b968353aedfa7ac"],
    "verify - --d 3 --order 3 structured": [0, "fb137c5867ed204178e51a97dbe040f027add44328a4c0dd6b293f55274dc219"],
}

PLACEHOLDER = "<GROUP>"


def _job_id(command, group, extra, fmt):
    return " ".join([command, group or "-", *extra, fmt])


def run_job(command, group, extra, fmt, directory):
    """Run one job through `cli.main`; returns (exit code, stdout digest)."""
    argv = [command]
    path = None
    if group is not None:
        path = str(directory / f"{group}.group")
        rows = [[[str(Fraction(v)) for v in row] for row in g] for g in GROUPS[group]]
        with open(path, "w") as handle:
            json.dump({"d": len(rows[0]) if rows else 2, "generators": rows}, handle)
        argv += ["--group", path]
    argv += [*extra, "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    if path is not None:
        text = text.replace(path, PLACEHOLDER)
    return code, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["plain", "structured"])
@pytest.mark.parametrize(
    "command,group,extra", JOBS, ids=[" ".join(_job_id(*job, "").split()) for job in JOBS]
)
def test_output_is_byte_identical(command, group, extra, fmt, tmp_path):
    got = run_job(command, group, extra, fmt, tmp_path)
    assert list(got) == DIGESTS[_job_id(command, group, extra, fmt)]
