"""The benchmark's inputs: seeded group files and the job list of each workload.

Every group is written as a JSON group file, so the program sees only files.
The seed draws one conjugator P; the groups named with a trailing "P" are
P G P^-1 for the group G without it.  Everything else is fixed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

Matrix = tuple[tuple[Fraction, ...], ...]


def _matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def _identity(d: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


def _permutation(perm) -> Matrix:
    """Matrix sending basis vector j to basis vector perm[j]."""
    d = len(perm)
    return _matrix([[int(perm[j] == i) for j in range(d)] for i in range(d)])


def _transpositions(d: int) -> list[Matrix]:
    gens = []
    for i in range(d - 1):
        perm = list(range(d))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(_permutation(perm))
    return gens


def _sign_change(d: int) -> Matrix:
    rows = _identity(d)
    rows[0][0] = Fraction(-1)
    return _matrix(rows)


def _simple_reflections(d: int) -> list[Matrix]:
    """Simple reflections of the root system A_d in simple-root coordinates.

    s_i fixes every simple root but alpha_i and alpha_(i+-1): row i is
    e_i - (row i of the Cartan matrix).  They generate S_(d+1) as integer,
    non-monomial matrices.
    """
    gens = []
    for i in range(d):
        rows = _identity(d)
        for j in range(d):
            cartan = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
            rows[i][j] -= cartan
        gens.append(_matrix(rows))
    return gens


def _mul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def inverse(m: Matrix) -> Matrix | None:
    """Exact inverse by Gauss-Jordan elimination; None when m is singular."""
    d = len(m)
    aug = [list(row) + ident for row, ident in zip(m, _identity(d))]
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [v / lead for v in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug)


def _has_fraction(m: Matrix) -> bool:
    return any(v.denominator != 1 for row in m for v in row)


def base_groups() -> dict[str, list[Matrix]]:
    """Generators of the unconjugated groups, by name."""
    swap = _permutation((1, 0))
    return {
        "B_4": _transpositions(4) + [_sign_change(4)],
        "A_4": _simple_reflections(4),
        "B_3": _transpositions(3) + [_sign_change(3)],
        "B_2": [swap, _sign_change(2)],
        "C_4": [_matrix([[0, -1], [1, 0]])],
        "S_3": _transpositions(3),
        "D_6": [_matrix([[1, -1], [1, 0]]), swap],
    }


def conjugated(base: str) -> str:
    return base + "P"


CONJUGATED = ("S_3", "B_3")
MAX_DENOMINATOR = 100


def _conjugate(p: Matrix, p_inv: Matrix, gens: list[Matrix]) -> list[Matrix]:
    return [_mul(_mul(p, g), p_inv) for g in gens]


def conjugator(seed: int) -> Matrix:
    """The seeded 3 x 3 rational matrix P of the conjugated groups.

    Entries are p/q with 1 <= |p| <= 3 and 1 <= q <= 4.  P is invertible,
    and P and P^-1 each have a non-integer entry.  Every entry of every
    generator of each conjugated group is nonzero with a denominator of at
    most MAX_DENOMINATOR, so P is not monomial and the work of the
    conjugated jobs varies little from seed to seed: zero entries make
    them cheaper and large denominators dearer.
    """
    rng = random.Random(seed)
    bases = base_groups()
    while True:
        p = _matrix(
            [[Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for _ in range(3)]
             for _ in range(3)]
        )
        p_inv = inverse(p)
        if p_inv is None or not (_has_fraction(p) and _has_fraction(p_inv)):
            continue
        entries = [
            v for name in CONJUGATED for g in _conjugate(p, p_inv, bases[name]) for row in g for v in row
        ]
        if all(v and v.denominator <= MAX_DENOMINATOR for v in entries):
            return p


def all_groups(seed: int) -> dict[str, list[Matrix]]:
    """Every group the workloads use; S_3P and B_3P depend on the seed."""
    groups = base_groups()
    p = conjugator(seed)
    p_inv = inverse(p)
    for name in CONJUGATED:
        groups[conjugated(name)] = _conjugate(p, p_inv, groups[name])
    return groups


def group_document(gens: list[Matrix]) -> dict:
    return {
        "d": len(gens[0]),
        "generators": [[[str(v) for v in row] for row in g] for g in gens],
    }


def write_groups(seed: int, directory: Path) -> dict[str, Path]:
    """Write every group file into `directory`; returns name -> path."""
    paths = {}
    for name, gens in all_groups(seed).items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(group_document(gens)))
        paths[name] = path
    return paths


# A job is (id, argv); an argv word "@NAME" stands for the file of group NAME.
# Each job runs once per pass through `bicomm.cli.main(argv + STRUCTURED)`.
WORKLOADS: dict[str, list[tuple[str, list[str]]]] = {
    # Time goes to hilbert (char_det, RationalFunction addition, poly_gcd) and
    # closure; B_4 alone is about 17 s.  No invariants code runs here.
    "series": [
        ("hilbert B_4", ["hilbert", "--group", "@B_4", "--order", "20"]),
        ("hilbert A_4", ["hilbert", "--group", "@A_4", "--order", "20"]),
        ("hilbert B_3", ["hilbert", "--group", "@B_3", "--order", "20"]),
        ("hilbert B_3P", ["hilbert", "--group", "@B_3P", "--order", "20"]),
    ],
    # act_bulk on dense non-monomial matrices with non-integer entries;
    # S_3P also emits the largest structured document.
    "invariants-rational": [
        ("invariants D_6", ["invariants", "--group", "@D_6", "--max-degree", "8"]),
        ("invariants S_3P", ["invariants", "--group", "@S_3P", "--max-degree", "5"]),
        ("invariants B_3P", ["invariants", "--group", "@B_3P", "--max-degree", "4"]),
        ("invariants A_4", ["invariants", "--group", "@A_4", "--max-degree", "3"]),
    ],
    # Monomial groups; every gap shows by degree 6 but bases are computed to
    # the search bound.  verify adds the brute-force oracle routes.
    "nonfg-monomial": [
        ("nonfg B_2", ["nonfg", "--group", "@B_2", "--cutoff", "4", "--max-degree", "10"]),
        ("nonfg S_3", ["nonfg", "--group", "@S_3", "--cutoff", "3", "--max-degree", "7"]),
        ("nonfg C_4", ["nonfg", "--group", "@C_4", "--cutoff", "4", "--max-degree", "9"]),
        ("verify d2", ["verify", "--d", "2", "--order", "10"]),
        ("verify d3", ["verify", "--d", "3", "--order", "6"]),
    ],
    # coefficient_spans and module-span rows: large symmetric products.
    "symmetric": [
        ("symmetric d3", ["symmetric", "--d", "3", "--max-degree", "8"]),
        ("symmetric d2", ["symmetric", "--d", "2", "--max-degree", "12"]),
    ],
}

STRUCTURED = ["--format", "structured"]


def job_argv(argv: list[str], paths: dict[str, Path]) -> list[str]:
    """The argv with group placeholders replaced by file paths."""
    return [str(paths[word[1:]]) if word.startswith("@") else word for word in argv] + STRUCTURED
