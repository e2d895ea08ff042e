"""Finite groups of rational matrices and their diagonal action on the algebra.

A group element g sends the generator x_j to sum_i g[i][j] x_i, and acts on
the bulk variables the same way (y_j and z_j transform exactly like x_j), so
the action is by algebra automorphisms.  Groups are materialized as explicit
element lists, closed under multiplication by breadth-first search from the
identity.  The Reynolds operator is the plain group average.

This module also owns the on-disk group format: a JSON document with an
integer field "d" and a field "generators" holding d x d arrays of rationals
written as "p/q" or "p" strings.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from pathlib import Path
from typing import Iterable, Sequence

from .algebra_core import BicommElement, YZPolynomial

DEFAULT_CLOSURE_CAP = 100_000

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CapExceededError(RuntimeError):
    """Raised when a closure grows past its cap (infinite or oversized group)."""


class SingularMatrixError(ValueError):
    """Raised when a would-be group generator is not invertible."""


class GroupFileError(ValueError):
    """Raised when a group file is missing, malformed or inconsistent."""


@dataclass(frozen=True)
class RationalMatrix:
    """An immutable square matrix of exact rationals, hashable for dedup."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        d = len(rows)
        if d == 0 or any(len(row) != d for row in rows):
            raise ValueError("matrix must be square and nonempty")

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, d: int) -> "RationalMatrix":
        return diagonal_matrix([_ONE] * d)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("matrix sizes differ")
        cols = tuple(zip(*other.entries))
        return RationalMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def trace(self) -> Fraction:
        return sum((self.entries[i][i] for i in range(self.size)), _ZERO)

    def char_coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients of det(1 - self t), ascending: 1, c_1, ..., c_d.

        The Faddeev-LeVerrier trace recursion yields the c_k with
        det(s - self) = s^d + c_1 s^(d-1) + ... + c_d.  Division happens only
        by the integers 1..d, which is harmless in characteristic zero.
        """
        d = self.size
        a = self.entries
        m = [[_ONE if i == j else _ZERO for j in range(d)] for i in range(d)]
        coeffs: list[Fraction] = [_ONE]
        for k in range(1, d + 1):
            m = [
                [sum((a[i][l] * m[l][j] for l in range(d)), _ZERO) for j in range(d)]
                for i in range(d)
            ]
            c = -sum((m[i][i] for i in range(d)), _ZERO) / k
            coeffs.append(c)
            if k < d:
                for i in range(d):
                    m[i][i] += c
        return tuple(coeffs)

    def det(self) -> Fraction:
        """Exact determinant: c_d = det(-self) = (-1)^d det(self)."""
        c_d = self.char_coefficients()[-1]
        return -c_d if self.size % 2 else c_d

    def is_identity(self) -> bool:
        return self == RationalMatrix.identity(self.size)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(v) for v in row) for row in self.entries) + "]"


def permutation_matrix(perm: Sequence[int]) -> RationalMatrix:
    """Matrix sending x_j to x_perm[j] (0-based image tuple)."""
    d = len(perm)
    if sorted(perm) != list(range(d)):
        raise ValueError(f"not a permutation of 0..{d - 1}: {perm!r}")
    return RationalMatrix(
        tuple(
            tuple(_ONE if perm[j] == i else _ZERO for j in range(d)) for i in range(d)
        )
    )


def diagonal_matrix(values: Sequence) -> RationalMatrix:
    vals = [Fraction(v) for v in values]
    d = len(vals)
    return RationalMatrix(
        tuple(tuple(vals[i] if i == j else _ZERO for j in range(d)) for i in range(d))
    )


@dataclass(frozen=True)
class FiniteGroup:
    """An explicit finite subgroup of GL_d(Q): identity first, no duplicates.

    Instances are produced by `group_closure`, which guarantees closure under
    products and inverses; `validate` re-checks those invariants from scratch.
    """

    rank: int
    elements: tuple[RationalMatrix, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def average(self, term):
        """(1/|G|) times the sum of term(g) over the elements g.

        The identity is always an element, so the sum needs no zero of the
        result type to start from.
        """
        return reduce(operator.add, map(term, self.elements)) * Fraction(1, self.order)

    def validate(self) -> None:
        """Re-verify all group axioms by brute force (test support)."""
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate elements")
        if not self.elements or not self.elements[0].is_identity():
            raise ValueError("identity must be present and listed first")
        members = set(self.elements)
        for g in self.elements:
            if g.size != self.rank:
                raise ValueError("element of wrong size")
            if not any((g * h).is_identity() for h in self.elements):
                raise ValueError("element without inverse")
            for h in self.elements:
                if g * h not in members:
                    raise ValueError("not closed under products")


# The largest order of a finite subgroup of GL_d(Q) for d = 1..10 (Feit 1995;
# Friedland 1997).  Above d = 10 it is 2^d d!, the signed permutations.
_MAX_FINITE_ORDERS = (
    2, 12, 48, 1152, 3840, 103680, 2903040, 696729600, 1393459200, 8360755200
)


def max_finite_order(d: int) -> int:
    """B(d): no finite subgroup of GL_d(Q) has more than this many elements."""
    if d <= len(_MAX_FINITE_ORDERS):
        return _MAX_FINITE_ORDERS[d - 1]
    return 2**d * math.factorial(d)


def group_closure(
    generators: Iterable[RationalMatrix],
    cap: int = DEFAULT_CLOSURE_CAP,
    rank: int | None = None,
) -> FiniteGroup:
    """Close a generator list into a finite group, breadth-first from the identity.

    Elements are enumerated deterministically: the queue is processed in
    discovery order and each element is multiplied on the right by the
    generators in their given order.  Raises `CapExceededError` once the
    closure grows past `cap`, or past `max_finite_order(rank)`, which only
    an infinite group can do, and `SingularMatrixError` for a non-invertible
    generator.
    """
    gens = list(generators)
    if rank is None:
        if not gens:
            raise ValueError("rank is required when no generators are given")
        rank = gens[0].size
    for g in gens:
        if g.size != rank:
            raise ValueError("generators must all have the same size")
        if g.det() == 0:
            raise SingularMatrixError(f"generator is singular: {g}")
    bound = max_finite_order(rank)
    limit = min(cap, bound)
    identity = RationalMatrix.identity(rank)
    elements = [identity]
    seen = {identity}
    i = 0
    while i < len(elements):
        current = elements[i]
        i += 1
        for g in gens:
            nxt = current * g
            if nxt not in seen:
                if len(elements) + 1 > limit:
                    raise CapExceededError(
                        f"group closure exceeded cap of {limit} elements (no "
                        f"finite subgroup of GL_{rank}(Q) has more than {bound})"
                    )
                seen.add(nxt)
                elements.append(nxt)
    return FiniteGroup(rank, tuple(elements))


def trivial_group(d: int) -> FiniteGroup:
    return group_closure([], rank=d)


def adjacent_transpositions(d: int) -> list[RationalMatrix]:
    """The d - 1 permutation matrices that swap neighbouring coordinates."""
    gens = []
    for i in range(d - 1):
        perm = list(range(d))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(permutation_matrix(perm))
    return gens


def symmetric_group(d: int) -> FiniteGroup:
    """S_d as permutation matrices, generated by adjacent transpositions."""
    return group_closure(adjacent_transpositions(d), rank=d)


def act_linear(g: RationalMatrix, coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Image of a linear coefficient vector: the vector maps by the matrix g."""
    if g.size != len(coeffs):
        raise ValueError("rank mismatch between matrix and coefficient vector")
    return tuple(
        sum((row[j] * coeffs[j] for j in range(g.size)), _ZERO) for row in g.entries
    )


def act_bulk(g: RationalMatrix, poly: YZPolynomial) -> YZPolynomial:
    """Simultaneous substitution y_j -> sum_i g[i][j] y_i, z_j likewise.

    Exact expansion; preserves the bidegree of homogeneous inputs.
    """
    d = poly.rank
    if g.size != d:
        raise ValueError("rank mismatch between matrix and polynomial")
    columns = tuple(zip(*g.entries))
    total = YZPolynomial.zero(d)
    for (alpha, beta), coeff in poly.terms.items():
        term = YZPolynomial.constant(d, coeff)
        for alphabet, exponents in (("y", alpha), ("z", beta)):
            for j, e in enumerate(exponents):
                if e:
                    term = term * YZPolynomial.linear(alphabet, columns[j]) ** e
        total = total + term
    return total


def act(g: RationalMatrix, element: BicommElement) -> BicommElement:
    """The diagonal action on a full algebra element."""
    if g.size != element.rank:
        raise ValueError("rank mismatch between matrix and element")
    return BicommElement(
        element.rank, act_linear(g, element.linear), act_bulk(g, element.bulk)
    )


def reynolds(group: FiniteGroup, element: BicommElement) -> BicommElement:
    """Group average of the orbit of `element`: the projection onto invariants."""
    if group.rank != element.rank:
        raise ValueError("rank mismatch between group and element")
    return group.average(lambda g: act(g, element))


# [0-9], not \d: int() would also accept digits of other scripts.
_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


def parse_rational(text: str) -> Fraction:
    """Strict "p/q" or "p" parser; lowest terms not required on input."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise GroupFileError(f"not a rational literal: {text!r}")
    value = text.strip()
    if "/" in value:
        num, den = value.split("/")
        if int(den) == 0:
            raise GroupFileError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(value))


def format_rational(value: Fraction) -> str:
    """Canonical form: "p/q" with q > 0 in lowest terms, "p" for integers."""
    return str(Fraction(value))


def group_file_document(rank: int, generators: Iterable[RationalMatrix]) -> dict:
    """The JSON-ready document for a group file, rationals in canonical form."""
    return {
        "d": rank,
        "generators": [
            [[format_rational(v) for v in row] for row in g.entries]
            for g in generators
        ],
    }


def read_group_file(path) -> tuple[int, list[RationalMatrix]]:
    """Parse and validate a group file; returns (rank, generator matrices)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GroupFileError(f"cannot read group file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GroupFileError(f"group file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GroupFileError("group file must be a JSON object")
    if "d" not in doc or "generators" not in doc:
        raise GroupFileError('group file needs fields "d" and "generators"')
    rank = doc["d"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise GroupFileError(f'"d" must be a positive integer, got {rank!r}')
    raw_gens = doc["generators"]
    if not isinstance(raw_gens, list):
        raise GroupFileError('"generators" must be a list of matrices')
    generators = []
    for idx, raw in enumerate(raw_gens):
        if not isinstance(raw, list) or len(raw) != rank:
            raise GroupFileError(f"generator {idx} is not a {rank}x{rank} array")
        rows = []
        for row in raw:
            if not isinstance(row, list) or len(row) != rank:
                raise GroupFileError(f"generator {idx} is not a {rank}x{rank} array")
            rows.append(tuple(parse_rational(v) for v in row))
        generators.append(RationalMatrix(tuple(rows)))
    return rank, generators


def load_group(path, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Read a group file and close its generators into a FiniteGroup."""
    rank, generators = read_group_file(path)
    try:
        return group_closure(generators, cap=cap, rank=rank)
    except SingularMatrixError as exc:
        raise GroupFileError(f"group file {path}: {exc}") from exc
