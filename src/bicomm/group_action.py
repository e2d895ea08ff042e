"""Finite groups of rational matrices and their diagonal action on the algebra.

A group element g sends the generator x_j to sum_i g[i][j] x_i, and acts on
the bulk variables the same way (y_j and z_j transform exactly like x_j), so
the action is by algebra automorphisms.  Groups are materialized as explicit
element lists, closed under multiplication by breadth-first search from the
identity.  A matrix is kept as integer numerators over one common
denominator, so the closure's products and det(1 - g t) run on integers.
Each generator must pass an exact finite-order test, and so must the 4
newest elements at 256, 512, ... elements (Schur: an infinite group has an
element of infinite order); B(d), the largest order of a finite subgroup of
GL_d(Q), and the cap are the backstop.  The test divides det(1 - g t) by
1 - t and the cyclotomic Phi_n with `UniPoly.exact_quotient`.
The Reynolds operator is the plain group average, taken over the
polynomial lift of an element (see `algebra_core`), with which it commutes.

This module also owns the on-disk group format: a JSON document with an
integer field "d" in 1..16 and a field "generators" holding d x d arrays of
rationals written as "p/q" or "p" strings.
"""

from __future__ import annotations

import json
import math
import operator
import re
import reprlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from pathlib import Path
from typing import Iterable, Sequence

from .algebra_core import BicommElement, UniPoly, YZPolynomial, _exact, power_by_squaring
from .algebra_core import _WIDTH, _masks

DEFAULT_CLOSURE_CAP = 100_000

# The largest rank a group file may declare: char_det is O(d^4) per element
# and an identity matrix alone holds d^2 entries.
_MAX_FILE_RANK = 16

class CapExceededError(RuntimeError):
    """Raised when a closure grows past its cap (infinite or oversized group)."""


class SingularMatrixError(ValueError):
    """Raised when a would-be group generator is not invertible."""


class GroupFileError(ValueError):
    """Raised when a group file is missing, malformed or inconsistent."""


class RationalMatrix:
    """An immutable square matrix of exact rationals, hashable for dedup.

    The matrix is kept in one canonical integer form: its entries, row by
    row, as integer numerators over one positive common denominator, with no
    factor common to all of them.  Equality and hashing read that form, and
    a product is one integer product, reduced once.  `entries`, the rows of
    values (`int`s when the common denominator is 1, `Fraction`s otherwise),
    is worked out from it when read.  The images of one-alphabet monomials,
    which `act_bulk` reads, are built on first use and kept.
    """

    __slots__ = ("size", "_numerators", "_denominator", "_hash", "_images")

    def __init__(self, entries) -> None:
        # An entry is an int, a Fraction or a group-file literal such as "2/4".
        rows = [[parse_rational(v) if isinstance(v, str) else _exact(v) for v in row]
                for row in entries]
        d = len(rows)
        if d == 0 or any(len(row) != d for row in rows):
            raise ValueError("matrix must be square and nonempty")
        # Over the lcm of the reduced denominators no common factor is left.
        q = math.lcm(*(v.denominator for row in rows for v in row))
        numerators = tuple(v.numerator * (q // v.denominator) for row in rows for v in row)
        self._init(d, numerators, q)

    def _init(self, d: int, numerators: tuple[int, ...], denominator: int) -> None:
        set_slot = object.__setattr__
        set_slot(self, "size", d)
        set_slot(self, "_numerators", numerators)
        set_slot(self, "_denominator", denominator)
        set_slot(self, "_hash", hash((numerators, denominator)))
        set_slot(self, "_images", {})

    @classmethod
    def _reduced(cls, d: int, numerators: list[int], denominator: int) -> "RationalMatrix":
        """The matrix numerators / denominator (denominator > 0), reduced."""
        common = math.gcd(denominator, *numerators)
        if common != 1:
            numerators = [n // common for n in numerators]
            denominator //= common
        matrix = object.__new__(cls)
        matrix._init(d, tuple(numerators), denominator)
        return matrix

    def __setattr__(self, name, value):
        raise AttributeError(f"RationalMatrix is immutable; cannot set {name!r}")

    @property
    def entries(self) -> tuple[tuple[int | Fraction, ...], ...]:
        d, q = self.size, self._denominator
        values = self._numerators if q == 1 else [Fraction(n, q) for n in self._numerators]
        return tuple(tuple(values[i : i + d]) for i in range(0, d * d, d))

    def _image(self, part: int) -> YZPolynomial:
        """The image of the one-alphabet monomial `part` (packed exponent
        fields, no degree field): 1 for part 0, the `act_linear` column for a
        variable, else image(part / v) * image(v) for v the variable of its
        lowest nonzero field.  Each is built once, with one product, and kept;
        a loop, not recursion, walks down to the nearest kept image."""
        images = self._images
        if not images:
            images[0] = YZPolynomial.constant(self.size, 1)
        missing = []
        while part not in images:
            field = ((part & -part).bit_length() - 1) // _WIDTH
            missing.append((part, field))
            part -= 1 << _WIDTH * field
        image = images[part]
        for part, field in reversed(missing):
            v = 1 << _WIDTH * field
            if v not in images:
                d = self.size
                column = act_linear(self, [int(i == field % d) for i in range(d)])
                images[v] = YZPolynomial.linear("yz"[field // d], column)
            if part != v:
                images[part] = image * images[v]
            image = images[part]
        return image

    def _rows(self) -> list[tuple[int, ...]]:
        d, a = self.size, self._numerators
        return [a[i : i + d] for i in range(0, d * d, d)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self._denominator == other._denominator
            and self._numerators == other._numerators
        )

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def identity(cls, d: int) -> "RationalMatrix":
        return diagonal_matrix([1] * d)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        d = self.size
        if d != other.size:
            raise ValueError("matrix sizes differ")
        b = other._numerators
        cols = [b[j::d] for j in range(d)]
        return RationalMatrix._reduced(
            d,
            [sum(map(operator.mul, row, col)) for row in self._rows() for col in cols],
            self._denominator * other._denominator,
        )

    def trace(self) -> int | Fraction:
        total, q = sum(self._numerators[:: self.size + 1]), self._denominator
        return total if q == 1 else Fraction(total, q)

    def char_coefficients(self) -> tuple[int | Fraction, ...]:
        """Coefficients of det(1 - self t), ascending: 1, c_1, ..., c_d;
        `int`s when the common denominator q is 1, like `entries`.

        The Faddeev-LeVerrier trace recursion yields the c_k with
        det(s - self) = s^d + c_1 s^(d-1) + ... + c_d.  It runs on the
        integer matrix M = q * self, where every division by k = 1..d is
        exact, and c_k(self) = c_k(M) / q^k.
        """
        d, q = self.size, self._denominator
        rows = self._rows()
        m = [[int(i == j) for j in range(d)] for i in range(d)]
        coeffs = [1]
        scale = 1
        for k in range(1, d + 1):
            scale *= q
            cols = list(zip(*m))
            if k < d:
                m = [[sum(map(operator.mul, row, col)) for col in cols] for row in rows]
                c = -sum(m[i][i] for i in range(d)) // k
                for i in range(d):
                    m[i][i] += c
            else:
                # The last step needs only the trace of M m.
                c = -sum(sum(map(operator.mul, rows[i], cols[i])) for i in range(d)) // k
            coeffs.append(c if q == 1 else Fraction(c, scale))
        return tuple(coeffs)

    def det(self) -> Fraction:
        """Exact determinant: c_d = det(-self) = (-1)^d det(self)."""
        c_d = self.char_coefficients()[-1]
        return -c_d if self.size % 2 else c_d

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(v) for v in row) for row in self.entries) + "]"

    def __repr__(self) -> str:
        return f"RationalMatrix(entries={self.entries!r})"


def permutation_matrix(perm: Sequence[int]) -> RationalMatrix:
    """Matrix sending x_j to x_perm[j] (0-based image tuple)."""
    d = len(perm)
    if sorted(perm) != list(range(d)):
        raise ValueError(f"not a permutation of 0..{d - 1}: {perm!r}")
    return RationalMatrix([[int(perm[j] == i) for j in range(d)] for i in range(d)])


def diagonal_matrix(values: Sequence) -> RationalMatrix:
    d = len(values)
    return RationalMatrix([[values[i] if i == j else 0 for j in range(d)] for i in range(d)])


@dataclass(frozen=True)
class FiniteGroup:
    """An explicit finite subgroup of GL_d(Q): identity first, no duplicates.

    Instances are produced by `group_closure`, which guarantees closure under
    products and inverses.
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


# The largest order of a finite subgroup of GL_d(Q) for d = 1..10 (Feit 1995;
# Friedland 1997).  Above d = 10 it is 2^d d!, the signed permutations.
_MAX_FINITE_ORDERS = (
    2, 12, 48, 1152, 3840, 103680, 2903040, 696729600, 1393459200, 8360755200
)


def max_finite_order(d: int) -> int:
    """B(d): no finite subgroup of GL_d(Q) has more than this many elements."""
    if d < 1:
        raise ValueError(f"rank must be >= 1, got {d}")
    if d <= len(_MAX_FINITE_ORDERS):
        return _MAX_FINITE_ORDERS[d - 1]
    return 2**d * math.factorial(d)


def _totient(n: int) -> int:
    """Euler's phi(n), by trial division."""
    result, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> UniPoly:
    """1 - t for n = 1, Phi_n(t) for n >= 2: 1 - t^n over the cyclotomic(k)
    for the k < n that divide n, as 1 - t^n is the product over all k | n."""
    poly = UniPoly((1,) + (0,) * (n - 1) + (-1,))
    for k in range(1, n):
        if n % k == 0:
            poly = poly.exact_quotient(cyclotomic(k))
    return poly


def cyclotomic_factors(det: UniPoly) -> dict[int, int] | None:
    """{n: e} with det the product of the cyclotomic(n)^e, for det such as
    det(1 - g t), or None when it is no such product.  Phi_n has degree
    phi(n) <= deg det, which forces n <= 2 deg(det)^2.
    """
    factors: Counter[int] = Counter()
    for n in range(1, 2 * det.degree**2 + 1):
        while _totient(n) <= det.degree and (quotient := det.exact_quotient(cyclotomic(n))):
            det = quotient
            factors[n] += 1
    return factors if det == UniPoly.one() else None


def _has_finite_order(g: RationalMatrix) -> bool:
    """Whether g^m = 1 for some m >= 1, decided exactly.

    The eigenvalues of a matrix of finite order are roots of unity, so
    det(1 - g t) is a product of 1 - t and cyclotomic polynomials Phi_n.
    Then g has finite order exactly when g^m = 1 for m the lcm of those n:
    its minimal polynomial must divide s^m - 1.
    """
    factors = cyclotomic_factors(UniPoly(g.char_coefficients()))
    identity = RationalMatrix.identity(g.size)
    return factors is not None and power_by_squaring(g, math.lcm(*factors), identity) == identity


def group_closure(
    generators: Iterable[RationalMatrix],
    cap: int = DEFAULT_CLOSURE_CAP,
    rank: int | None = None,
) -> FiniteGroup:
    """Close a generator list into a finite group, breadth-first from the identity.

    Elements are enumerated deterministically: the queue is processed in
    discovery order and each element is multiplied on the right by the
    generators in their given order.  Raises `SingularMatrixError` for a
    non-invertible generator, and `CapExceededError` before any closure step
    for a generator of infinite order, at 256, 512, ... elements if one of
    the 4 newest has infinite order, or once the closure grows past `cap` or
    past `max_finite_order(rank)`, which only an infinite group can do.
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
    beyond_cap = (
        f"cap of {limit} elements (no finite subgroup of GL_{rank}(Q) has more than {bound})"
    )

    def require_finite_order(candidates, what):
        for g in candidates:
            if not _has_finite_order(g):
                raise CapExceededError(
                    f"{what} {g} has infinite order, so its group would exceed the {beyond_cap}"
                )

    require_finite_order(gens, "generator")
    identity = RationalMatrix.identity(rank)
    elements = [identity]
    seen = {identity}
    checkpoint = 256
    i = 0
    while i < len(elements):
        current = elements[i]
        i += 1
        for g in gens:
            nxt = current * g
            if nxt not in seen:
                if len(elements) + 1 > limit:
                    raise CapExceededError(f"group closure exceeded {beyond_cap}")
                seen.add(nxt)
                elements.append(nxt)
                if len(elements) == checkpoint:
                    # Schur: an infinite group has an element of infinite order.
                    require_finite_order(elements[-4:], "element")
                    checkpoint *= 2
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


def act_linear(g: RationalMatrix, coeffs: Sequence[int | Fraction]) -> tuple[int | Fraction, ...]:
    """Image of a linear coefficient vector under g, from the integer rows with
    one division by q per coordinate: `int`s for an integer vector when q = 1."""
    if g.size != len(coeffs):
        raise ValueError("rank mismatch between matrix and coefficient vector")
    q = g._denominator
    sums = (sum(map(operator.mul, row, coeffs)) for row in g._rows())
    return tuple(sums) if q == 1 else tuple(Fraction(s, q) for s in sums)


def act_bulk(g: RationalMatrix, poly: YZPolynomial) -> YZPolynomial:
    """Simultaneous substitution y_j -> sum_i g[i][j] y_i, z_j likewise.

    Exact expansion; preserves the bidegree of homogeneous inputs.  Each term
    adds coeff * image(y part) * image(z part), from `g._image`, to a fresh
    polynomial, so no kept image is handed out.
    """
    d = poly.rank
    if g.size != d:
        raise ValueError("rank mismatch between matrix and polynomial")
    y_mask, z_mask = _masks(d)
    out: dict[int, int | Fraction] = {}
    for key, coeff in poly.terms.items():
        for k, c in (g._image(key & y_mask) * g._image(key & z_mask)).terms.items():
            total = out.get(k, 0) + coeff * c
            if total:
                out[k] = total
            else:
                out.pop(k, None)
    return YZPolynomial(d, out)


def act(g: RationalMatrix, element: BicommElement) -> BicommElement:
    """The diagonal action on a full algebra element, its degree-1 part apart
    from its bulk: an independent check of `reynolds`, which acts on lifts."""
    linear = BicommElement.from_linear(element.rank, act_linear(g, element.linear))
    return linear + BicommElement.from_bulk(act_bulk(g, element.bulk))


def reynolds(group: FiniteGroup, element: BicommElement) -> BicommElement:
    """Group average of the orbit of `element`: the projection onto invariants."""
    return BicommElement(group.rank, group.average(lambda g: act_bulk(g, element.lift)))


# [0-9], not \d: int() would also accept digits of other scripts.
_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


def parse_rational(text: str) -> Fraction:
    """Strict "p/q" or "p" parser; lowest terms not required on input.

    Errors quote the value in a bounded form: it may be arbitrarily long or
    deeply nested.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise GroupFileError(f"not a rational literal: {reprlib.repr(text)}")
    value = text.strip()
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise GroupFileError(f"zero denominator in {reprlib.repr(text)}") from None
    except ValueError:
        # More digits than int() converts (sys.get_int_max_str_digits); the
        # limit guards against quadratic-time conversion, so it stays.
        raise GroupFileError(
            f"rational literal of {len(value)} characters is too long"
        ) from None


def format_rational(value: Fraction) -> str:
    """Canonical form: "p/q" with q > 0 in lowest terms, "p" for integers."""
    return str(Fraction(value))


def read_group_file(path) -> tuple[int, list[RationalMatrix]]:
    """Parse and check a group file; returns (rank, generator matrices)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GroupFileError(f"cannot read group file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GroupFileError(f"group file {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise GroupFileError(f"group file {path} is nested too deeply") from None
    if not isinstance(doc, dict):
        raise GroupFileError("group file must be a JSON object")
    if "d" not in doc or "generators" not in doc:
        raise GroupFileError('group file needs fields "d" and "generators"')
    rank = doc["d"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise GroupFileError(f'"d" must be a positive integer, got {rank!r}')
    if rank > _MAX_FILE_RANK:
        raise GroupFileError(f'"d" must be at most {_MAX_FILE_RANK}, got {rank}')
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
