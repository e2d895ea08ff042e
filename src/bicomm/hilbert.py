"""Exact one-variable rational functions and the closed Hilbert-series formulas.

Four generating functions are computed here, all as canonical rational
functions over Q (coprime numerator and denominator, denominator with
constant term 1):

  * the classical Molien average of 1/det(1 - g t),
  * its trace analogue, averaging 1/(1 - tr(g) t),
  * the series of the free bicommutative algebra, d*t + (1/(1-t)^d - 1)^2,
  * the bicommutative Molien analogue, averaging
        (1/det(1 - g t) - 1)^2 + tr(g) t
    over the group.

det(1 - g t) is produced exactly by the Faddeev-LeVerrier trace recursion
of `RationalMatrix.char_coefficients`; no eigenvalue is ever computed, and
everything stays inside Q.  Each averaged term depends on g only through
det(1 - g t), since tr(g) = -c_1, so the three group series are class sums:
one term per distinct det(1 - g t), weighted by the number of elements that
share it (Stanley, Bull. AMS 1, 1979).  `char_classes` finds the classes
once per group.  For a finite group each det(1 - g t) is a product of
1 - t and cyclotomic Phi_n (Derksen-Kemper, ch. 3), so a series is summed
over Z on one common denominator read off those factors, with one gcd at
the end.  Truncated Taylor expansion runs the linear recurrence dictated
by the denominator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import zip_longest
from typing import Sequence

from .algebra_core import ExactArithmetic, format_terms, power_by_squaring
from .group_action import FiniteGroup, RationalMatrix, cyclotomic, cyclotomic_factors

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class UniPoly(ExactArithmetic):
    """Univariate polynomial in t: ascending coefficients, no trailing zeros."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = [Fraction(c) for c in self.coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((_ONE,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        size = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(size))
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if not self.coeffs or not other.coeffs:
                return UniPoly.zero()
            out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return UniPoly(tuple(out))
        if isinstance(other, (int, Fraction)):
            factor = Fraction(other)
            return UniPoly(tuple(c * factor for c in self.coeffs))
        return NotImplemented

    def __pow__(self, exponent: int) -> "UniPoly":
        return power_by_squaring(self, exponent, UniPoly.one())

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.degree
        lead = other.coeffs[-1]
        if len(rem) <= dn:
            return UniPoly.zero(), self
        quot = [_ZERO] * (len(rem) - dn)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + dn] / lead
            if c:
                quot[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return UniPoly(tuple(quot)), UniPoly(tuple(rem[:dn]))

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def monic(self) -> "UniPoly":
        if not self:
            return self
        return self * (1 / self.coeffs[-1])

    def __str__(self) -> str:
        symbols = ["1", "t"] + [f"t^{k}" for k in range(2, len(self.coeffs))]
        return format_terms([(c, s) for c, s in zip(self.coeffs, symbols) if c])

    def __repr__(self) -> str:
        return f"UniPoly({self})"


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q[t] by the Euclidean algorithm."""
    while b:
        a, b = b, (a % b).monic()
    return a.monic()


@dataclass(frozen=True)
class RationalFunction(ExactArithmetic):
    """Canonical rational function in t.

    Construction normalizes: gcd divided out, then both parts scaled so the
    denominator has constant term exactly 1.  Equality of canonical forms is
    plain field-by-field equality.  Denominators that still vanish at t = 0
    after reduction are rejected (every series here is a Taylor series at 0).
    """

    numerator: UniPoly
    denominator: UniPoly

    def __post_init__(self) -> None:
        num, den = self.numerator, self.denominator
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            num, den = UniPoly.zero(), UniPoly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        c = den.coefficient(0)
        if not c:
            raise ValueError("denominator vanishes at t = 0; not a Taylor series")
        if c != 1:
            inv = 1 / c
            num, den = num * inv, den * inv
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(UniPoly.one(), UniPoly.one())

    @classmethod
    def from_poly(cls, poly: UniPoly) -> "RationalFunction":
        return cls(poly, UniPoly.one())

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.numerator, self.denominator)

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(
                self.numerator * other.numerator,
                self.denominator * other.denominator,
            )
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.numerator * Fraction(other), self.denominator)
        return NotImplemented

    def __str__(self) -> str:
        if self.denominator == UniPoly.one():
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


@dataclass(frozen=True)
class TruncatedSeries:
    """Exact Taylor coefficients of degrees 0..N."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("a truncated series has at least the degree-0 coefficient")
        object.__setattr__(
            self, "coefficients", tuple(Fraction(c) for c in self.coefficients)
        )

    def coefficient(self, n: int) -> Fraction:
        return self.coefficients[n]

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coefficients) + "]"


def expand(f: RationalFunction, order: int) -> TruncatedSeries:
    """First order+1 Taylor coefficients of f at t = 0.

    Runs the linear recurrence defined by the denominator; the canonical
    form guarantees the denominator is a unit at 0.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    num = f.numerator
    den = f.denominator.coeffs
    out: list[Fraction] = []
    for n in range(order + 1):
        value = num.coefficient(n)
        for k in range(1, min(n, len(den) - 1) + 1):
            value -= den[k] * out[n - k]
        out.append(value / den[0])
    return TruncatedSeries(tuple(out))


def char_det(g: RationalMatrix) -> UniPoly:
    """det(1 - g t), exactly: 1 + c_1 t + ... + c_d t^d.

    The coefficients come from `RationalMatrix.char_coefficients`, the
    Faddeev-LeVerrier trace recursion.
    """
    return UniPoly(g.char_coefficients())


@lru_cache(maxsize=None)
def char_classes(group: FiniteGroup) -> tuple[tuple[UniPoly, int], ...]:
    """Each distinct det(1 - g t) over the group, with the number of elements
    g that have it, in order of first appearance.

    Cached per group, like `monomial_table`, so the series of one group share
    a single pass over its elements.
    """
    return tuple(Counter(char_det(g) for g in group.elements).items())


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer polynomials in ascending powers."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _int_product(factors: Counter) -> list[int]:
    """The product of the integer polynomials p^e over the entries p: e."""
    return reduce(_int_mul, factors.elements(), [1])


def _class_sum(group: FiniteGroup, term) -> RationalFunction:
    """(1/|G|) times the sum of term(det(1 - g t)) over the elements g, one
    term per class of `char_classes`; ValueError names a det that is not a
    product of cyclotomic factors, as no element of a finite group has one.

    term(det, factors) gets a det's integer coefficients and its factors
    {`cyclotomic(n)`: e}, and returns an integer numerator and a denominator
    {p: e}, the product of the p^e for pairwise coprime integer p.  The
    common denominator D takes each p to its largest e, so D over a class
    denominator needs no division; the numerators are summed over Z, and the
    one `RationalFunction` built at the end runs the only gcd.
    """
    terms = []
    for det, count in char_classes(group):
        factors = cyclotomic_factors(det.coeffs)
        if factors is None:
            raise ValueError(
                f"not a finite group: det(1 - g t) = {det} is no product of cyclotomic factors"
            )
        coeffs = [int(det.coefficient(k)) for k in range(group.rank + 1)]
        terms.append((count, *term(coeffs, {cyclotomic(n): e for n, e in factors.items()})))
    common = Counter()
    for _, _, den in terms:
        common |= Counter(den)
    total = [0]
    for count, num, den in terms:
        part = _int_mul(num, _int_product(common - Counter(den)))
        total = [a + count * b for a, b in zip_longest(total, part, fillvalue=0)]
    return RationalFunction(
        UniPoly(tuple(total)) * Fraction(1, group.order), UniPoly(tuple(_int_product(common)))
    )


def molien_classic(group: FiniteGroup) -> RationalFunction:
    """Average of 1/det(1 - g t): the series of the polynomial invariants."""
    return _class_sum(group, lambda det, factors: ([1], factors))


def dicks_formanek(group: FiniteGroup) -> RationalFunction:
    """Average of 1/(1 - tr(g) t): the free-associative trace analogue.

    With det(1 - g t) = 1 + c_1 t + ..., tr(g) = -c_1, so 1 - tr(g) t is
    1 + c_1 t; distinct ones are coprime.
    """
    return _class_sum(group, lambda det, factors: ([1], {(1, det[1]): 1}))


def hilbert_free_bicomm(d: int) -> RationalFunction:
    """Series of the whole rank-d algebra: d*t + (1/(1-t)^d - 1)^2."""
    if d < 1:
        raise ValueError("rank must be >= 1")
    geometric = RationalFunction(UniPoly.one(), UniPoly((_ONE, -_ONE)) ** d)
    bulk = geometric - RationalFunction.one()
    linear = RationalFunction.from_poly(UniPoly((_ZERO, Fraction(d))))
    return linear + bulk * bulk


def molien_bicomm(group: FiniteGroup) -> RationalFunction:
    """The bicommutative Molien analogue.

    Averages (1/det(1 - g t) - 1)^2 + tr(g) t over the group.  Substituting
    the eigenvalue-scaled variables into the multigraded series of the free
    algebra collapses to exactly this det/trace expression, so the formula
    needs no eigenvalues and stays in Q.  For the trivial group it reduces
    to `hilbert_free_bicomm`.
    """

    def term(det: list[int], factors: dict[tuple[int, ...], int]):
        # (1/det - 1)^2 + tr t = ((1 - det)^2 + tr t det^2) / det^2
        bulk = [0] + [-c for c in det[1:]]
        square, trace = _int_mul(bulk, bulk), [0] + _int_mul(det, det)
        numerator = [a - det[1] * b for a, b in zip_longest(square, trace, fillvalue=0)]
        return numerator, {p: 2 * e for p, e in factors.items()}

    return _class_sum(group, term)
