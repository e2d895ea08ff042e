"""Exact one-variable rational functions and the closed Hilbert-series formulas.

Four generating functions are computed here, all as canonical rational
functions over Q (coprime numerator and denominator, denominator with
constant term 1), whose parts are `algebra_core.UniPoly`s:

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
as integer polynomials on one common denominator read off those factors,
with one gcd at the end.  Truncated Taylor expansion is `UniPoly.taylor`,
the low-order-first division by the denominator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .algebra_core import ExactArithmetic, UniPoly
from .group_action import FiniteGroup, RationalMatrix, cyclotomic, cyclotomic_factors


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
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        c = den.coefficient(0)
        if not c:
            raise ValueError("denominator vanishes at t = 0; not a Taylor series")
        if c != 1:
            inv = Fraction(1, c)
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
            return RationalFunction(self.numerator * other, self.denominator)
        return NotImplemented

    def __str__(self) -> str:
        if self.denominator == UniPoly.one():
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


@dataclass(frozen=True)
class TruncatedSeries:
    """Exact Taylor coefficients of degrees 0..N, as `expand` gives them."""

    coefficients: tuple[int | Fraction, ...]


def expand(f: RationalFunction, order: int) -> TruncatedSeries:
    """First order+1 Taylor coefficients of f at t = 0.

    The canonical denominator has constant term 1, so this is the
    low-order-first division `UniPoly.taylor`.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    return TruncatedSeries(f.numerator.taylor(f.denominator, order + 1))


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


def _class_sum(group: FiniteGroup, term) -> RationalFunction:
    """(1/|G|) times the sum of term(det(1 - g t)) over the elements g, one
    term per class of `char_classes`; ValueError names a det that is not a
    product of cyclotomic factors, as no element of a finite group has one.

    term(det, factors) gets a det and its factors {`cyclotomic(n)`: e}, and
    returns a numerator and a denominator {p: e}, the product of the p^e for
    pairwise coprime integer polynomials p.  The common denominator D takes
    each p to its largest e, so D over a class denominator needs no
    division; the numerators are summed over Z, and the one
    `RationalFunction` built at the end runs the only gcd.
    """
    terms = []
    for det, count in char_classes(group):
        factors = cyclotomic_factors(det)
        if factors is None:
            raise ValueError(
                f"not a finite group: det(1 - g t) = {det} is no product of cyclotomic factors"
            )
        terms.append((count, *term(det, {cyclotomic(n): e for n, e in factors.items()})))
    common = Counter()
    for _, _, den in terms:
        common |= Counter(den)
    one, total = UniPoly.one(), UniPoly.zero()
    for count, num, den in terms:
        total = total + num * prod((common - Counter(den)).elements(), start=one) * count
    return RationalFunction(total * Fraction(1, group.order), prod(common.elements(), start=one))


def molien_classic(group: FiniteGroup) -> RationalFunction:
    """Average of 1/det(1 - g t): the series of the polynomial invariants."""
    return _class_sum(group, lambda det, factors: (UniPoly.one(), factors))


def dicks_formanek(group: FiniteGroup) -> RationalFunction:
    """Average of 1/(1 - tr(g) t): the free-associative trace analogue.

    With det(1 - g t) = 1 + c_1 t + ..., tr(g) = -c_1, so 1 - tr(g) t is
    1 + c_1 t; distinct ones are coprime.
    """
    return _class_sum(
        group, lambda det, factors: (UniPoly.one(), {UniPoly((1, det.coefficient(1))): 1})
    )


def hilbert_free_bicomm(d: int) -> RationalFunction:
    """Series of the whole rank-d algebra: d*t + (1/(1-t)^d - 1)^2."""
    if d < 1:
        raise ValueError("rank must be >= 1")
    geometric = RationalFunction(UniPoly.one(), UniPoly((1, -1)) ** d)
    bulk = geometric - RationalFunction.one()
    linear = RationalFunction.from_poly(UniPoly((0, d)))
    return linear + bulk * bulk


def molien_bicomm(group: FiniteGroup) -> RationalFunction:
    """The bicommutative Molien analogue.

    Averages (1/det(1 - g t) - 1)^2 + tr(g) t over the group.  Substituting
    the eigenvalue-scaled variables into the multigraded series of the free
    algebra collapses to exactly this det/trace expression, so the formula
    needs no eigenvalues and stays in Q.  For the trivial group it reduces
    to `hilbert_free_bicomm`.
    """

    def term(det: UniPoly, factors: dict[UniPoly, int]):
        # (1/det - 1)^2 + tr t = ((1 - det)^2 - c_1 t det^2) / det^2
        bulk = UniPoly.one() - det
        numerator = bulk * bulk - UniPoly((0, det.coefficient(1))) * det * det
        return numerator, {p: 2 * e for p, e in factors.items()}

    return _class_sum(group, term)
