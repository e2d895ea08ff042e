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
everything stays inside Q.  Truncated Taylor expansion runs the linear
recurrence dictated by the denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra_core import format_terms, power_by_squaring
from .group_action import FiniteGroup, RationalMatrix

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial in t: ascending coefficients, no trailing zeros."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = [Fraction(c) for c in self.coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def from_coeffs(cls, seq) -> "UniPoly":
        return cls(tuple(Fraction(c) for c in seq))

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((_ONE,))

    @classmethod
    def t(cls) -> "UniPoly":
        return cls((_ZERO, _ONE))

    @classmethod
    def constant(cls, value) -> "UniPoly":
        return cls((Fraction(value),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else _ZERO

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

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

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "UniPoly":
        return power_by_squaring(self, exponent, UniPoly.one())

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.is_zero():
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
        if self.is_zero():
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
class RationalFunction:
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
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = UniPoly.zero(), UniPoly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        c = den.constant_term
        if not c:
            raise ValueError("denominator vanishes at t = 0; not a Taylor series")
        if c != 1:
            inv = 1 / c
            num, den = num * inv, den * inv
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(UniPoly.zero(), UniPoly.one())

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

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(
                self.numerator * other.numerator,
                self.denominator * other.denominator,
            )
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.numerator * Fraction(other), self.denominator)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
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

    @property
    def truncation_order(self) -> int:
        return len(self.coefficients) - 1

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


def molien_classic(group: FiniteGroup) -> RationalFunction:
    """Average of 1/det(1 - g t): the series of the polynomial invariants."""
    return group.average(lambda g: RationalFunction(UniPoly.one(), char_det(g)))


def dicks_formanek(group: FiniteGroup) -> RationalFunction:
    """Average of 1/(1 - tr(g) t): the free-associative trace analogue."""
    return group.average(
        lambda g: RationalFunction(UniPoly.one(), UniPoly((_ONE, -g.trace())))
    )


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

    def term(g: RationalMatrix) -> RationalFunction:
        bulk = RationalFunction(UniPoly.one(), char_det(g)) - RationalFunction.one()
        return bulk * bulk + RationalFunction.from_poly(UniPoly((_ZERO, g.trace())))

    return group.average(term)
