"""Concrete model of the free bicommutative algebra on d generators over Q.

The algebra lives on the vector space

    K.{x_1, ..., x_d}  (+)  w(K[y_1..y_d]) * w(K[z_1..z_d])

where w(A) denotes the polynomials of A without constant term.  Products of
the generators x_i land in the polynomial part according to the table

    x_i * x_j               = y_i z_j
    x_i * (Y^a Z^b)         = y_i Y^a Z^b
    (Y^a Z^b) * x_j         = Y^a Z^b z_j
    (Y^a Z^b) * (Y^c Z^e)   = Y^(a+c) Z^(b+e)

so the "bulk" of the algebra multiplies like an ordinary commutative
polynomial ring, while generators feed a y in from the left and a z in from
the right.  Every coefficient is an exact `int` or `fractions.Fraction`;
they compare, hash and print alike, and there is no floating point anywhere.

The algebra is non-unital and graded: degree 1 is spanned by the x_i, and
degree n >= 2 by the monomials Y^a Z^b with |a| >= 1, |b| >= 1, |a|+|b| = n.

An element is stored as one polynomial of K[Y, Z], its lift: x_i becomes
z_i and the bulk is kept as it is.  The group acts on the y_j and z_j as on
the x_j, so the lift turns sums, coordinates and group averages into those
of polynomials; only the product needs the x_i back, as y_i on the left
(`left_factor`).

A monomial y^a z^b is stored as one `int` key (`pack`): the exponent of
y_(i+1) in bits [16i, 16i + 16), that of z_(j+1) in bits [16(d + j),
16(d + j) + 16), and the total degree above bit 32d, in a field with no
width limit.  Keys order by degree first, and the key of a product is the
sum of the keys, which `YZPolynomial.__mul__` keeps exact by refusing any
product of degree 2^16 or more.  `unpack` gives the exponent tuples back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from random import Random
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

Exponents = tuple[int, ...]
TermKey = tuple[Exponents, Exponents]
_WIDTH = 16
_LIMIT = 1 << _WIDTH


def pack(d: int, alpha: Exponents, beta: Exponents) -> int:
    """The packed key of y^alpha z^beta in rank d; each exponent in 0..2^16 - 1."""
    if len(alpha) != d or len(beta) != d:
        raise ValueError(f"exponent tuples must have length {d}")
    key = 0
    for i, e in enumerate((*alpha, *beta)):
        if not 0 <= e < _LIMIT:
            raise ValueError(f"exponent {e} out of range 0..{_LIMIT - 1}")
        key |= e << _WIDTH * i
    return key | (sum(alpha) + sum(beta)) << 2 * _WIDTH * d


def unpack(d: int, key: int) -> TermKey:
    """The (y-exponents, z-exponents) of a packed rank-d key."""
    exps = [key >> _WIDTH * i & _LIMIT - 1 for i in range(2 * d)]
    return tuple(exps[:d]), tuple(exps[d:])


def _masks(d: int) -> tuple[int, int]:
    """The y field and the z field of a packed rank-d key."""
    y_mask = (1 << _WIDTH * d) - 1
    return y_mask, y_mask << _WIDTH * d


def _exact(value):
    """`value` itself if it is an int (not a bool) or a Fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"coefficient must be an int or a Fraction, got {value!r}")
    return value


def compositions(total: int, parts: int) -> Iterator[Exponents]:
    """All tuples of `parts` nonnegative integers summing to `total`.

    Emitted in descending lexicographic order, so (total, 0, ..., 0) comes
    first and (0, ..., 0, total) last.
    """
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def indicator(d: int, indices: Iterable[int]) -> Exponents:
    """The length-d exponent tuple with a 1 at each given 0-based index."""
    exps = [0] * d
    for i in indices:
        exps[i] = 1
    return tuple(exps)


def power_by_squaring(base, exponent: int, one):
    """base ** exponent by repeated squaring; `one` is the empty product."""
    if exponent < 0:
        raise ValueError("negative powers are not defined")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def term_sort_key(key: TermKey) -> tuple:
    """Canonical order of unpacked keys: that of `monomial_table` (so of
    bases and row reduction) and of printing.

    Sorts by total degree, then y-degree, then y-exponents descending-lex,
    then z-exponents descending-lex.  Within one homogeneous component this
    puts low y-degree first and, per block, y1/z1-heavy monomials first.
    """
    alpha, beta = key
    da, db = sum(alpha), sum(beta)
    return (da + db, da, tuple(-a for a in alpha), tuple(-b for b in beta))


def _format_monomial(key: TermKey) -> str:
    alpha, beta = key
    factors = []
    for name, exps in (("y", alpha), ("z", beta)):
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"{name}{i + 1}")
            elif e > 1:
                factors.append(f"{name}{i + 1}^{e}")
    return "*".join(factors) if factors else "1"


def format_terms(parts: list[tuple[Fraction, str]]) -> str:
    """Join (coefficient, symbol) pairs into a signed sum like '2*a - b/3'."""
    if not parts:
        return "0"
    chunks: list[str] = []
    for coeff, symbol in parts:
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        if symbol == "1":
            body = str(mag)
        elif mag == 1:
            body = symbol
        else:
            body = f"{mag}*{symbol}"
        if not chunks:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)


class ExactArithmetic:
    """`-` and reflected scalar `*`, defined once for the exact value types.

    A subclass supplies `__add__`, `__neg__` and a `__mul__` that accepts an
    int or a Fraction; scalars commute with every value here.
    """

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented


@dataclass(frozen=True)
class YZPolynomial(ExactArithmetic):
    """Sparse exact polynomial in the 2d commuting variables y_1..y_d, z_1..z_d.

    `terms` maps packed monomial keys (`pack`) to a nonzero `int` or
    `Fraction` (they compare, hash and print alike).  Instances are
    immutable by convention: arithmetic always allocates fresh term
    dictionaries and never touches its operands.  The plain constructor
    trusts its input to be canonical (no zero coefficients, keys packed for
    `rank`).
    """

    rank: int
    terms: dict[int, int | Fraction]

    @classmethod
    def zero(cls, rank: int) -> "YZPolynomial":
        return cls(rank, {})

    @classmethod
    def constant(cls, rank: int, value: int | Fraction) -> "YZPolynomial":
        value = _exact(value)
        return cls(rank, {0: value} if value else {})

    @classmethod
    def variable(cls, rank: int, alphabet: str, index: int) -> "YZPolynomial":
        """The single variable y_index or z_index (1-based index)."""
        if not 1 <= index <= rank:
            raise ValueError(f"variable index {index} out of range 1..{rank}")
        coeffs = [0] * rank
        coeffs[index - 1] = 1
        return cls.linear(alphabet, coeffs)

    @classmethod
    def linear(cls, alphabet: str, coeffs: Sequence[int | Fraction]) -> "YZPolynomial":
        """sum_i coeffs[i] * y_(i+1) for alphabet "y", the same in z for "z".

        Trusted like the plain constructor: coefficients must be ints or
        Fractions; they compare, hash and print alike.
        """
        if alphabet not in ("y", "z"):
            raise ValueError(f"alphabet must be 'y' or 'z', got {alphabet!r}")
        rank = len(coeffs)
        first = 0 if alphabet == "y" else rank
        degree_one = 1 << 2 * _WIDTH * rank
        terms = {
            degree_one | 1 << _WIDTH * (first + i): coeff
            for i, coeff in enumerate(coeffs)
            if coeff
        }
        return cls(rank, terms)

    @classmethod
    def monomial(
        cls,
        rank: int,
        alpha: Exponents,
        beta: Exponents,
        coeff: int | Fraction = 1,
    ) -> "YZPolynomial":
        coeff = _exact(coeff)
        if not coeff:
            return cls.zero(rank)
        return cls(rank, {pack(rank, tuple(alpha), tuple(beta)): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_rank(self, other: "YZPolynomial") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} != {other.rank}")

    def __add__(self, other: "YZPolynomial") -> "YZPolynomial":
        if not isinstance(other, YZPolynomial):
            return NotImplemented
        self._check_rank(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            total = out.get(key, 0) + coeff
            if total:
                out[key] = total
            else:
                out.pop(key, None)
        return YZPolynomial(self.rank, out)

    def __neg__(self) -> "YZPolynomial":
        return YZPolynomial(self.rank, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, YZPolynomial):
            self._check_rank(other)
            # Every exponent is at most the degree, so below 2^16 no field carries.
            shift = 2 * _WIDTH * self.rank
            d1, d2 = max(self.terms, default=0) >> shift, max(other.terms, default=0) >> shift
            if d1 + d2 >= _LIMIT:
                raise ValueError(f"product of degree {d1 + d2} exceeds the limit {_LIMIT - 1}")
            out: dict[int, int | Fraction] = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    key = k1 + k2
                    total = out.get(key, 0) + c1 * c2
                    if total:
                        out[key] = total
                    else:
                        out.pop(key, None)
            return YZPolynomial(self.rank, out)
        if isinstance(other, (int, Fraction)):
            if not other:
                return YZPolynomial.zero(self.rank)
            return YZPolynomial(self.rank, {k: c * other for k, c in self.terms.items()})
        return NotImplemented

    def __pow__(self, exponent: int) -> "YZPolynomial":
        return power_by_squaring(self, exponent, YZPolynomial.constant(self.rank, 1))

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if mixed or zero."""
        if not self.terms:
            return None
        shift = 2 * _WIDTH * self.rank
        low, high = min(self.terms) >> shift, max(self.terms) >> shift
        return low if low == high else None

    def ordered_terms(self) -> list[tuple[TermKey, int | Fraction]]:
        """(unpacked key, coefficient) pairs in the order of `term_sort_key`."""
        pairs = ((unpack(self.rank, k), c) for k, c in self.terms.items())
        return sorted(pairs, key=lambda pair: term_sort_key(pair[0]))

    def __str__(self) -> str:
        return format_terms([(c, _format_monomial(k)) for k, c in self.ordered_terms()])

    def __repr__(self) -> str:
        return f"YZPolynomial(d={self.rank}: {self})"


@dataclass(frozen=True)
class UniPoly(ExactArithmetic):
    """Univariate polynomial in t: ascending `int` or `Fraction` coefficients,
    no trailing zeros.  An integral `Fraction` is kept as its `int`, so an
    integer polynomial stays one through the gcd of `RationalFunction`."""

    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = [
            c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c
            for c in map(_exact, self.coeffs)
        ]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, k: int) -> int | Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return UniPoly(tuple(a + b for a, b in pairs))

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return UniPoly(tuple(out))
        if isinstance(other, (int, Fraction)):
            return UniPoly(tuple(c * other for c in self.coeffs))
        return NotImplemented

    def __pow__(self, exponent: int) -> "UniPoly":
        return power_by_squaring(self, exponent, UniPoly.one())

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, lead = other.degree, other.coeffs[-1]
        quot = [0] * (len(rem) - dn)
        for i in range(len(quot) - 1, -1, -1):
            c = Fraction(rem[i + dn], lead)
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
        return self * Fraction(1, self.coeffs[-1])

    def taylor(self, divisor: "UniPoly", terms: int) -> tuple[int | Fraction, ...]:
        """The first `terms` Taylor coefficients of self / divisor at t = 0,
        for a divisor with constant term 1.

        Low order first: the coefficient of t^n is self's minus the sum of
        divisor[k] times the coefficient of t^(n - k), so nothing is divided
        and integer data stays `int`.
        """
        num, den = self.coeffs, divisor.coeffs
        if not den or den[0] != 1:
            raise ValueError(f"divisor {divisor} does not have constant term 1")
        out: list[int | Fraction] = []
        for n in range(terms):
            value = num[n] if n < len(num) else 0
            for k in range(1, min(n, len(den) - 1) + 1):
                value -= den[k] * out[n - k]
            out.append(value)
        return tuple(out)

    def exact_quotient(self, divisor: "UniPoly") -> "UniPoly | None":
        """self / divisor for a divisor with constant term 1, or None when
        the division leaves a remainder.

        The Taylor quotient q to degree deg(self) has q * divisor = self up
        to that degree, so it divides exactly when q stops at
        deg(self) - deg(divisor).
        """
        top = max(len(self.coeffs) - divisor.degree, 0)
        quotient = self.taylor(divisor, len(self.coeffs))
        return None if any(quotient[top:]) else UniPoly(quotient[:top])

    def __str__(self) -> str:
        symbols = ["1", "t"] + [f"t^{k}" for k in range(2, len(self.coeffs))]
        return format_terms([(c, s) for c, s in zip(self.coeffs, symbols) if c])

    def __repr__(self) -> str:
        return f"UniPoly({self})"


def left_factor(lift: YZPolynomial) -> YZPolynomial:
    """A lift as the left factor of a product: each generator z_i becomes y_i."""
    y_mask, z_mask = _masks(lift.rank)
    half = _WIDTH * lift.rank
    terms = {
        k if k & y_mask else k - (k & z_mask) + ((k & z_mask) >> half): c
        for k, c in lift.terms.items()
    }
    return YZPolynomial(lift.rank, terms)


def _in_model(d: int) -> Callable[[int], bool]:
    """The test whether a rank-d lift key is a monomial of the model: a
    generator z_i, or a bulk monomial with at least one y and one z factor.
    The masks are read once, for every key the test is applied to."""
    y_mask, z_mask = _masks(d)
    shift = 2 * _WIDTH * d
    return lambda key: bool(key & z_mask and (key & y_mask or key >> shift == 1))


@dataclass(frozen=True)
class BicommElement(ExactArithmetic):
    """An algebra element, stored as its lift: x_i becomes z_i, the bulk stays.

    The lift is linear, injective and commutes with the group action, so
    sums, scalars and group averages are those of the one polynomial.
    Every term of `lift` must pass `_in_model`; construction checks it.
    """

    rank: int
    lift: YZPolynomial

    def __post_init__(self) -> None:
        if self.lift.rank != self.rank:
            raise ValueError("lift has mismatched rank")
        if not all(map(_in_model(self.rank), self.lift.terms)):
            raise ValueError("lift term is neither a z_i nor a bulk monomial")

    @classmethod
    def generator(cls, rank: int, index: int) -> "BicommElement":
        """The free generator x_index (1-based)."""
        if not 1 <= index <= rank:
            raise ValueError(f"generator index {index} out of range 1..{rank}")
        return cls.from_linear(rank, indicator(rank, (index - 1,)))

    @classmethod
    def from_linear(cls, rank: int, coeffs) -> "BicommElement":
        coeffs = [_exact(c) for c in coeffs]
        if len(coeffs) != rank:
            raise ValueError("linear part must have one coefficient per generator")
        return cls(rank, YZPolynomial.linear("z", coeffs))

    @classmethod
    def from_bulk(cls, poly: YZPolynomial) -> "BicommElement":
        y_mask, in_model = _masks(poly.rank)[0], _in_model(poly.rank)
        if not all(key & y_mask and in_model(key) for key in poly.terms):
            raise ValueError("bulk part contains a monomial missing a y or z factor")
        return cls(poly.rank, poly)

    @property
    def linear(self) -> tuple[int | Fraction, ...]:
        """The coefficients of x_1..x_d (the z_i, first in `monomial_table(d, 1)`)."""
        generators = monomial_table(self.rank, 1).keys[: self.rank]
        return tuple(self.lift.terms.get(key, 0) for key in generators)

    @property
    def bulk(self) -> YZPolynomial:
        """The terms of degree >= 2."""
        y_mask = _masks(self.rank)[0]
        terms = self.lift.terms
        return YZPolynomial(self.rank, {k: c for k, c in terms.items() if k & y_mask})

    def __bool__(self) -> bool:
        return bool(self.lift)

    def __add__(self, other: "BicommElement") -> "BicommElement":
        if not isinstance(other, BicommElement):
            return NotImplemented
        return BicommElement(self.rank, self.lift + other.lift)

    def __neg__(self) -> "BicommElement":
        return BicommElement(self.rank, -self.lift)

    def __mul__(self, other):
        """The bicommutative product.

        Folding the four table rules into one statement: the left factor's
        generators z_i become y_i, and the two polynomials multiply
        commutatively.  The product of nonzero elements therefore always
        lies in the bulk.
        """
        if isinstance(other, BicommElement):
            return BicommElement(self.rank, left_factor(self.lift) * other.lift)
        if isinstance(other, (int, Fraction)):
            return BicommElement(self.rank, self.lift * other)
        return NotImplemented

    def homogeneous_degree(self) -> int | None:
        """Degree if homogeneous (1 for linear, n for bulk), else None.

        The zero element carries no degree and returns None.
        """
        return self.lift.homogeneous_degree()

    def __str__(self) -> str:
        parts: list[tuple[Fraction, str]] = []
        for key, coeff in self.lift.ordered_terms():
            alpha, beta = key
            symbol = _format_monomial(key) if any(alpha) else f"x{beta.index(1) + 1}"
            parts.append((coeff, symbol))
        return format_terms(parts)

    def __repr__(self) -> str:
        return f"BicommElement(d={self.rank}: {self})"


class MonomialTable(NamedTuple):
    """The degree-n packed monomial keys of K[Y_d, Z_d] in canonical order,
    and the position of each key."""

    keys: tuple[int, ...]
    index: dict[int, int]


@lru_cache(maxsize=None)
def monomial_table(d: int, n: int) -> MonomialTable:
    """The one table that indexes the columns of every row reduction, bulk
    elements included.  It is cached and shared: callers must not mutate it.
    """
    keys = tuple(
        pack(d, alpha, beta)
        for a in range(n + 1)
        for alpha in compositions(a, d)
        for beta in compositions(n - a, d)
    )
    return MonomialTable(keys, {key: i for i, key in enumerate(keys)})


def basis_component(d: int, n: int) -> list[BicommElement]:
    """The canonical monomial basis of the degree-n homogeneous component:
    the keys of `monomial_table(d, n)` that are monomials of the model.

    Degree 1 gives the generators x_1..x_d; degree n >= 2 gives the bulk
    monomials in the canonical order.  There is no degree-0 component: the
    algebra has no unit and no constants.
    """
    if n < 1:
        raise ValueError("the algebra has no homogeneous component of degree < 1")
    return [
        BicommElement(d, YZPolynomial(d, {key: 1}))
        for key in filter(_in_model(d), monomial_table(d, n).keys)
    ]


def dim_component(d: int, n: int) -> int:
    """Dimension of the degree-n component, by the closed binomial count."""
    if n < 1:
        raise ValueError("the algebra has no homogeneous component of degree < 1")
    if n == 1:
        return d
    return sum(
        math.comb(a + d - 1, d - 1) * math.comb(n - a + d - 1, d - 1)
        for a in range(1, n)
    )


def _random_exponents(rng: Random, total: int, parts: int) -> Exponents:
    exps = [0] * parts
    for _ in range(total):
        exps[rng.randrange(parts)] += 1
    return tuple(exps)


def random_element(rng: Random, d: int) -> BicommElement:
    """A sparse random element with small rational coefficients: up to three
    bulk terms of degree 2..4.  Integral coefficients are `int`s.

    Used by the identity checks: exact equalities over random inputs.
    """
    linear = tuple(rng.randint(-2, 2) for _ in range(d))
    terms: dict[int, int | Fraction] = {}
    for _ in range(rng.randint(0, 3)):
        n = rng.randint(2, 4)
        a = rng.randint(1, n - 1)
        key = pack(d, _random_exponents(rng, a, d), _random_exponents(rng, n - a, d))
        coeff = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
        if coeff:
            terms[key] = coeff.numerator if coeff.denominator == 1 else coeff
    bulk = BicommElement.from_bulk(YZPolynomial(d, terms))
    return BicommElement.from_linear(d, linear) + bulk
