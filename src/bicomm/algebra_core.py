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
the right.  Every coefficient is an exact `fractions.Fraction`; there is no
floating point anywhere.

The algebra is non-unital and graded: degree 1 is spanned by the x_i, and
degree n >= 2 by the monomials Y^a Z^b with |a| >= 1, |b| >= 1, |a|+|b| = n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

Exponents = tuple[int, ...]
TermKey = tuple[Exponents, Exponents]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    """Canonical monomial order used for bases, row reduction and printing.

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


@dataclass(frozen=True)
class YZPolynomial:
    """Sparse exact polynomial in the 2d commuting variables y_1..y_d, z_1..z_d.

    `terms` maps (y-exponents, z-exponents) to a nonzero Fraction.  Instances
    are immutable by convention: arithmetic always allocates fresh term
    dictionaries and never touches its operands.  The plain constructor
    trusts its input to be canonical (no zero coefficients, exponent tuples
    of length `rank`); use `from_terms` for unchecked external data.
    """

    rank: int
    terms: dict[TermKey, Fraction]

    @classmethod
    def zero(cls, rank: int) -> "YZPolynomial":
        return cls(rank, {})

    @classmethod
    def constant(cls, rank: int, value: Fraction | int) -> "YZPolynomial":
        value = Fraction(value)
        zeros = (0,) * rank
        return cls(rank, {(zeros, zeros): value} if value else {})

    @classmethod
    def variable(cls, rank: int, alphabet: str, index: int) -> "YZPolynomial":
        """The single variable y_index or z_index (1-based index)."""
        if alphabet not in ("y", "z"):
            raise ValueError(f"alphabet must be 'y' or 'z', got {alphabet!r}")
        if not 1 <= index <= rank:
            raise ValueError(f"variable index {index} out of range 1..{rank}")
        coeffs = [_ZERO] * rank
        coeffs[index - 1] = _ONE
        return cls.linear(alphabet, coeffs)

    @classmethod
    def linear(cls, alphabet: str, coeffs: Sequence[Fraction]) -> "YZPolynomial":
        """sum_i coeffs[i] * y_(i+1) for alphabet "y", the same in z for "z".

        Trusted like the plain constructor: coefficients must be Fractions.
        """
        rank = len(coeffs)
        zeros = (0,) * rank
        terms: dict[TermKey, Fraction] = {}
        for i, coeff in enumerate(coeffs):
            if coeff:
                unit = indicator(rank, (i,))
                terms[(unit, zeros) if alphabet == "y" else (zeros, unit)] = coeff
        return cls(rank, terms)

    @classmethod
    def monomial(
        cls,
        rank: int,
        alpha: Exponents,
        beta: Exponents,
        coeff: Fraction | int = 1,
    ) -> "YZPolynomial":
        coeff = Fraction(coeff)
        if not coeff:
            return cls.zero(rank)
        return cls(rank, {(tuple(alpha), tuple(beta)): coeff})

    @classmethod
    def from_terms(
        cls, rank: int, mapping: Mapping[TermKey, Fraction | int]
    ) -> "YZPolynomial":
        """Canonicalize untrusted term data: coerce, validate, drop zeros."""
        terms: dict[TermKey, Fraction] = {}
        for (alpha, beta), coeff in mapping.items():
            if len(alpha) != rank or len(beta) != rank:
                raise ValueError("exponent vectors must have length equal to the rank")
            if any(e < 0 for e in alpha) or any(e < 0 for e in beta):
                raise ValueError("exponents must be nonnegative")
            coeff = Fraction(coeff)
            if coeff:
                terms[(tuple(alpha), tuple(beta))] = coeff
        return cls(rank, terms)

    def is_zero(self) -> bool:
        return not self.terms

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
            total = out.get(key, _ZERO) + coeff
            if total:
                out[key] = total
            else:
                out.pop(key, None)
        return YZPolynomial(self.rank, out)

    def __neg__(self) -> "YZPolynomial":
        return YZPolynomial(self.rank, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "YZPolynomial") -> "YZPolynomial":
        if not isinstance(other, YZPolynomial):
            return NotImplemented
        return self + (-other)

    def _scaled(self, factor: Fraction) -> "YZPolynomial":
        if not factor:
            return YZPolynomial.zero(self.rank)
        return YZPolynomial(self.rank, {k: c * factor for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, YZPolynomial):
            self._check_rank(other)
            out: dict[TermKey, Fraction] = {}
            for (a1, b1), c1 in self.terms.items():
                for (a2, b2), c2 in other.terms.items():
                    key = (
                        tuple(x + y for x, y in zip(a1, a2)),
                        tuple(x + y for x, y in zip(b1, b2)),
                    )
                    total = out.get(key, _ZERO) + c1 * c2
                    if total:
                        out[key] = total
                    else:
                        out.pop(key, None)
            return YZPolynomial(self.rank, out)
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "YZPolynomial":
        return power_by_squaring(self, exponent, YZPolynomial.constant(self.rank, 1))

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if mixed or zero."""
        degrees = {sum(a) + sum(b) for a, b in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def is_bulk(self) -> bool:
        """True when every term has a y factor and a z factor."""
        return all(sum(a) >= 1 and sum(b) >= 1 for a, b in self.terms)

    def __str__(self) -> str:
        ordered = sorted(self.terms, key=term_sort_key)
        return format_terms([(self.terms[k], _format_monomial(k)) for k in ordered])

    def __repr__(self) -> str:
        return f"YZPolynomial(d={self.rank}: {self})"


@dataclass(frozen=True)
class BicommElement:
    """An algebra element: a linear combination of the x_i plus a bulk polynomial.

    The linear part is stored densely (one Fraction per generator), the bulk
    part sparsely.  Every bulk monomial must contain at least one y and one z
    factor; that membership condition is checked at construction time.
    """

    rank: int
    linear: tuple[Fraction, ...]
    bulk: YZPolynomial

    def __post_init__(self) -> None:
        object.__setattr__(self, "linear", tuple(Fraction(c) for c in self.linear))
        if len(self.linear) != self.rank:
            raise ValueError("linear part must have one coefficient per generator")
        if self.bulk.rank != self.rank:
            raise ValueError("bulk polynomial has mismatched rank")
        if not self.bulk.is_bulk():
            raise ValueError("bulk part contains a monomial missing a y or z factor")

    @classmethod
    def zero(cls, rank: int) -> "BicommElement":
        return cls(rank, (_ZERO,) * rank, YZPolynomial.zero(rank))

    @classmethod
    def generator(cls, rank: int, index: int) -> "BicommElement":
        """The free generator x_index (1-based)."""
        if not 1 <= index <= rank:
            raise ValueError(f"generator index {index} out of range 1..{rank}")
        return cls.from_linear(rank, indicator(rank, (index - 1,)))

    @classmethod
    def from_linear(cls, rank: int, coeffs) -> "BicommElement":
        return cls(rank, tuple(Fraction(c) for c in coeffs), YZPolynomial.zero(rank))

    @classmethod
    def from_bulk(cls, poly: YZPolynomial) -> "BicommElement":
        return cls(poly.rank, (_ZERO,) * poly.rank, poly)

    def is_zero(self) -> bool:
        return not self.bulk and not any(self.linear)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _check_rank(self, other: "BicommElement") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} != {other.rank}")

    def __add__(self, other: "BicommElement") -> "BicommElement":
        if not isinstance(other, BicommElement):
            return NotImplemented
        self._check_rank(other)
        linear = tuple(a + b for a, b in zip(self.linear, other.linear))
        return BicommElement(self.rank, linear, self.bulk + other.bulk)

    def __neg__(self) -> "BicommElement":
        return BicommElement(self.rank, tuple(-c for c in self.linear), -self.bulk)

    def __sub__(self, other: "BicommElement") -> "BicommElement":
        if not isinstance(other, BicommElement):
            return NotImplemented
        return self + (-other)

    def _scaled(self, factor: Fraction) -> "BicommElement":
        return BicommElement(
            self.rank,
            tuple(c * factor for c in self.linear),
            self.bulk._scaled(factor),
        )

    def __mul__(self, other):
        """The bicommutative product.

        Folding the four table rules into one statement: the left factor
        contributes its linear part as y variables, the right factor as z
        variables, and the two resulting polynomials multiply commutatively.
        The product of nonzero elements therefore always lies in the bulk.
        """
        if isinstance(other, BicommElement):
            self._check_rank(other)
            left = YZPolynomial.linear("y", self.linear) + self.bulk
            right = YZPolynomial.linear("z", other.linear) + other.bulk
            return BicommElement.from_bulk(left * right)
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(other))
        return NotImplemented

    def homogeneous_degree(self) -> int | None:
        """Degree if homogeneous (1 for linear, n for bulk), else None.

        The zero element carries no degree and returns None.
        """
        has_linear = any(self.linear)
        if has_linear and not self.bulk:
            return 1
        if not has_linear and self.bulk:
            return self.bulk.homogeneous_degree()
        return None

    def __str__(self) -> str:
        parts: list[tuple[Fraction, str]] = []
        for i, coeff in enumerate(self.linear):
            if coeff:
                parts.append((coeff, f"x{i + 1}"))
        for key in sorted(self.bulk.terms, key=term_sort_key):
            parts.append((self.bulk.terms[key], _format_monomial(key)))
        return format_terms(parts)

    def __repr__(self) -> str:
        return f"BicommElement(d={self.rank}: {self})"


class MonomialTable(NamedTuple):
    """The degree-n monomial keys of K[Y_d, Z_d] in canonical order, and the
    position of each key."""

    keys: tuple[TermKey, ...]
    index: dict[TermKey, int]


@lru_cache(maxsize=None)
def monomial_table(d: int, n: int) -> MonomialTable:
    """The one table that indexes the columns of every row reduction, bulk
    elements included.  It is cached and shared: callers must not mutate it.
    """
    keys = tuple(
        (alpha, beta)
        for a in range(n + 1)
        for alpha in compositions(a, d)
        for beta in compositions(n - a, d)
    )
    return MonomialTable(keys, {key: i for i, key in enumerate(keys)})


def yz_monomial_keys(d: int, n: int) -> list[TermKey]:
    """All degree-n monomial keys of the full polynomial ring K[Y_d, Z_d]."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return list(monomial_table(d, n).keys)


def bulk_monomial_keys(d: int, n: int) -> list[TermKey]:
    """The (alpha, beta) keys of the degree-n bulk monomials, canonical order.

    The full table starts with the pure-z monomials and ends with the
    pure-y ones, comb(n + d - 1, d - 1) of each, so the bulk is the slice
    between them.
    """
    if n < 2:
        raise ValueError("bulk monomials start at degree 2")
    keys = monomial_table(d, n).keys
    edge = math.comb(n + d - 1, d - 1)
    return list(keys[edge : len(keys) - edge])


def basis_component(d: int, n: int) -> list[BicommElement]:
    """The canonical monomial basis of the degree-n homogeneous component.

    Degree 1 gives the generators x_1..x_d; degree n >= 2 gives the bulk
    monomials in the canonical order.  There is no degree-0 component: the
    algebra has no unit and no constants.
    """
    if n < 1:
        raise ValueError("the algebra has no homogeneous component of degree < 1")
    if n == 1:
        return [BicommElement.generator(d, i) for i in range(1, d + 1)]
    return [
        BicommElement.from_bulk(YZPolynomial.monomial(d, alpha, beta))
        for alpha, beta in bulk_monomial_keys(d, n)
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


def random_element(
    rng: Random, d: int, max_degree: int = 4, max_terms: int = 3
) -> BicommElement:
    """A sparse random element with small rational coefficients.

    Used by the identity checks: exact equalities over random inputs.
    """
    linear = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
    terms: dict[TermKey, Fraction] = {}
    for _ in range(rng.randint(0, max_terms)):
        n = rng.randint(2, max(2, max_degree))
        a = rng.randint(1, n - 1)
        key = (_random_exponents(rng, a, d), _random_exponents(rng, n - a, d))
        coeff = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
        if coeff:
            terms[key] = coeff
    bulk = YZPolynomial(d, terms)
    return BicommElement(d, linear, bulk)
