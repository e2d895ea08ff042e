"""Degree-wise invariants by exact linear algebra.

Everything here reduces to one primitive: an incrementally maintained
echelon basis of sparse integer rows.  Orbit sums of the monomial basis
give invariant bases.  One routine, `add_products`, forms every
product span: lower invariants times new generators give the spans that
`nonfg_witness` compares with the invariants, and coefficient-algebra
products applied to module generators give module spans.  A row is a
polynomial's own `terms`, so its columns are packed monomial keys (the
symmetric module search keeps one key per S_d-orbit), and its pivot is its
largest key, the first in canonical order.  All ranks are exact and output
bases have pivots scaled to 1, so every output is canonical and
reproducible.  Coefficients are `int` or `Fraction`; they compare, hash and
print alike.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .algebra_core import (
    BicommElement,
    YZPolynomial,
    basis_component,
    compositions,
    left_factor,
)
from .group_action import FiniteGroup, act_bulk

SparseRow = dict[int, int | Fraction]


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], col: int) -> dict[int, int]:
    """A positive multiple of `row` minus one of `pivot_row` (whose `col`
    entry is positive), zero in `col`; may mutate `row`."""
    p, r = pivot_row[col], row[col]
    g = math.gcd(p, r)
    if p != g:
        row = {c: v * (p // g) for c, v in row.items()}
    factor = r // g
    for c, v in pivot_row.items():
        total = row.get(c, 0) - factor * v
        if total:
            row[c] = total
        else:
            row.pop(c, None)
    return row


def _primitive(row: dict[int, int], lead: int) -> dict[int, int]:
    """`row` divided by its content, signed so that `row[lead]` is positive."""
    g = math.gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


class EchelonBasis:
    """Echelon basis of sparse exact rows, grown one row at a time over Z.

    `add` clears a row's denominators with one lcm and eliminates without
    fractions.  The pivot of a row is its largest column.  Each stored row is
    primitive: integers with no common factor, positive in its pivot column
    and zero in every other pivot column.  `add` returns True exactly when
    the row enlarged the span, which doubles as an exact independence test.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def dimension(self) -> int:
        return len(self._pivots)

    def reduce(self, row: SparseRow) -> dict[int, int]:
        """A positive integer multiple of `row`, fully reduced against the
        current basis: empty exactly when `row` lies in the span.

        Pivot rows are zero in every other pivot column, so eliminating one
        pivot column only rescales the row's other pivot entries: one sweep
        over the pivot columns present in the row, in any order.
        """
        q = math.lcm(*(v.denominator for v in row.values()))
        reduced = {c: v.numerator * (q // v.denominator) for c, v in row.items()}
        for col in [c for c in reduced if c in self._pivots]:
            reduced = _eliminate(reduced, self._pivots[col], col)
        return reduced

    def add(self, row: SparseRow) -> bool:
        reduced = self.reduce(row)
        if not reduced:
            return False
        lead = max(reduced)
        reduced = _primitive(reduced, lead)
        for col, pivot_row in self._pivots.items():
            if lead in pivot_row:
                self._pivots[col] = _primitive(_eliminate(pivot_row, reduced, lead), col)
        self._pivots[lead] = reduced
        return True

    def rows(self) -> list[SparseRow]:
        """The canonical reduced echelon basis, pivots 1, largest pivot first."""
        return [
            {c: Fraction(v, row[col]) for c, v in row.items()}
            for col, row in sorted(self._pivots.items(), reverse=True)
        ]

    def primitive_rows(self) -> list[dict[int, int]]:
        """The stored primitive integer rows, largest pivot first: a basis of
        the same span as `rows()`, for callers that need only the span."""
        return [dict(row) for _, row in sorted(self._pivots.items(), reverse=True)]


def poly_to_row(poly: YZPolynomial) -> SparseRow:
    """The row of a polynomial: its own `terms`, not to be mutated.  Kept
    only because `bench/tracing.py` traces it by name."""
    return poly.terms


def element_to_row(element: BicommElement) -> SparseRow:
    """The row of an element: that of its lift.  Kept only because
    `bench/tracing.py` traces it by name."""
    return poly_to_row(element.lift)


def row_to_element(row: SparseRow, d: int) -> BicommElement:
    """The element whose lift has `row` as its terms.  Kept only because
    `bench/tracing.py` traces it by name."""
    return BicommElement(d, YZPolynomial(d, row))


def _orbit_sums(group: FiniteGroup, monomials: Iterable[YZPolynomial]):
    """The orbit sums S(m), the sum of g m over the group, of the monomials m
    that no earlier image has reached.

    S(m) is |G| times the Reynolds image R(m), so it spans the same line.  If
    g m = c m' for a monomial m', then S(m') = S(m) / c, as S(g m) = S(m): the
    single-term images of m mark the monomials m' they reach, and a marked
    monomial is skipped, since its sum adds nothing to the span.  For a
    monomial group that leaves one sum per orbit.
    """
    covered = set()
    for monomial in monomials:
        if not covered.issuperset(monomial.terms):
            # Summed as they come, one alive at a time; the identity's is first.
            images = (act_bulk(g, monomial) for g in group.elements)
            total = next(images)
            for image in images:
                if len(image.terms) == 1:
                    covered.update(image.terms)
                total = total + image
            yield total


def _invariant_echelon(group: FiniteGroup, n: int) -> EchelonBasis:
    """The row space of the orbit sums of the canonical monomial basis of
    degree n, less those `_orbit_sums` skips: the degree-n G-invariants."""
    if n < 1:
        raise ValueError("invariants live in degrees >= 1")
    d = group.rank
    basis = EchelonBasis()
    for orbit_sum in _orbit_sums(group, (m.lift for m in basis_component(d, n))):
        basis.add(element_to_row(BicommElement(d, orbit_sum)))
    return basis


def invariant_basis(group: FiniteGroup, n: int) -> tuple[BicommElement, ...]:
    """Echelonized basis of the G-invariants in degree n, pivots scaled to 1."""
    d = group.rank
    return tuple(row_to_element(r, d) for r in _invariant_echelon(group, n).rows())


def invariant_dimension(group: FiniteGroup, n: int) -> int:
    """Dimension of the degree-n G-invariants: the rank, with no basis built."""
    return _invariant_echelon(group, n).dimension


def commutative_invariant_dimension(group: FiniteGroup, n: int) -> int:
    """Brute-force dimension of the degree-n G-invariants of K[x_1..x_d].

    Sums the orbits of the commutative monomials through the same
    `_orbit_sums` and row-reduces; this is the oracle the det-based
    closed formula is checked against, and it never touches determinants.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    d = group.rank
    zeros = (0,) * d
    basis = EchelonBasis()
    monomials = (YZPolynomial.monomial(d, alpha, zeros) for alpha in compositions(n, d))
    for orbit_sum in _orbit_sums(group, monomials):
        basis.add(poly_to_row(orbit_sum))
    return basis.dimension


def _by_degree(items, what: str) -> dict[int, list]:
    """Group the nonzero items (elements or polynomials) by their degree.

    Raises ValueError for an item that is not homogeneous.
    """
    by_degree: dict[int, list] = {}
    for item in items:
        if not item:
            continue
        degree = item.homogeneous_degree()
        if degree is None:
            raise ValueError(f"{what} is not homogeneous: {item}")
        by_degree.setdefault(degree, []).append(item)
    return by_degree


@dataclass(frozen=True)
class CutoffGap:
    """First degree at which invariants outgrow the subalgebra they generate."""

    cutoff: int
    gap_degree: int | None
    span_dimension: int | None
    invariant_dimension: int | None


def nonfg_witness(
    group: FiniteGroup, cutoff_bound: int, search_bound: int
) -> tuple[CutoffGap, ...]:
    """Empirical finite-generation gaps, one per cutoff c <= cutoff_bound.

    The gap of c is the first degree n <= search_bound where the subalgebra
    S_c generated by the invariants of degree <= c misses part of Inv(n).
    Below its gap S_c is all invariants, so its degree-n component for n > c
    is P(n), the span of products of lower invariants, for every c.  One
    comparison of dim P(n) with dim Inv(n) per degree serves all cutoffs,
    and bases are built only up to the last degree the report reads.

    Let N(a) be the rows of Inv(a) that grow P(a).  Left- and right-
    commutativity move a generator to the top of any product, so P(n) is
    spanned by g.w and w.g for g in N(a), w in Inv(n - a).  On lifts these
    are left_factor(g) * w and left_factor(w) * g: two `add_products` calls.
    The tests compare the gaps with an all-pairs product span.  A finite
    check, not a proof.
    """
    if not (search_bound > cutoff_bound >= 1):
        raise ValueError("need search_bound > cutoff_bound >= 1")
    # Lifts of Inv(a) and N(a), and their left factors, by degree a.
    invariants, left_invariants, new, left_new = {}, {}, {}, {}
    entries: list[CutoffGap] = []
    for n in range(1, search_bound + 1):
        if len(entries) == cutoff_bound:
            break
        basis = EchelonBasis()
        add_products(basis, left_invariants, new, n)
        add_products(basis, invariants, left_new, n)
        products = basis.dimension
        invariants[n] = [element.lift for element in invariant_basis(group, n)]
        left_invariants[n] = [left_factor(lift) for lift in invariants[n]]
        new[n] = [lift for lift in invariants[n] if basis.add(poly_to_row(lift))]
        left_new[n] = [left_factor(lift) for lift in new[n]]
        if products < len(invariants[n]):
            # The gap of every cutoff below n that has none yet.
            for cutoff in range(len(entries) + 1, min(n, cutoff_bound + 1)):
                entries.append(CutoffGap(cutoff, n, products, len(invariants[n])))
    for cutoff in range(len(entries) + 1, cutoff_bound + 1):
        entries.append(CutoffGap(cutoff, None, None, None))
    return tuple(entries)


# [0-9], not \d, and fullmatch, not $: "y1\u0661" or "y1\n" is no variable name.
_VARIABLE_RE = re.compile(r"([yz])([1-9][0-9]*)")


@dataclass(frozen=True)
class IntegralDependence:
    """A monic polynomial certificate: the variable is a root of it.

    `coefficients` are polynomial coefficients in ascending powers of the
    indeterminate; the leading one is the constant 1.
    """

    variable: YZPolynomial
    coefficients: tuple[YZPolynomial, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def substitute_self(self) -> YZPolynomial:
        """Plug the variable itself into the polynomial; zero certifies it."""
        d = self.variable.rank
        total = YZPolynomial.zero(d)
        power = YZPolynomial.constant(d, 1)
        for coefficient in self.coefficients:
            total = total + coefficient * power
            power = power * self.variable
        return total


def integral_dependence_polynomial(group: FiniteGroup, variable: str) -> IntegralDependence:
    """Expand the product of (x - g(v)) over the group for a single variable v.

    The result is monic of degree |G|; its coefficients are, up to sign, the
    elementary symmetric polynomials of the orbit of v, hence G-invariant,
    and v itself is a root.
    """
    match = _VARIABLE_RE.fullmatch(variable)
    if not match:
        raise ValueError(f"variable must look like y1 or z2, got {variable!r}")
    alphabet, index_text = match.groups()
    index = int(index_text)
    d = group.rank
    if index > d:
        raise ValueError(f"variable index {index} out of range 1..{d}")
    v = YZPolynomial.variable(d, alphabet, index)
    coefficients = [YZPolynomial.constant(d, 1)]
    zero = YZPolynomial.zero(d)
    for g in group.elements:
        image = act_bulk(g, v)
        nxt = []
        for k in range(len(coefficients) + 1):
            shifted = coefficients[k - 1] if k >= 1 else zero
            lowered = image * coefficients[k] if k < len(coefficients) else zero
            nxt.append(shifted - lowered)
        coefficients = nxt
    return IntegralDependence(v, tuple(coefficients))


def add_products(
    basis: EchelonBasis,
    spans: dict[int, list[YZPolynomial]],
    generators_by_degree: dict[int, list[YZPolynomial]],
    n: int,
    keys: set[int] | None = None,
) -> bool:
    """Add the degree-n rows of lower * gen to `basis`; return whether it grew.

    Covers every generator gen of each degree k <= n and every lower in
    spans[n - k].  Every row is added, even once the span has grown.  A
    row is the product's terms, restricted to `keys` when they are given.
    """
    grew = False
    for k, gens in generators_by_degree.items():
        if k > n:
            continue
        for lower in spans[n - k]:
            for gen in gens:
                terms = (lower * gen).terms
                if keys is not None:
                    terms = {key: c for key, c in terms.items() if key in keys}
                grew |= basis.add(terms)
    return grew


def coefficient_spans(
    coefficient_generators, max_degree: int, d: int
) -> dict[int, list[YZPolynomial]]:
    """Degree components of the unital algebra generated by the coefficients.

    Degree 0 is the scalar 1 (the empty product); degree k collects reduced
    products of a generator with a lower component.
    """
    by_degree = _by_degree(coefficient_generators, "coefficient generator")
    spans: dict[int, list[YZPolynomial]] = {0: [YZPolynomial.constant(d, 1)]}
    for k in range(1, max_degree + 1):
        basis = EchelonBasis()
        add_products(basis, spans, by_degree, k)
        spans[k] = [YZPolynomial(d, row) for row in basis.primitive_rows()]
    return spans
