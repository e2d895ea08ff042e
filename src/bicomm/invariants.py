"""Degree-wise invariants by exact linear algebra.

Everything here reduces to one primitive: an incrementally maintained
reduced echelon basis of sparse rational rows.  Reynolds images of the
monomial basis give invariant bases; iterated products of lower-degree
spans give subalgebra components; coefficient-algebra products applied to
module generators give module spans.  All ranks are exact, columns are
indexed by the canonical monomial order, and pivots are scaled to 1, so
every output is canonical and reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra_core import (
    BicommElement,
    YZPolynomial,
    basis_component,
    compositions,
    monomial_table,
)
from .group_action import FiniteGroup, act_bulk, reynolds

SparseRow = dict[int, Fraction]

_ZERO = Fraction(0)


def _axpy(target: SparseRow, factor: Fraction, source: SparseRow) -> None:
    """target += factor * source, dropping entries that cancel to zero."""
    for col, value in source.items():
        total = target.get(col, _ZERO) + factor * value
        if total:
            target[col] = total
        else:
            target.pop(col, None)


class EchelonBasis:
    """Reduced echelon basis of sparse rational rows, grown one row at a time.

    Stored rows always form the unique reduced echelon basis of the span so
    far: each row has a leading 1 in its pivot column and zeros in every
    other pivot column.  `add` returns True exactly when the row enlarged
    the span, which doubles as an exact independence test.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, SparseRow] = {}

    @property
    def dimension(self) -> int:
        return len(self._pivots)

    def reduce(self, row: SparseRow) -> SparseRow:
        """Fully reduce a copy of `row` against the current basis.

        Pivot rows contain no other pivot columns, so eliminating the pivot
        columns present in the row, in one ascending sweep, cannot
        reintroduce any.
        """
        row = dict(row)
        for col in sorted(c for c in row if c in self._pivots):
            if col in row:
                _axpy(row, -row[col], self._pivots[col])
        return row

    def add(self, row: SparseRow) -> bool:
        reduced = self.reduce(row)
        if not reduced:
            return False
        lead = min(reduced)
        inv = 1 / reduced[lead]
        reduced = {c: v * inv for c, v in reduced.items()}
        for pivot_row in self._pivots.values():
            if lead in pivot_row:
                _axpy(pivot_row, -pivot_row[lead], reduced)
        self._pivots[lead] = reduced
        return True

    def rows(self) -> list[SparseRow]:
        return [dict(self._pivots[c]) for c in sorted(self._pivots)]


def rref(rows) -> list[SparseRow]:
    """Reduced row echelon form of a batch of sparse rows (canonical)."""
    basis = EchelonBasis()
    for row in rows:
        basis.add(row)
    return basis.rows()


def poly_to_row(poly: YZPolynomial, degree: int) -> SparseRow:
    """Coordinates of a degree-n polynomial over `monomial_table(d, n)`."""
    index = monomial_table(poly.rank, degree).index
    return {index[key]: c for key, c in poly.terms.items()}


def _row_to_poly(row: SparseRow, d: int, degree: int) -> YZPolynomial:
    keys = monomial_table(d, degree).keys
    return YZPolynomial(d, {keys[c]: v for c, v in row.items()})


def element_to_row(element: BicommElement, degree: int) -> SparseRow:
    """Coordinates of a homogeneous element: over the generators in degree 1,
    over `monomial_table(d, degree)` above (the bulk is one contiguous slice
    of its columns, so pivots come out in the same order)."""
    if degree == 1:
        return {i: c for i, c in enumerate(element.linear) if c}
    return poly_to_row(element.bulk, degree)


def row_to_element(row: SparseRow, d: int, degree: int) -> BicommElement:
    if degree == 1:
        coeffs = [_ZERO] * d
        for col, value in row.items():
            coeffs[col] = value
        return BicommElement.from_linear(d, coeffs)
    return BicommElement.from_bulk(_row_to_poly(row, d, degree))


@dataclass(frozen=True)
class InvariantBasis:
    """Row-reduced basis of the degree-n invariants of the algebra."""

    degree: int
    elements: tuple[BicommElement, ...]

    @property
    def dimension(self) -> int:
        return len(self.elements)


def invariant_basis(group: FiniteGroup, n: int) -> InvariantBasis:
    """Echelonized basis of the G-invariants in degree n.

    Computed as the row space of the Reynolds images of the canonical
    monomial basis, reduced with pivots scaled to 1.
    """
    if n < 1:
        raise ValueError("invariants live in degrees >= 1")
    d = group.rank
    basis = EchelonBasis()
    for monomial in basis_component(d, n):
        basis.add(element_to_row(reynolds(group, monomial), n))
    elements = tuple(row_to_element(r, d, n) for r in basis.rows())
    return InvariantBasis(degree=n, elements=elements)


def invariant_dimension(group: FiniteGroup, n: int) -> int:
    return invariant_basis(group, n).dimension


def commutative_invariant_dimension(group: FiniteGroup, n: int) -> int:
    """Brute-force dimension of the degree-n G-invariants of K[x_1..x_d].

    Averages each commutative monomial over the group and row-reduces; this
    is the oracle the det-based closed formula is checked against, and it
    never touches determinants.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    d = group.rank
    zeros = (0,) * d
    basis = EchelonBasis()
    for alpha in compositions(n, d):
        monomial = YZPolynomial.monomial(d, alpha, zeros)
        basis.add(poly_to_row(group.average(lambda g: act_bulk(g, monomial)), n))
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


def _span_levels(generators, max_degree: int, d: int):
    """Yield (degree, reduced span basis) of the generated subalgebra, bottom-up.

    Degree n is spanned by the degree-n generators together with all ordered
    pairwise products of lower-degree span elements; products of three or
    more factors always factor through such a pair, so no deeper bracketing
    is needed.  Order matters: left and right factors play different roles.
    """
    by_degree = _by_degree(generators, "generator")
    spans: dict[int, list[BicommElement]] = {}
    for n in range(1, max_degree + 1):
        basis = EchelonBasis()
        for gen in by_degree.get(n, ()):
            basis.add(element_to_row(gen, n))
        for a in range(1, n):
            for u in spans[a]:
                for v in spans[n - a]:
                    basis.add(element_to_row(u * v, n))
        spans[n] = [row_to_element(r, d, n) for r in basis.rows()]
        yield n, spans[n]


def subalgebra_span_dimension(generators, n: int) -> int:
    """Dimension of the degree-n component of the generated (non-unital) subalgebra."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    generators = list(generators)
    if not generators:
        return 0
    d = generators[0].rank
    for degree, span in _span_levels(generators, n, d):
        if degree == n:
            return len(span)
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class CutoffGap:
    """First degree at which invariants outgrow the subalgebra they generate."""

    cutoff: int
    gap_degree: int | None
    span_dimension: int | None
    invariant_dimension: int | None


@dataclass(frozen=True)
class NonFgReport:
    group_order: int
    cutoff_bound: int
    search_bound: int
    gaps: tuple[CutoffGap, ...]

    def gap_for_every_cutoff(self) -> bool:
        return all(entry.gap_degree is not None for entry in self.gaps)


def nonfg_witness(group: FiniteGroup, cutoff_bound: int, search_bound: int) -> NonFgReport:
    """Empirical finite-generation gaps, one search per cutoff.

    For each cutoff c <= cutoff_bound, takes every invariant of degree <= c
    as a generator set and searches degrees up to search_bound for the first
    one where the generated subalgebra misses part of the invariants.  This
    is a finite consistency check, not a proof: it reports gaps at finitely
    many degrees only.
    """
    if not (search_bound > cutoff_bound >= 1):
        raise ValueError("need search_bound > cutoff_bound >= 1")
    d = group.rank
    inv_bases = {n: invariant_basis(group, n) for n in range(1, search_bound + 1)}
    entries = []
    for cutoff in range(1, cutoff_bound + 1):
        generators = [
            element for n in range(1, cutoff + 1) for element in inv_bases[n].elements
        ]
        gap = CutoffGap(cutoff, None, None, None)
        for n, span in _span_levels(generators, search_bound, d):
            span_dim = len(span)
            inv_dim = inv_bases[n].dimension
            if span_dim < inv_dim:
                gap = CutoffGap(cutoff, n, span_dim, inv_dim)
                break
        entries.append(gap)
    return NonFgReport(group.order, cutoff_bound, search_bound, tuple(entries))


_VARIABLE_RE = re.compile(r"^([yz])([1-9]\d*)$")


@dataclass(frozen=True)
class IntegralDependence:
    """A monic polynomial certificate: the variable is a root of it.

    `coefficients` are polynomial coefficients in ascending powers of the
    indeterminate; the leading one is the constant 1.
    """

    variable: str
    coefficients: tuple[YZPolynomial, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def substitute_self(self) -> YZPolynomial:
        """Plug the variable itself into the polynomial; zero certifies it."""
        d = self.coefficients[0].rank
        alphabet, index = _VARIABLE_RE.match(self.variable).groups()
        v = YZPolynomial.variable(d, alphabet, int(index))
        total = YZPolynomial.zero(d)
        power = YZPolynomial.constant(d, 1)
        for coefficient in self.coefficients:
            total = total + coefficient * power
            power = power * v
        return total


def integral_dependence_polynomial(group: FiniteGroup, variable: str) -> IntegralDependence:
    """Expand the product of (x - g(v)) over the group for a single variable v.

    The result is monic of degree |G|; its coefficients are, up to sign, the
    elementary symmetric polynomials of the orbit of v, hence G-invariant,
    and v itself is a root.
    """
    match = _VARIABLE_RE.match(variable)
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
    return IntegralDependence(variable, tuple(coefficients))


def add_products(
    basis: EchelonBasis,
    spans: dict[int, list[YZPolynomial]],
    generators_by_degree: dict[int, list[YZPolynomial]],
    n: int,
) -> bool:
    """Add the degree-n rows of lower * gen to `basis`; return whether it grew.

    Covers every generator gen of each degree k <= n and every lower in
    spans[n - k].  Every row is added, even once the span has grown.
    """
    grew = False
    for k, gens in generators_by_degree.items():
        if k > n:
            continue
        for lower in spans[n - k]:
            for gen in gens:
                grew |= basis.add(poly_to_row(lower * gen, n))
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
        spans[k] = [_row_to_poly(row, d, k) for row in basis.rows()]
    return spans


def module_span_dimension(coefficient_generators, module_generators, n: int) -> int:
    """Dimension of the degree-n span of coefficient products times module generators.

    The empty coefficient product acts as the scalar 1, so module generators
    of degree exactly n contribute directly.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    coefficient_generators = list(coefficient_generators)
    module_generators = list(module_generators)
    ranks = {p.rank for p in coefficient_generators + module_generators}
    if len(ranks) != 1:
        raise ValueError("generators must all share one rank")
    d = ranks.pop()
    module_by_degree = _by_degree(module_generators, "module generator")
    if not module_by_degree:
        return 0
    spans = coefficient_spans(coefficient_generators, n - min(module_by_degree), d)
    basis = EchelonBasis()
    add_products(basis, spans, module_by_degree, n)
    return basis.dimension
