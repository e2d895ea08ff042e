from fractions import Fraction

import pytest

from bicomm import (
    RationalFunction,
    RationalMatrix,
    UniPoly,
    char_det,
    diagonal_matrix,
    elementary_symmetric,
    expand,
    group_closure,
    molien_bicomm,
    permutation_matrix,
    symmetric_group,
    trivial_group,
)
from bicomm.algebra_core import (
    BicommElement,
    YZPolynomial,
    basis_component,
    monomial_table,
    pack,
    unpack,
)
from bicomm.group_action import adjacent_transpositions, reynolds
from bicomm.invariants import (
    EchelonBasis,
    _by_degree,
    add_products,
    coefficient_spans,
    element_to_row,
    row_to_element,
)
from bicomm.symmetric import (
    DegreeSaturation,
    SymmetricModuleGenerators,
    module_candidates,
)


def is_identity(matrix):
    return matrix == RationalMatrix.identity(matrix.size)


def tuple_terms(poly):
    """`poly.terms` keyed by (y-exponents, z-exponents), as before packing."""
    return {unpack(poly.rank, key): c for key, c in poly.terms.items()}


def from_tuple_terms(d, terms):
    return YZPolynomial(d, {pack(d, *key): c for key, c in terms.items()})


def tuple_product(p, q):
    """The product of two tuple-keyed term dicts by the exponent-tuple loop
    that packed keys replace in `YZPolynomial.__mul__`, kept as its oracle."""
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (
                tuple(x + y for x, y in zip(a1, a2)),
                tuple(x + y for x, y in zip(b1, b2)),
            )
            total = out.get(key, 0) + c1 * c2
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


def tuple_left_factor(terms):
    """`left_factor` on tuple keys: a key with no y factor swaps alphabets."""
    return {(a, b) if any(a) else (b, a): c for (a, b), c in terms.items()}


def tuple_in_model(key):
    """`_in_model` on a tuple key: a generator z_i, or has a y and a z factor."""
    alpha, beta = key
    return any(beta) and (any(alpha) or sum(beta) == 1)


def tuple_homogeneous_degree(terms):
    """`homogeneous_degree` on tuple keys: the one total degree, or None."""
    degrees = {sum(a) + sum(b) for a, b in terms}
    return degrees.pop() if len(degrees) == 1 else None


def _product_span(spans: dict[int, list[BicommElement]], n: int) -> EchelonBasis:
    """The span of every ordered product u * v, u in spans[a], v in spans[n - a].

    Given the lower components of a subalgebra, this plus its degree-n
    generators is its degree-n component: longer products factor through
    such a pair.  Order matters: left and right factors play different roles.
    """
    basis = EchelonBasis()
    for a in range(1, n):
        for u in spans[a]:
            for v in spans[n - a]:
                basis.add(element_to_row(u * v, n))
    return basis


def subalgebra_span_dimension(generators, n: int) -> int:
    """Dimension of the degree-n component of the generated (non-unital) subalgebra."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    generators = list(generators)
    if not generators:
        return 0
    d = generators[0].rank
    by_degree = _by_degree(generators, "generator")
    spans: dict[int, list[BicommElement]] = {}
    for k in range(1, n + 1):
        basis = _product_span(spans, k)
        for gen in by_degree.get(k, ()):
            basis.add(element_to_row(gen, k))
        spans[k] = [row_to_element(r, d, k) for r in basis.primitive_rows()]
    return len(spans[n])


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
    add_products(basis, spans, module_by_degree, n, monomial_table(d, n).index)
    return basis.dimension


def full_column_module_generators(d: int, degree_bound: int) -> SymmetricModuleGenerators:
    """The greedy search of `symmetric_module_generators` with every module
    row on all of `monomial_table(d, n)` and added to every degree from the
    candidate's up, saturated or not: the route that one column per S_d-orbit
    replaces, kept as its oracle."""
    series = expand(molien_bicomm(symmetric_group(d)), degree_bound)
    invariant_dims = {n: series.coefficients[n] for n in range(2, degree_bound + 1)}
    coefficient_gens = [
        elementary_symmetric(alphabet, d, k) for alphabet in ("y", "z") for k in range(1, d + 1)
    ]
    spans = coefficient_spans(coefficient_gens, degree_bound - 2, d)
    bases = {n: EchelonBasis() for n in invariant_dims}
    selected = []
    for candidate in module_candidates(d, degree_bound):
        if all(bases[n].dimension == invariant_dims[n] for n in bases):
            break
        if all(bases[n].dimension == invariant_dims[n] for n in bases if n >= candidate.degree):
            continue
        gens = {candidate.degree: [candidate.polynomial]}
        improved = False
        for n in range(candidate.degree, degree_bound + 1):
            improved |= add_products(bases[n], spans, gens, n, monomial_table(d, n).index)
        if improved:
            selected.append(candidate)
    saturation = tuple(
        DegreeSaturation(n, bases[n].dimension, invariant_dims[n]) for n in bases
    )
    bounds = {}
    for generator in selected:
        for pq, exponent in generator.polarizations:
            bounds[pq] = max(bounds.get(pq, 0), exponent)
    return SymmetricModuleGenerators(tuple(selected), saturation, bounds)


def _all_monomials_invariant_basis(group, n):
    """The Reynolds image of every monomial of the degree-n basis, reduced:
    the route that `invariant_basis`, which averages one monomial per orbit,
    replaces, kept as its oracle."""
    d = group.rank
    basis = EchelonBasis()
    for monomial in basis_component(d, n):
        basis.add(element_to_row(reynolds(group, monomial), n))
    return tuple(row_to_element(r, d, n) for r in basis.rows())


@pytest.fixture(scope="session")
def all_monomials_invariant_basis():
    return _all_monomials_invariant_basis


def _per_element_series(group):
    """molien_classic, dicks_formanek and molien_bicomm as averages of one
    `RationalFunction` term per element, with tr(g) from the matrix: the
    route that the class sums of `bicomm.hilbert` replace, kept as their
    oracle.  The terms are added pairwise, level by level, so most sums are
    of small rational functions: B_4 takes about 5 s so, against 11 s summed
    one term at a time (2 cores, Python 3.11.7)."""
    one = RationalFunction.one()

    def average(term):
        terms = [term(g) for g in group.elements]
        while len(terms) > 1:
            terms = [a + b for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1 :]
        return terms[0] * Fraction(1, group.order)

    def bulk(g):
        return RationalFunction(UniPoly.one(), char_det(g)) - one

    return (
        average(lambda g: RationalFunction(UniPoly.one(), char_det(g))),
        average(lambda g: RationalFunction(UniPoly.one(), UniPoly((1, -g.trace())))),
        average(lambda g: bulk(g) * bulk(g) + RationalFunction.from_poly(UniPoly((0, g.trace())))),
    )


@pytest.fixture(scope="session")
def per_element_series():
    return _per_element_series


def _fraction_product(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def _fraction_closure(generators, rank):
    """Breadth-first closure over rows of `Fraction`s, each element times each
    generator in order: the route that the integer closure of `group_closure`
    replaces, kept as its oracle.  Returns the elements' rows."""
    gens = [g.entries for g in generators]
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(rank)) for i in range(rank))
    elements, seen = [identity], {identity}
    for current in elements:
        for g in gens:
            product = _fraction_product(current, g)
            if product not in seen:
                seen.add(product)
                elements.append(product)
    return tuple(elements)


def _fraction_char_coefficients(rows):
    """det(1 - g t), ascending, by Faddeev-LeVerrier on the `Fraction` rows:
    the route that the integer recursion of `char_coefficients` replaces."""
    d = len(rows)
    m = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    coeffs = [Fraction(1)]
    for k in range(1, d + 1):
        m = [list(row) for row in _fraction_product(rows, m)]
        c = -sum(m[i][i] for i in range(d)) / k
        coeffs.append(c)
        for i in range(d):
            m[i][i] += c
    return tuple(coeffs)


def _fraction_axpy(target, factor, source):
    """target += factor * source, dropping entries that cancel to zero."""
    for col, value in source.items():
        total = target.get(col, Fraction(0)) + factor * value
        if total:
            target[col] = total
        else:
            target.pop(col, None)


class FractionEchelonBasis:
    """Reduced echelon basis of sparse rows of `Fraction`s, pivots scaled to 1
    after every step: the route that the fraction-free `EchelonBasis`
    replaces, kept as its oracle.  Same `add`, `dimension` and `rows`."""

    def __init__(self):
        self._pivots = {}

    @property
    def dimension(self):
        return len(self._pivots)

    def add(self, row):
        row = {c: Fraction(v) for c, v in row.items()}
        for col in [c for c in row if c in self._pivots]:
            _fraction_axpy(row, -row[col], self._pivots[col])
        if not row:
            return False
        lead = min(row)
        inv = 1 / row[lead]
        row = {c: v * inv for c, v in row.items()}
        for pivot_row in self._pivots.values():
            if lead in pivot_row:
                _fraction_axpy(pivot_row, -pivot_row[lead], row)
        self._pivots[lead] = row
        return True

    def rows(self):
        return [dict(self._pivots[c]) for c in sorted(self._pivots)]


@pytest.fixture(scope="session")
def fraction_echelon_basis():
    return FractionEchelonBasis


@pytest.fixture(scope="session")
def fraction_closure():
    return _fraction_closure


@pytest.fixture(scope="session")
def fraction_char_coefficients():
    return _fraction_char_coefficients


@pytest.fixture(scope="session")
def trivial_d1():
    return trivial_group(1)


@pytest.fixture(scope="session")
def trivial_d2():
    return trivial_group(2)


@pytest.fixture(scope="session")
def swap_group():
    return group_closure([permutation_matrix((1, 0))])


@pytest.fixture(scope="session")
def negation_d1():
    return group_closure([diagonal_matrix([-1])])


@pytest.fixture(scope="session")
def negation_d2():
    return group_closure([diagonal_matrix([-1, -1])])


@pytest.fixture(scope="session")
def rotation_c4():
    return group_closure([RationalMatrix([[0, -1], [1, 0]])])


@pytest.fixture(scope="session")
def signed_permutations_d2():
    return group_closure([permutation_matrix((1, 0)), diagonal_matrix([-1, 1])])


@pytest.fixture(scope="session")
def scaled_swap():
    """<[[0, 2], [1/2, 0]]>, of order 2: monomial, with entries 2 and 1/2, so
    it maps a monomial to a non-unit multiple of another."""
    return group_closure([RationalMatrix([[0, 2], [Fraction(1, 2), 0]])])


@pytest.fixture(scope="session")
def s3_group():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def dihedral_d6():
    """D_6 of order 12: a rotation of order 6 and a swap, not monomial."""
    return group_closure(
        [RationalMatrix([[1, -1], [1, 0]]), permutation_matrix((1, 0))]
    )


@pytest.fixture(scope="session")
def b3_group():
    """The signed permutations B_3, of order 48."""
    return group_closure(adjacent_transpositions(3) + [diagonal_matrix([-1, 1, 1])])


@pytest.fixture(scope="session")
def b4_group():
    """The signed permutations B_4, of order 384: 14 classes, one with Phi_8."""
    return group_closure(adjacent_transpositions(4) + [diagonal_matrix([-1, 1, 1, 1])])


@pytest.fixture(scope="session")
def a4_group():
    """S_5 as the Weyl group of the root system A_4, of order 120: the simple
    reflections in simple-root coordinates, integer but not monomial; its
    5-cycles have a Phi_5."""
    gens = []
    for i in range(4):
        rows = [[int(r == c) for c in range(4)] for r in range(4)]
        rows[i][i] = -1
        for j in (i - 1, i + 1):
            if 0 <= j < 4:
                rows[i][j] = 1
        gens.append(RationalMatrix(rows))
    return group_closure(gens)


def _conjugated_by_p(gens):
    """P g P^-1 for a fixed rational P: entries such as +-1/3 and 2/3."""
    p = RationalMatrix([[2, 1, 0], [0, 1, 1], [1, 0, 1]])
    third = Fraction(1, 3)
    p_inv = RationalMatrix(
        [[third, -third, third], [third, 2 * third, -2 * third], [-third, third, 2 * third]]
    )
    assert is_identity(p * p_inv)
    return [p * g * p_inv for g in gens]


@pytest.fixture(scope="session")
def s3_conjugated_generators():
    """The transpositions of S_3 conjugated by P; they have entries +-1/3 and
    2/3 (they generate the golden tests' S_3^P)."""
    return _conjugated_by_p(adjacent_transpositions(3))


@pytest.fixture(scope="session")
def s3_conjugated(s3_conjugated_generators):
    return group_closure(s3_conjugated_generators)


@pytest.fixture(scope="session")
def b3_conjugated():
    """B_3 conjugated by P: rational entries, not monomial."""
    signed = adjacent_transpositions(3) + [diagonal_matrix([-1, 1, 1])]
    return group_closure(_conjugated_by_p(signed))


@pytest.fixture(scope="session")
def catalogue_generators():
    """(name, rank, generators) of each group of the acceptance catalogue."""
    swap = permutation_matrix((1, 0))
    return [
        ("trivial d=1", 1, []),
        ("trivial d=2", 2, []),
        ("trivial d=3", 3, []),
        ("negation d=1", 1, [diagonal_matrix([-1])]),
        ("negation d=2", 2, [diagonal_matrix([-1, -1])]),
        ("S_2 d=2", 2, [swap]),
        ("S_3 d=3", 3, adjacent_transpositions(3)),
        ("C_4 d=2", 2, [RationalMatrix([[0, -1], [1, 0]])]),
        ("signed permutations d=2", 2, [swap, diagonal_matrix([-1, 1])]),
    ]


@pytest.fixture(scope="session")
def catalogue(catalogue_generators):
    """The full acceptance catalogue of (name, group) pairs."""
    return [
        (name, group_closure(gens, rank=rank)) for name, rank, gens in catalogue_generators
    ]
