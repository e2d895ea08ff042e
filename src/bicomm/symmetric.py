"""Symmetric polynomials in the two alphabets y_1..y_d and z_1..z_d.

Provides the elementary symmetric polynomials of each alphabet, their
two-alphabet polarizations e_{p,q} (sums of products over disjoint
increasing index tuples), the exact verification of the rank-2 rewriting
identity for e_{1,1}^2, and a greedy desk-scale search for module
generators of the symmetric invariants of the algebra's bulk over the
coefficient algebra generated by the e_k of both alphabets, whose module
rows are reduced on one monomial per S_d-orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .algebra_core import YZPolynomial, indicator, pack
from .group_action import symmetric_group
from .hilbert import expand, molien_bicomm
from .invariants import EchelonBasis, add_products, coefficient_spans


def _disjoint_products(d: int, p: int, q: int) -> YZPolynomial:
    """Sum of y_{i_1}...y_{i_p} z_{j_1}...z_{j_q} over strictly increasing
    tuples with all p+q indices pairwise different."""
    terms = {}
    for i_set in combinations(range(d), p):
        alpha = indicator(d, i_set)
        remaining = [j for j in range(d) if j not in i_set]
        for j_set in combinations(remaining, q):
            terms[pack(d, alpha, indicator(d, j_set))] = 1
    return YZPolynomial(d, terms)


def elementary_symmetric(alphabet: str, d: int, k: int) -> YZPolynomial:
    """e_k of the chosen alphabet: the polarization e_{k,0} or e_{0,k}."""
    if alphabet not in ("y", "z"):
        raise ValueError(f"alphabet must be 'y' or 'z', got {alphabet!r}")
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in 1..{d}, got {k}")
    return _disjoint_products(d, k, 0) if alphabet == "y" else _disjoint_products(d, 0, k)


def polarized_elementary(d: int, p: int, q: int) -> YZPolynomial:
    """The polarization e_{p,q}: products over disjoint increasing index tuples."""
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    if p + q > d:
        raise ValueError(f"need p + q <= d, got p={p}, q={q}, d={d}")
    return _disjoint_products(d, p, q)


@dataclass(frozen=True)
class D2IdentityReport:
    """Outcome of expanding the rank-2 rewriting identity for e_{1,1}^2."""

    lhs: YZPolynomial
    rhs: YZPolynomial
    difference: YZPolynomial
    holds: bool
    note: str


def verify_d2_identity() -> D2IdentityReport:
    """Check e_{1,1}^2 = e_1(Y)e_1(Z)e_{1,1} - e_1^2(Y)e_2(Z) - e_2(Y)e_1^2(Z) + 4e_2(Y)e_2(Z).

    Full exact expansion in rank 2.  The e_2 factor multiplying e_1^2(Y) is
    read as e_2 of the whole two-variable z alphabet; the report records
    that reading instead of silently assuming it.
    """
    e11 = polarized_elementary(2, 1, 1)
    e1y = elementary_symmetric("y", 2, 1)
    e2y = elementary_symmetric("y", 2, 2)
    e1z = elementary_symmetric("z", 2, 1)
    e2z = elementary_symmetric("z", 2, 2)
    lhs = e11 * e11
    rhs = e1y * e1z * e11 - e1y * e1y * e2z - e2y * e1z * e1z + 4 * (e2y * e2z)
    difference = lhs - rhs
    return D2IdentityReport(
        lhs=lhs,
        rhs=rhs,
        difference=difference,
        holds=not difference,
        note=(
            "verified with e_2 taken over the full two-variable z alphabet "
            "in the e_1^2(Y) term"
        ),
    )


@dataclass(frozen=True)
class ModuleGenerator:
    """A candidate module generator: e_p(Y) e_q(Z), or a product of powers of
    polarizations e_{p,q} with `polarizations` holding ((p, q), exponent)."""

    label: str
    degree: int
    polynomial: YZPolynomial
    polarizations: tuple[tuple[tuple[int, int], int], ...]


@dataclass(frozen=True)
class DegreeSaturation:
    degree: int
    span_dimension: int
    invariant_dimension: int

    @property
    def saturated(self) -> bool:
        return self.span_dimension == self.invariant_dimension


@dataclass(frozen=True)
class SymmetricModuleGenerators:
    """Result of the greedy module-generator search for the symmetric group."""

    generators: tuple[ModuleGenerator, ...]
    saturation: tuple[DegreeSaturation, ...]
    exponent_bounds: dict[tuple[int, int], int]

    def saturated_everywhere(self) -> bool:
        return all(entry.saturated for entry in self.saturation)


def module_candidates(d: int, bound: int) -> list[ModuleGenerator]:
    """Every candidate of degree <= bound, in search order.

    By degree; at equal degree the pair products e_p(Y) e_q(Z) in (p, q)
    order, then the polarization products by their exponent vectors over
    the pairs (p, q) ordered by (p + q, p).
    """
    keyed = []
    for p in range(1, d + 1):
        for q in range(1, d + 1):
            if p + q <= bound:
                poly = elementary_symmetric("y", d, p) * elementary_symmetric("z", d, q)
                label = f"e_{p}(Y)*e_{q}(Z)"
                keyed.append(((p + q, 0), ModuleGenerator(label, p + q, poly, ())))
    pq_list = sorted(
        ((p, q) for p in range(1, d) for q in range(1, d) if p + q <= d),
        key=lambda pq: (pq[0] + pq[1], pq[0]),
    )
    polys = {pq: polarized_elementary(d, *pq) for pq in pq_list}
    for exponents in product(*(range(bound // (p + q) + 1) for p, q in pq_list)):
        degree = sum(e * (p + q) for e, (p, q) in zip(exponents, pq_list))
        if not any(exponents) or degree > bound:
            continue
        used = tuple((pq, e) for pq, e in zip(pq_list, exponents) if e)
        poly = YZPolynomial.constant(d, 1)
        for pq, e in used:
            poly = poly * polys[pq] ** e
        label = "*".join(
            f"e_{{{p},{q}}}" + (f"^{e}" if e > 1 else "") for (p, q), e in used
        )
        keyed.append(((degree, 1, exponents), ModuleGenerator(label, degree, poly, used)))
    keyed.sort(key=lambda pair: pair[0])
    return [candidate for _, candidate in keyed]


def _descending_pairs(d: int, n: int, top: tuple[int, int]):
    """The tuples of d exponent pairs (alpha_i, beta_i), in non-increasing
    order and each at most `top`, whose entries sum to n."""
    if d == 0:
        if n == 0:
            yield ()
        return
    for a in range(min(top[0], n), -1, -1):
        for b in range(min(n - a, top[1] if a == top[0] else n), -1, -1):
            for rest in _descending_pairs(d - 1, n - a - b, (a, b)):
                yield ((a, b), *rest)


def _orbit_columns(d: int, n: int) -> set[int]:
    """One key per orbit of degree-n monomials under S_d permuting the y_i
    and the z_i together: the orbit's first monomial in canonical order, so
    its largest key, the one whose exponent pairs are non-increasing.

    A symmetric polynomial has one coefficient per orbit, so its entries on
    these keys determine it: ranks over them are the ranks over all
    monomials, with rows about d! times shorter.
    """
    return {pack(d, *zip(*pairs)) for pairs in _descending_pairs(d, n, (n, n))}


def symmetric_module_generators(d: int, degree_bound: int) -> SymmetricModuleGenerators:
    """Greedy search for module generators of the symmetric bulk invariants.

    Candidates are taken in increasing degree, the pair products
    e_p(Y) e_q(Z) before the power products of the polarizations e_{p,q} at
    equal degree.  A candidate is kept exactly when it enlarges the span,
    over the coefficient algebra generated by all e_k(Y) and e_k(Z), at
    some degree up to the bound.  Every candidate is a symmetric invariant
    of the bulk, so the span can never exceed the invariants; the search
    stops as soon as the two agree at every degree.  The per-degree
    comparison is returned as a saturation report, together with the
    empirically sufficient exponent bound for each polarization.

    The invariant dimensions are the coefficients of `molien_bicomm(S_d)`,
    not Reynolds bases; `verify` and the acceptance tests check that series
    against the Reynolds dimensions.
    """
    if d < 2:
        raise ValueError("rank must be >= 2")
    if degree_bound < 2:
        raise ValueError("degree bound must be >= 2")
    series = expand(molien_bicomm(symmetric_group(d)), degree_bound)
    invariant_dims = {n: int(series.coefficients[n]) for n in range(2, degree_bound + 1)}
    coefficient_gens = [
        elementary_symmetric(alphabet, d, k)
        for alphabet in ("y", "z")
        for k in range(1, d + 1)
    ]
    spans = coefficient_spans(coefficient_gens, degree_bound - 2, d)
    module_bases = {n: EchelonBasis() for n in range(2, degree_bound + 1)}
    orbit_keys = {n: _orbit_columns(d, n) for n in module_bases}

    def unsaturated_degrees(minimum: int) -> list[int]:
        return [
            n
            for n in range(max(2, minimum), degree_bound + 1)
            if module_bases[n].dimension < invariant_dims[n]
        ]

    selected: list[ModuleGenerator] = []
    for candidate in module_candidates(d, degree_bound):
        if not unsaturated_degrees(2):
            break
        gens = {candidate.degree: [candidate.polynomial]}
        improved = False
        for n in unsaturated_degrees(candidate.degree):
            improved |= add_products(module_bases[n], spans, gens, n, orbit_keys[n])
        if improved:
            selected.append(candidate)
    saturation = tuple(
        DegreeSaturation(n, module_bases[n].dimension, invariant_dims[n])
        for n in range(2, degree_bound + 1)
    )
    bounds: dict[tuple[int, int], int] = {}
    for generator in selected:
        for pq, exponent in generator.polarizations:
            bounds[pq] = max(bounds.get(pq, 0), exponent)
    return SymmetricModuleGenerators(tuple(selected), saturation, bounds)
