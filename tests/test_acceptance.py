"""Acceptance suite: every criterion checked exactly, tolerance zero.

Each test prints one pass line (visible with `pytest -s` or on failure);
the test names themselves carry the criterion numbers for `pytest -v`.
All comparisons are exact rational equalities, never approximate.
"""

import random
from fractions import Fraction

from bicomm import (
    BicommElement,
    RationalFunction,
    UniPoly,
    YZPolynomial,
    act,
    act_bulk,
    commutative_invariant_dimension,
    dicks_formanek,
    dim_component,
    elementary_symmetric,
    expand,
    hilbert_free_bicomm,
    integral_dependence_polynomial,
    invariant_basis,
    invariant_dimension,
    molien_bicomm,
    molien_classic,
    nonfg_witness,
    polarized_elementary,
    random_element,
    reynolds,
    symmetric_module_generators,
    trivial_group,
    verify_d2_identity,
)
from bicomm.invariants import EchelonBasis, element_to_row
from conftest import module_span_dimension, subalgebra_span_dimension

ORDER = 10


def report(number, text):
    print(f"criterion {number:2d} ({text}): PASS")


def test_criterion_01_molien_analogue_matches_reynolds_dimensions(catalogue):
    for name, group in catalogue:
        series = expand(molien_bicomm(group), ORDER)
        assert series.coefficients[0] == 0, name
        for n in range(1, ORDER + 1):
            assert series.coefficients[n] == invariant_dimension(group, n), (name, n)
    report(1, "bicommutative Molien analogue vs Reynolds dimensions, n=1..10")


def test_criterion_02_classical_molien_matches_commutative_oracle(catalogue):
    for name, group in catalogue:
        series = expand(molien_classic(group), ORDER)
        for n in range(0, ORDER + 1):
            assert series.coefficients[n] == commutative_invariant_dimension(group, n), (
                name,
                n,
            )
    report(2, "classical Molien vs brute-force commutative dimensions, n<=10")


def test_criterion_03_trivial_group_consistency():
    for d in range(1, 5):
        closed = molien_bicomm(trivial_group(d))
        assert closed == hilbert_free_bicomm(d), d
        series = expand(closed, ORDER)
        assert series.coefficients[0] == 0
        for n in range(1, ORDER + 1):
            assert series.coefficients[n] == dim_component(d, n), (d, n)
    report(3, "trivial-group series equals the free-algebra series, d=1..4")


def test_criterion_04_bicommutativity_and_one_sided_witness():
    rng = random.Random(2024)
    for i in range(1000):
        d = 2 + i % 3
        a, b, c = (random_element(rng, d) for _ in range(3))
        assert (a * b) * c == (a * c) * b
        assert a * (b * c) == b * (a * c)
    for d in range(2, 5):
        x1 = BicommElement.generator(d, 1)
        x2 = BicommElement.generator(d, 2)
        assert x1 * (x2 * x2) != (x2 * x2) * x1, d
    for _ in range(200):
        d = rng.choice((2, 3))
        a = BicommElement.from_bulk(random_element(rng, d).bulk)
        b = BicommElement.from_bulk(random_element(rng, d).bulk)
        c = BicommElement.from_bulk(random_element(rng, d).bulk)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
    report(4, "1000 random triples satisfy both identities; witness holds")


def test_criterion_05_reynolds_suite(catalogue):
    rng = random.Random(512)
    for name, group in catalogue:
        d = group.rank
        for _ in range(5):
            element = random_element(rng, d)
            averaged = reynolds(group, element)
            assert reynolds(group, averaged) == averaged, name
            for g in group.elements:
                assert act(g, averaged) == averaged, name
        linear = EchelonBasis()
        for i in range(1, d + 1):
            linear.add(element_to_row(reynolds(group, BicommElement.generator(d, i)), 1))
        trace_average = sum((g.trace() for g in group.elements), Fraction(0)) / group.order
        assert linear.dimension == trace_average, name
    report(5, "Reynolds idempotence, fixedness and linear-invariant dimension")


def test_criterion_06_nonfinite_generation_witness(catalogue):
    swap_group = dict(catalogue)["S_2 d=2"]
    degree_one = list(invariant_basis(swap_group, 1))
    assert subalgebra_span_dimension(degree_one, 2) == 1
    assert invariant_dimension(swap_group, 2) == 2
    for name, group in catalogue:
        if group.order == 1:
            continue
        gaps = nonfg_witness(group, 3, 8)
        assert all(gap.gap_degree is not None for gap in gaps), name
        assert [gap.cutoff for gap in gaps] == [1, 2, 3]
    report(6, "dimension gap for every cutoff <= 3 within degree 8")


def test_criterion_07_integral_dependence_certificates(catalogue):
    groups = dict(catalogue)
    cases = [
        ("S_2 d=2", ("y1", "y2", "z1", "z2")),
        ("negation d=1", ("y1", "z1")),
        # Order 8 and 6: coefficients of degree up to 8, and substitute_self
        # multiplies powers of the variable up to its 8th and 6th.
        ("signed permutations d=2", ("y1", "y2", "z1", "z2")),
        ("S_3 d=3", ("y1", "y3", "z2")),
    ]
    for name, variables in cases:
        group = groups[name]
        for variable in variables:
            certificate = integral_dependence_polynomial(group, variable)
            assert certificate.degree == group.order
            assert certificate.coefficients[-1] == YZPolynomial.constant(group.rank, 1)
            assert not certificate.substitute_self(), (name, variable)
            for coefficient in certificate.coefficients:
                for g in group.elements:
                    assert act_bulk(g, coefficient) == coefficient, (name, variable)
    report(7, "integral dependence certificates vanish and are invariant")


def test_criterion_08_rank_two_symmetric_identity():
    outcome = verify_d2_identity()
    assert outcome.holds
    assert outcome.difference == YZPolynomial.zero(2)
    report(8, "two-alphabet symmetric identity holds exactly at rank 2")


def test_criterion_09_module_saturation(catalogue):
    swap_group = dict(catalogue)["S_2 d=2"]
    e = elementary_symmetric
    coefficients = [e("y", 2, 1), e("y", 2, 2), e("z", 2, 1), e("z", 2, 2)]
    modules = [polarized_elementary(2, 1, 1)] + [
        e("y", 2, p) * e("z", 2, q) for p in (1, 2) for q in (1, 2)
    ]
    for n in range(2, 11):
        span = module_span_dimension(coefficients, modules, n)
        assert span == invariant_dimension(swap_group, n), n
        if n == 4:
            assert span == 13
    discovered = symmetric_module_generators(3, 8)
    assert discovered.saturated_everywhere()
    assert [entry.degree for entry in discovered.saturation] == list(range(2, 9))
    report(9, "module generators saturate invariants: fixed set d=2, discovered d=3")


def test_criterion_10_trace_analogue_regressions(catalogue):
    groups = dict(catalogue)
    negation = dicks_formanek(groups["negation d=1"])
    assert negation == RationalFunction(UniPoly.one(), UniPoly([1, 0, -1]))
    swapped = dicks_formanek(groups["S_2 d=2"])
    assert swapped == RationalFunction(
        UniPoly([1, -1]), UniPoly([1, -2])
    )
    report(10, "trace-analogue closed forms match their canonical fractions")
