import math
import random
from dataclasses import astuple
from fractions import Fraction

import pytest

from bicomm import (
    BicommElement,
    YZPolynomial,
    act,
    act_bulk,
    basis_component,
    commutative_invariant_dimension,
    dim_component,
    elementary_symmetric,
    expand,
    group_closure,
    integral_dependence_polynomial,
    invariant_basis,
    invariant_dimension,
    molien_bicomm,
    nonfg_witness,
    permutation_matrix,
    polarized_elementary,
    random_element,
    reynolds,
    symmetric_module_generators,
    trivial_group,
)
from bicomm import invariants
from bicomm.algebra_core import _masks, unpack
from bicomm.invariants import EchelonBasis, coefficient_spans, element_to_row, row_to_element
from conftest import module_span_dimension, subalgebra_span_dimension


def rref(rows):
    basis = EchelonBasis()
    for row in rows:
        basis.add(row)
    return basis.rows()


def _random_rows(rng):
    """Rows over at most 8 columns with int and Fraction entries, denominators
    up to 9, then combinations and duplicates of them, shuffled."""
    columns = rng.randint(1, 8)
    rows = []
    for _ in range(rng.randint(1, 6)):
        row = {}
        for c in rng.sample(range(columns), rng.randint(1, columns)):
            value = rng.randint(-5, 5)
            if rng.random() < 0.5:
                value = Fraction(value, rng.randint(1, 9))
            if value:
                row[c] = value
        if row:
            rows.append(row)
    if not rows:
        rows.append({0: 1})
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(rows), rng.choice(rows)
        s = rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 9))))
        t = rng.randint(-2, 2)
        combination = {c: s * a.get(c, 0) + t * b.get(c, 0) for c in a.keys() | b.keys()}
        combination = {c: v for c, v in combination.items() if v}
        if combination:
            rows.append(combination)
    rows += [dict(rng.choice(rows)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(rows)
    return rows


def bulk(d, alpha, beta, coeff=1):
    return BicommElement.from_bulk(YZPolynomial.monomial(d, alpha, beta, coeff))


class TestEchelon:
    def test_rref_is_canonical_under_row_permutation(self):
        rng = random.Random(41)
        rows = [
            {c: Fraction(rng.randint(-3, 3)) for c in rng.sample(range(8), 4)}
            for _ in range(6)
        ]
        rows = [{c: v for c, v in row.items() if v} for row in rows]
        reduced = rref(rows)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert rref(shuffled) == reduced

    def test_pivots_are_one_and_cleared(self):
        rows = [
            {0: Fraction(2), 1: Fraction(4)},
            {0: Fraction(1), 2: Fraction(3)},
        ]
        reduced = rref(rows)
        pivots = [min(r) for r in reduced]
        assert pivots == sorted(pivots)
        for row in reduced:
            assert row[min(row)] == 1
            for other in reduced:
                if other is not row:
                    assert min(other) not in row

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_generators_are_the_first_columns(self, d):
        for i in range(1, d + 1):
            x = BicommElement.generator(d, i)
            assert element_to_row(x, 1) == {i - 1: 1}
            assert row_to_element({i - 1: Fraction(1)}, d, 1) == x

    def test_matches_the_fraction_oracle(self, fraction_echelon_basis):
        rng = random.Random(13)
        for _ in range(200):
            rows = _random_rows(rng)
            basis, oracle = EchelonBasis(), fraction_echelon_basis()
            assert [basis.add(row) for row in rows] == [oracle.add(row) for row in rows]
            assert basis.dimension == oracle.dimension
            reduced = basis.rows()
            assert reduced == oracle.rows()
            primitive = basis.primitive_rows()
            for row, expected in zip(primitive, reduced):
                assert all(type(v) is int for v in row.values())
                assert math.gcd(*row.values()) == 1 and row[min(row)] > 0
                assert {c: Fraction(v, row[min(row)]) for c, v in row.items()} == expected
            assert len(primitive) == len(reduced)

    def test_add_reports_dependence(self):
        basis = EchelonBasis()
        assert basis.add({0: Fraction(1), 1: Fraction(1)})
        assert not basis.add({0: Fraction(2), 1: Fraction(2)})
        assert basis.dimension == 1


class TestInvariantBases:
    def test_swap_linear_invariants(self, swap_group):
        assert invariant_basis(swap_group, 1) == (BicommElement.from_linear(2, [1, 1]),)

    def test_swap_degree_two(self, swap_group):
        expected = (
            bulk(2, (1, 0), (1, 0)) + bulk(2, (0, 1), (0, 1)),  # y1z1 + y2z2
            bulk(2, (1, 0), (0, 1)) + bulk(2, (0, 1), (1, 0)),  # y1z2 + y2z1
        )
        assert invariant_basis(swap_group, 2) == expected

    def test_negation_odd_degrees_vanish(self, negation_d1):
        assert invariant_basis(negation_d1, 3) == ()
        assert invariant_dimension(negation_d1, 4) == 3

    def test_trivial_group_keeps_everything(self):
        group = trivial_group(2)
        for n in range(2, 6):
            assert invariant_dimension(group, n) == dim_component(2, n)

    def test_swap_degree_three_dimension(self, swap_group):
        assert invariant_dimension(swap_group, 3) == 6

    def test_basis_elements_are_fixed_by_generators(self, catalogue):
        for _, group in catalogue:
            for n in (1, 2, 3):
                for element in invariant_basis(group, n):
                    for g in group.elements:
                        assert act(g, element) == element

    def test_degree_zero_rejected(self, swap_group):
        with pytest.raises(ValueError):
            invariant_basis(swap_group, 0)

    def test_matches_series_at_low_degrees(self, swap_group, rotation_c4):
        for group in (swap_group, rotation_c4):
            series = expand(molien_bicomm(group), 6)
            for n in range(1, 7):
                assert series.coefficients[n] == invariant_dimension(group, n)


    @pytest.mark.parametrize("group_name", ["dihedral_d6", "b3_group", "s3_conjugated"])
    def test_matches_the_fraction_oracle(self, request, group_name, fraction_echelon_basis):
        group = request.getfixturevalue(group_name)
        d = group.rank
        for n in range(1, 5):
            oracle = fraction_echelon_basis()
            for monomial in basis_component(d, n):
                oracle.add(element_to_row(reynolds(group, monomial), n))
            expected = tuple(row_to_element(r, d, n) for r in oracle.rows())
            assert invariant_basis(group, n) == expected, n


class TestOrbitSkip:
    """`invariant_basis` averages one monomial per orbit: if g m = c m', the
    average of m' is that of m over c.  The all-monomials route is the oracle."""

    @staticmethod
    def count_act_bulk(monkeypatch):
        calls = []
        original = invariants.act_bulk

        def counted(g, poly):
            calls.append(g)
            return original(g, poly)

        monkeypatch.setattr(invariants, "act_bulk", counted)
        return calls

    def test_catalogue_matches_the_all_monomials_oracle(
        self, catalogue, all_monomials_invariant_basis
    ):
        for name, group in catalogue:
            for n in range(1, (8 if group.rank <= 2 else 6) + 1):
                expected = all_monomials_invariant_basis(group, n)
                assert invariant_basis(group, n) == expected, (name, n)

    @pytest.mark.parametrize(
        "group_name,max_degree",
        [("dihedral_d6", 3), ("a4_group", 3), ("s3_conjugated", 5), ("scaled_swap", 6)],
    )
    def test_dense_and_scaled_groups_match_the_all_monomials_oracle(
        self, request, group_name, max_degree, all_monomials_invariant_basis
    ):
        group = request.getfixturevalue(group_name)
        for n in range(1, max_degree + 1):
            assert invariant_basis(group, n) == all_monomials_invariant_basis(group, n), n

    def test_scaled_swap_skips_images_with_non_unit_coefficients(self, scaled_swap, monkeypatch):
        # g y1 z1 = y2 z2 / 4, so the average of y2 z2 is 4 times that of
        # y1 z1; g y1 z2 = y2 z1.  Two orbits, each averaged once.
        calls = self.count_act_bulk(monkeypatch)
        assert invariant_dimension(scaled_swap, 2) == 2
        assert len(calls) == 2 * 2

    def test_signed_permutations_act_on_one_monomial_per_orbit(
        self, signed_permutations_d2, monkeypatch
    ):
        calls = self.count_act_bulk(monkeypatch)
        for n in range(1, 11):
            invariant_basis(signed_permutations_d2, n)
        assert len(calls) <= 3600

    def test_s3_acts_on_one_monomial_per_orbit(self, s3_group, monkeypatch):
        calls = self.count_act_bulk(monkeypatch)
        for n in range(1, 7):
            invariant_basis(s3_group, n)
        assert len(calls) <= 1000

    def test_commutative_dimension_skips_the_same_way(self, s3_group, monkeypatch):
        calls = self.count_act_bulk(monkeypatch)
        # Degree 4 in 3 variables: 15 monomials in 4 orbits of S_3.
        assert commutative_invariant_dimension(s3_group, 4) == 4
        assert len(calls) == 4 * 6


def test_image_caches_hold_one_alphabet_monomials_of_degree_at_most_n(
    catalogue_generators, s3_conjugated_generators
):
    """After `invariant_basis(G, n)` each element keeps at most the images of
    the y parts and z parts of degree <= n, never those of full keys."""
    cases = [(rank, gens, 5) for _, rank, gens in catalogue_generators]
    cases.append((3, s3_conjugated_generators, 4))
    for d, gens, n in cases:
        group = group_closure(gens, rank=d)
        y_mask, z_mask = _masks(d)
        invariant_basis(group, n)
        for g in group.elements:
            assert len(g._images) <= 2 * math.comb(n + d, d)
            for part in g._images:
                assert part in (part & y_mask, part & z_mask)
                assert sum(map(sum, unpack(d, part))) <= n


class TestIntegerCoefficients:
    """Coefficients are exactly `int` or `Fraction`, and integral data stays `int`."""

    @staticmethod
    def assert_exact(polynomials):
        for poly in polynomials:
            assert all(type(c) in (int, Fraction) for c in poly.terms.values()), poly

    def test_outputs_hold_only_ints_and_fractions(self, dihedral_d6, s3_conjugated):
        for group in (dihedral_d6, s3_conjugated):
            for n in (1, 2, 3):
                self.assert_exact(element.lift for element in invariant_basis(group, n))
        generators = [elementary_symmetric(a, 3, k) for a in ("y", "z") for k in (1, 2, 3)]
        for span in coefficient_spans(generators, 4, 3).values():
            self.assert_exact(span)
        result = symmetric_module_generators(3, 6)
        self.assert_exact(candidate.polynomial for candidate in result.generators)
        rng = random.Random(5)
        for group in (dihedral_d6, s3_conjugated):
            element = random_element(rng, group.rank)
            self.assert_exact([reynolds(group, element).lift])

    def test_integer_groups_reduce_integer_rows(
        self, s3_group, rotation_c4, signed_permutations_d2, monkeypatch
    ):
        """The orbit sums of an integer group are integral, so every row that
        `invariant_basis` passes to the echelon basis holds only `int`s."""
        rows = []
        original = EchelonBasis.add

        def recorded(basis, row):
            rows.append(row)
            return original(basis, row)

        monkeypatch.setattr(EchelonBasis, "add", recorded)
        for group in (s3_group, rotation_c4, signed_permutations_d2):
            for n in range(1, 5):
                invariant_basis(group, n)
        assert rows
        assert all(type(c) is int for row in rows for c in row.values())

    def test_permutation_action_stays_integral(self):
        monomial = YZPolynomial.monomial(3, (2, 0, 1), (0, 1, 0))
        image = act_bulk(permutation_matrix((2, 0, 1)), monomial)
        assert image.terms
        assert all(type(c) is int for c in image.terms.values())


class TestCommutativeOracle:
    def test_trivial_counts_all_monomials(self):
        group = trivial_group(2)
        for n in range(5):
            assert commutative_invariant_dimension(group, n) == n + 1

    def test_swap_counts_orbits(self, swap_group):
        dims = [commutative_invariant_dimension(swap_group, n) for n in range(7)]
        assert dims == [1, 1, 2, 2, 3, 3, 4]

    def test_degree_zero_is_constants(self, negation_d1):
        assert commutative_invariant_dimension(negation_d1, 0) == 1
        assert commutative_invariant_dimension(negation_d1, 1) == 0


class TestSubalgebraSpans:
    def test_single_generator_fills_rank_one(self):
        x1 = BicommElement.generator(1, 1)
        for n in range(1, 6):
            assert subalgebra_span_dimension([x1], n) == dim_component(1, n)

    def test_symmetric_linear_generator_misses_invariants(self, swap_group):
        e1 = BicommElement.from_linear(2, [1, 1])
        assert subalgebra_span_dimension([e1], 2) == 1
        assert invariant_dimension(swap_group, 2) == 2

    def test_monotone_in_generators(self, swap_group):
        gens2 = list(invariant_basis(swap_group, 1))
        gens3 = gens2 + list(invariant_basis(swap_group, 2))
        for n in range(2, 6):
            small = subalgebra_span_dimension(gens2, n)
            large = subalgebra_span_dimension(gens3, n)
            assert small <= large
            assert large <= invariant_dimension(swap_group, n)

    def test_non_homogeneous_generator_rejected(self):
        mixed = BicommElement.generator(2, 1) + bulk(2, (1, 0), (1, 0))
        with pytest.raises(ValueError):
            subalgebra_span_dimension([mixed], 2)


# Groups for the subalgebra scan, each with a degree bound that keeps the
# oracle cheap; D_6 and S_3^P are not monomial, S_3^P has entries 1/3, 2/3.
# The trivial groups have no gap, so every degree up to the bound is compared.
SCAN_BOUNDS = [
    ("trivial_d1", 14),
    ("trivial_d2", 7),
    ("negation_d2", 6),
    ("swap_group", 6),
    ("rotation_c4", 6),
    ("signed_permutations_d2", 6),
    ("dihedral_d6", 6),
    ("s3_conjugated", 4),
]


class TestNonFgWitness:
    def test_swap_gap_at_degree_two(self, swap_group):
        (gap,) = nonfg_witness(swap_group, 1, 4)
        assert gap.gap_degree == 2
        assert gap.span_dimension == 1
        assert gap.invariant_dimension == 2

    def test_trivial_rank_one_has_no_gap(self):
        gaps = nonfg_witness(trivial_group(1), 2, 6)
        assert not any(g.gap_degree for g in gaps)
        assert not all(g.gap_degree is not None for g in gaps)

    def test_negation_gap_at_even_degree(self, negation_d1):
        gaps = nonfg_witness(negation_d1, 2, 8)
        assert all(gap.gap_degree is not None for gap in gaps)
        for gap in gaps:
            assert gap.gap_degree is not None and gap.gap_degree % 2 == 0

    @pytest.mark.parametrize(
        "group_name,search_bound", SCAN_BOUNDS, ids=[name for name, _ in SCAN_BOUNDS]
    )
    def test_gaps_match_subalgebra_scan(self, request, group_name, search_bound):
        # The witness compares products of lower invariants with the
        # invariants once per degree, for all cutoffs at once; the oracle
        # regenerates each cutoff's subalgebra from its invariants.
        group = request.getfixturevalue(group_name)
        gaps = nonfg_witness(group, 3, search_bound)
        inv_dims = {n: invariant_dimension(group, n) for n in range(1, search_bound + 1)}
        for cutoff, gap in zip(range(1, 4), gaps):
            generators = [
                element
                for k in range(1, cutoff + 1)
                for element in invariant_basis(group, k)
            ]
            expected = (cutoff, None, None, None)
            for n in range(1, search_bound + 1):
                span_dim = subalgebra_span_dimension(generators, n)
                if span_dim < inv_dims[n]:
                    expected = (cutoff, n, span_dim, inv_dims[n])
                    break
            assert astuple(gap) == expected

    def test_builds_each_basis_once_up_to_the_last_gap(self, rotation_c4, monkeypatch):
        requested = []

        def recording(group, n):
            requested.append(n)
            return invariant_basis(group, n)

        monkeypatch.setattr("bicomm.invariants.invariant_basis", recording)
        gaps = nonfg_witness(rotation_c4, 2, 9)
        assert gaps[-1].gap_degree == 4
        assert sorted(requested) == sorted(set(requested))
        assert max(requested) <= 4

    def test_product_rows_come_from_new_generators_only(self, monkeypatch):
        # Products with the all-pairs span took 93,654 rows here; a new
        # generator times a lower invariant takes about 3,000.
        calls = []
        add = EchelonBasis.add

        def counting(basis, row):
            calls.append(None)
            return add(basis, row)

        monkeypatch.setattr(EchelonBasis, "add", counting)
        nonfg_witness(trivial_group(1), 1, 40)
        assert len(calls) <= 4000

    def test_bad_bounds_rejected(self, swap_group):
        with pytest.raises(ValueError):
            nonfg_witness(swap_group, 3, 3)


class TestIntegralDependence:
    def test_swap_gives_quadratic_in_elementary_symmetrics(self, swap_group):
        cert = integral_dependence_polynomial(swap_group, "y1")
        e1 = elementary_symmetric("y", 2, 1)
        e2 = elementary_symmetric("y", 2, 2)
        assert cert.coefficients == (e2, -e1, YZPolynomial.constant(2, 1))
        assert not cert.substitute_self()

    def test_negation_gives_difference_of_squares(self, negation_d1):
        cert = integral_dependence_polynomial(negation_d1, "y1")
        expected = (
            -YZPolynomial.monomial(1, (2,), (0,)),
            YZPolynomial.zero(1),
            YZPolynomial.constant(1, 1),
        )
        assert cert.coefficients == expected
        assert not cert.substitute_self()

    def test_trivial_group_gives_linear_factor(self):
        cert = integral_dependence_polynomial(trivial_group(1), "z1")
        assert cert.coefficients == (
            -YZPolynomial.variable(1, "z", 1),
            YZPolynomial.constant(1, 1),
        )

    def test_coefficients_are_invariant(self, swap_group, rotation_c4):
        for group in (swap_group, rotation_c4):
            for variable in ("y1", "y2", "z1", "z2"):
                cert = integral_dependence_polynomial(group, variable)
                assert not cert.substitute_self()
                for coefficient in cert.coefficients:
                    for g in group.elements:
                        assert act_bulk(g, coefficient) == coefficient

    def test_bad_variable_rejected(self, swap_group):
        for bad in ("x1", "y0", "y3", "w2"):
            with pytest.raises(ValueError):
                integral_dependence_polynomial(swap_group, bad)

    def test_variable_name_is_ascii_and_whole(self):
        # At rank 11 "y1\u0661" would otherwise read as y11 and "y1\n" as y1.
        for bad in ("y1\u0661", "y1\n"):
            with pytest.raises(ValueError):
                integral_dependence_polynomial(trivial_group(11), bad)


class TestModuleSpans:
    def test_empty_coefficients_leave_generators(self):
        y1z1 = YZPolynomial.monomial(1, (1,), (1,))
        assert module_span_dimension([], [y1z1], 2) == 1
        assert module_span_dimension([], [y1z1], 3) == 0

    def test_rank_one_fan_out(self):
        y1 = YZPolynomial.variable(1, "y", 1)
        z1 = YZPolynomial.variable(1, "z", 1)
        y1z1 = YZPolynomial.monomial(1, (1,), (1,))
        assert module_span_dimension([y1, z1], [y1z1], 4) == 3

    def test_symmetric_generators_reach_full_invariants(self, swap_group):
        e = elementary_symmetric
        coeffs = [e("y", 2, 1), e("y", 2, 2), e("z", 2, 1), e("z", 2, 2)]
        modules = [polarized_elementary(2, 1, 1)] + [
            e("y", 2, p) * e("z", 2, q) for p in (1, 2) for q in (1, 2)
        ]
        assert module_span_dimension(coeffs, modules, 4) == 13
        assert invariant_dimension(swap_group, 4) == 13

    def test_non_homogeneous_input_rejected(self):
        y1 = YZPolynomial.variable(1, "y", 1)
        mixed = y1 + YZPolynomial.monomial(1, (1,), (1,))
        with pytest.raises(ValueError):
            module_span_dimension([y1], [mixed], 3)
