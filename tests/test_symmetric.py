import math
from fractions import Fraction
from itertools import permutations

import pytest

from bicomm import (
    YZPolynomial,
    act_bulk,
    elementary_symmetric,
    invariant_dimension,
    polarized_elementary,
    symmetric_group,
    symmetric_module_generators,
    verify_d2_identity,
)
from bicomm import symmetric
from bicomm.algebra_core import monomial_table, pack, unpack
from bicomm.group_action import adjacent_transpositions
from bicomm.invariants import EchelonBasis, coefficient_spans, poly_to_row
from bicomm.symmetric import _orbit_columns, module_candidates
from conftest import full_column_module_generators, module_span_dimension, term_sort_key


def is_symmetric(poly):
    return all(act_bulk(g, poly) == poly for g in adjacent_transpositions(poly.rank))


def full_two_alphabet_invariant_dimension(d, n):
    """Reynolds oracle over all of K[Y_d, Z_d], pure y and pure z included."""
    group = symmetric_group(d)
    basis = EchelonBasis()
    for key in monomial_table(d, n):
        averaged = YZPolynomial.zero(d)
        for g in group.elements:
            averaged = averaged + act_bulk(g, YZPolynomial.monomial(d, *unpack(d, key)))
        basis.add(poly_to_row(averaged))
    return basis.dimension


class TestElementarySymmetric:
    def test_rank_two_examples(self):
        assert str(elementary_symmetric("y", 2, 1)) == "y1 + y2"
        assert str(elementary_symmetric("y", 2, 2)) == "y1*y2"

    def test_z_alphabet(self):
        e2 = elementary_symmetric("z", 3, 2)
        assert str(e2) == "z1*z2 + z1*z3 + z2*z3"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            elementary_symmetric("y", 2, 3)
        with pytest.raises(ValueError):
            elementary_symmetric("y", 2, 0)
        with pytest.raises(ValueError):
            elementary_symmetric("w", 2, 1)

    def test_term_counts(self):
        for d in range(1, 6):
            for k in range(1, d + 1):
                assert len(elementary_symmetric("y", d, k).terms) == math.comb(d, k)


class TestPolarized:
    def test_rank_two_polarization(self):
        assert str(polarized_elementary(2, 1, 1)) == "y1*z2 + y2*z1"

    def test_rank_three_singleton_pair(self):
        e11 = polarized_elementary(3, 1, 1)
        assert len(e11.terms) == 6
        expected = str(
            YZPolynomial.monomial(3, (1, 0, 0), (0, 1, 0))
            + YZPolynomial.monomial(3, (1, 0, 0), (0, 0, 1))
            + YZPolynomial.monomial(3, (0, 1, 0), (1, 0, 0))
            + YZPolynomial.monomial(3, (0, 1, 0), (0, 0, 1))
            + YZPolynomial.monomial(3, (0, 0, 1), (1, 0, 0))
            + YZPolynomial.monomial(3, (0, 0, 1), (0, 1, 0))
        )
        assert str(e11) == expected

    def test_rank_three_one_two(self):
        e12 = polarized_elementary(3, 1, 2)
        assert len(e12.terms) == 3
        assert str(e12) == "y1*z2*z3 + y2*z1*z3 + y3*z1*z2"

    def test_too_many_indices_rejected(self):
        with pytest.raises(ValueError):
            polarized_elementary(2, 1, 2)
        with pytest.raises(ValueError):
            polarized_elementary(3, 0, 1)

    def test_term_counts(self):
        for d in range(2, 6):
            for p in range(1, d):
                for q in range(1, d - p + 1):
                    expected = math.factorial(d) // (
                        math.factorial(p) * math.factorial(q) * math.factorial(d - p - q)
                    )
                    assert len(polarized_elementary(d, p, q).terms) == expected


class TestIsSymmetric:
    def test_generators_are_symmetric(self):
        for d in (2, 3, 4):
            for k in range(1, d + 1):
                assert is_symmetric(elementary_symmetric("y", d, k))
                assert is_symmetric(elementary_symmetric("z", d, k))
            for p in range(1, d):
                for q in range(1, d - p + 1):
                    assert is_symmetric(polarized_elementary(d, p, q))

    def test_single_monomial_is_not(self):
        assert not is_symmetric(YZPolynomial.monomial(2, (1, 0), (0, 1)))

    def test_products_of_symmetric_are_symmetric(self):
        product = elementary_symmetric("y", 3, 1) * elementary_symmetric("z", 3, 2)
        assert is_symmetric(product)


class TestRankTwoIdentity:
    def test_identity_holds(self):
        report = verify_d2_identity()
        assert report.holds
        assert not report.difference
        assert "z alphabet" in report.note

    def test_lhs_contains_expected_square(self):
        report = verify_d2_identity()
        assert report.lhs.terms[pack(2, (2, 0), (0, 2))] == Fraction(1)  # y1^2 z2^2
        assert report.lhs == report.rhs


class TestGeneration:
    @pytest.mark.parametrize("d", [2, 3])
    def test_products_span_all_symmetric_polynomials(self, d):
        generators = [
            elementary_symmetric(alphabet, d, k)
            for alphabet in ("y", "z")
            for k in range(1, d + 1)
        ]
        generators += [
            polarized_elementary(d, p, q)
            for p in range(1, d)
            for q in range(1, d - p + 1)
        ]
        spans = coefficient_spans(generators, 8, d)
        for n in range(0, 9):
            assert len(spans[n]) == full_two_alphabet_invariant_dimension(d, n)


class TestModuleGeneratorSearch:
    def test_candidate_order_rank_four(self):
        # Rank 4 has the most polarization products of equal degree, so
        # this pins the order among ties.
        labels = [c.label for c in module_candidates(4, 6)]
        assert labels == [
            "e_1(Y)*e_1(Z)", "e_{1,1}",
            "e_1(Y)*e_2(Z)", "e_2(Y)*e_1(Z)", "e_{2,1}", "e_{1,2}",
            "e_1(Y)*e_3(Z)", "e_2(Y)*e_2(Z)", "e_3(Y)*e_1(Z)",
            "e_{3,1}", "e_{2,2}", "e_{1,3}", "e_{1,1}^2",
            "e_1(Y)*e_4(Z)", "e_2(Y)*e_3(Z)", "e_3(Y)*e_2(Z)", "e_4(Y)*e_1(Z)",
            "e_{1,1}*e_{2,1}", "e_{1,1}*e_{1,2}",
            "e_2(Y)*e_4(Z)", "e_3(Y)*e_3(Z)", "e_4(Y)*e_2(Z)",
            "e_{2,1}^2", "e_{1,2}*e_{2,1}", "e_{1,2}^2",
            "e_{1,1}*e_{3,1}", "e_{1,1}*e_{2,2}", "e_{1,1}*e_{1,3}", "e_{1,1}^3",
        ]

    def test_rank_two_discovery(self):
        result = symmetric_module_generators(2, 4)
        labels = [g.label for g in result.generators]
        assert "e_{1,1}" in labels
        assert result.exponent_bounds == {(1, 1): 1}
        allowed = {
            "e_{1,1}",
            "e_1(Y)*e_1(Z)",
            "e_1(Y)*e_2(Z)",
            "e_2(Y)*e_1(Z)",
            "e_2(Y)*e_2(Z)",
        }
        assert set(labels) <= allowed
        assert result.saturated_everywhere()

    def test_rank_two_degree_four_dimension(self, swap_group):
        result = symmetric_module_generators(2, 4)
        final = result.saturation[-1]
        assert final.degree == 4
        assert final.span_dimension == 13
        assert final.invariant_dimension == invariant_dimension(swap_group, 4)

    def test_rank_three_saturates(self):
        assert symmetric_module_generators(3, 5).saturated_everywhere()

    @pytest.mark.parametrize("d, bound", [(2, 6), (3, 5)])
    def test_invariant_dimensions_match_reynolds(self, d, bound):
        """The search reads its dimensions off molien_bicomm(S_d); Reynolds
        bases are the oracle."""
        result = symmetric_module_generators(d, bound)
        assert [entry.degree for entry in result.saturation] == list(range(2, bound + 1))
        for entry in result.saturation:
            assert entry.invariant_dimension == invariant_dimension(
                symmetric_group(d), entry.degree
            )

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            symmetric_module_generators(1, 4)
        with pytest.raises(ValueError):
            symmetric_module_generators(2, 1)


class TestOrbitColumns:
    """Module rows are reduced on one column per orbit of S_d permuting the
    y_i and the z_i together; `full_column_module_generators` is the oracle."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_one_column_per_orbit_on_its_first_monomial(self, d):
        for n in range(6 if d < 4 else 4):
            table = monomial_table(d, n)
            columns = _orbit_columns(d, n)
            orbits = set()
            for key in table:
                alpha, beta = unpack(d, key)
                orbit = {
                    pack(d, tuple(alpha[i] for i in perm), tuple(beta[i] for i in perm))
                    for perm in permutations(range(d))
                }
                first = min(orbit, key=lambda k: term_sort_key(unpack(d, k)))
                assert [k for k in orbit if k in columns] == [first]
                orbits.add(frozenset(orbit))
            assert len(columns) == len(orbits)
            assert columns <= set(table)

    @pytest.mark.parametrize("d, bound", [(2, 8), (3, 6), (4, 5), (5, 5)])
    def test_search_matches_the_full_column_route(self, d, bound):
        result = symmetric_module_generators(d, bound)
        assert result == full_column_module_generators(d, bound)
        coefficients = [
            elementary_symmetric(alphabet, d, k) for alphabet in ("y", "z") for k in range(1, d + 1)
        ]
        modules = [generator.polynomial for generator in result.generators]
        for entry in result.saturation:
            assert entry.span_dimension == module_span_dimension(coefficients, modules, entry.degree)

    def test_saturated_degrees_take_no_rows(self, monkeypatch):
        degrees = []
        original = symmetric.add_products

        def recorded(basis, spans, gens, n, keys):
            degrees.append((n, basis.dimension))
            return original(basis, spans, gens, n, keys)

        monkeypatch.setattr(symmetric, "add_products", recorded)
        result = symmetric_module_generators(3, 6)
        full = {entry.degree: entry.invariant_dimension for entry in result.saturation}
        assert degrees
        assert all(dimension < full[n] for n, dimension in degrees)
