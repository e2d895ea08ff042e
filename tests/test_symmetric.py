import math
from fractions import Fraction

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
from bicomm.algebra_core import monomial_table, pack, unpack
from bicomm.group_action import adjacent_transpositions
from bicomm.invariants import EchelonBasis, coefficient_spans, poly_to_row
from bicomm.symmetric import module_candidates


def is_symmetric(poly):
    return all(act_bulk(g, poly) == poly for g in adjacent_transpositions(poly.rank))


def full_two_alphabet_invariant_dimension(d, n):
    """Reynolds oracle over all of K[Y_d, Z_d], pure y and pure z included."""
    group = symmetric_group(d)
    keys = monomial_table(d, n).keys
    index = {key: i for i, key in enumerate(keys)}
    basis = EchelonBasis()
    for key in keys:
        averaged = YZPolynomial.zero(d)
        for g in group.elements:
            averaged = averaged + act_bulk(g, YZPolynomial.monomial(d, *unpack(d, key)))
        basis.add({index[k]: c for k, c in averaged.terms.items()})
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
