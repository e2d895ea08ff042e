import json
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from bicomm import (
    BicommElement,
    CapExceededError,
    RationalMatrix,
    SingularMatrixError,
    YZPolynomial,
    act,
    act_bulk,
    act_linear,
    diagonal_matrix,
    format_rational,
    group_closure,
    group_file_document,
    parse_rational,
    permutation_matrix,
    random_element,
    read_group_file,
    reynolds,
    symmetric_group,
    trivial_group,
)
from bicomm.group_action import GroupFileError, adjacent_transpositions, max_finite_order

SWAP = permutation_matrix((1, 0))
ROTATION = RationalMatrix.from_rows([[0, -1], [1, 0]])


def substitution_oracle(g, poly):
    """Apply the variable substitution one term at a time, the slow way."""
    d = poly.rank
    result = YZPolynomial.zero(d)
    y_images = [
        sum(
            (g.entries[i][j] * YZPolynomial.variable(d, "y", i + 1) for i in range(d)),
            YZPolynomial.zero(d),
        )
        for j in range(d)
    ]
    z_images = [
        sum(
            (g.entries[i][j] * YZPolynomial.variable(d, "z", i + 1) for i in range(d)),
            YZPolynomial.zero(d),
        )
        for j in range(d)
    ]
    for (alpha, beta), coeff in poly.terms.items():
        term = YZPolynomial.constant(d, coeff)
        for j, e in enumerate(alpha):
            for _ in range(e):
                term = term * y_images[j]
        for j, e in enumerate(beta):
            for _ in range(e):
                term = term * z_images[j]
        result = result + term
    return result


class TestClosure:
    def test_involution_gives_order_two(self):
        assert group_closure([SWAP]).order == 2

    def test_rotation_gives_order_four(self):
        assert group_closure([ROTATION]).order == 4

    def test_unipotent_exceeds_cap(self):
        shear = RationalMatrix.from_rows([[1, 1], [0, 1]])
        with pytest.raises(CapExceededError):
            group_closure([shear], cap=1000)

    @pytest.mark.parametrize(
        "generators",
        [
            [[[1, 1], [0, 1]]],
            [[[1, 0], [0, -1]], [[1, 1], [0, -1]]],
        ],
        ids=["shear", "infinite dihedral"],
    )
    def test_infinite_group_stops_at_rank_bound(self, generators):
        # The default cap is far above 12, the largest finite order at d = 2.
        with pytest.raises(CapExceededError, match=r"cap of 12 elements.*GL_2\(Q\)"):
            group_closure([RationalMatrix.from_rows(g) for g in generators])

    def test_groups_at_the_rank_bound_close(self):
        hexagonal = RationalMatrix.from_rows([[1, -1], [1, 0]])
        assert group_closure([hexagonal, SWAP]).order == max_finite_order(2) == 12
        signed = adjacent_transpositions(3) + [diagonal_matrix([-1, 1, 1])]
        assert group_closure(signed).order == max_finite_order(3) == 48

    def test_rank_bound_covers_signed_permutations(self):
        for d in range(1, 13):
            assert max_finite_order(d) >= 2**d * math.factorial(d)

    def test_singular_generator_rejected(self):
        with pytest.raises(SingularMatrixError):
            group_closure([RationalMatrix.from_rows([[1, 1], [1, 1]])])

    def test_trivial_group(self):
        group = trivial_group(3)
        assert group.order == 1
        assert group.elements[0].is_identity()

    def test_symmetric_group_orders(self):
        assert symmetric_group(1).order == 1
        assert symmetric_group(2).order == 2
        assert symmetric_group(3).order == 6
        assert symmetric_group(4).order == 24

    def test_closure_is_deterministic(self):
        a = group_closure([SWAP, diagonal_matrix([-1, 1])])
        b = group_closure([SWAP, diagonal_matrix([-1, 1])])
        assert a.elements == b.elements
        assert a.order == 8

    def test_group_axioms_hold(self, catalogue):
        for _, group in catalogue:
            group.validate()

    def test_element_orders_divide_group_order(self, catalogue):
        for _, group in catalogue:
            assert group.order <= 48
            for g in group.elements:
                power = g
                order = 1
                while not power.is_identity():
                    power = power * g
                    order += 1
                assert group.order % order == 0


class TestDeterminant:
    @staticmethod
    def leibniz(rows):
        """Sum over permutations of signed products: the textbook oracle."""
        d = len(rows)
        total = Fraction(0)
        for perm in permutations(range(d)):
            inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
            term = Fraction(-1 if inversions % 2 else 1)
            for i in range(d):
                term *= rows[i][perm[i]]
            total += term
        return total

    def test_matches_permutation_expansion(self):
        rng = random.Random(11)
        for d in range(1, 5):
            for _ in range(12):
                rows = [
                    [Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(d)]
                    for _ in range(d)
                ]
                assert RationalMatrix.from_rows(rows).det() == self.leibniz(rows)

    def test_singular_and_signed_cases(self):
        assert RationalMatrix.from_rows([[1, 2], [2, 4]]).det() == 0
        assert RationalMatrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det() == -1
        assert diagonal_matrix([Fraction(1, 2), 3, -1]).det() == Fraction(-3, 2)


class TestAction:
    def test_identity_fixes_linear(self):
        coeffs = (Fraction(1), Fraction(0))
        assert act_linear(RationalMatrix.identity(2), coeffs) == coeffs

    def test_swap_moves_x1_to_x2(self):
        image = act_linear(SWAP, (Fraction(1), Fraction(0)))
        assert image == (Fraction(0), Fraction(1))

    def test_negation_flips_sign(self):
        assert act_linear(diagonal_matrix([-1]), (Fraction(1),)) == (Fraction(-1),)

    def test_swap_permutes_bulk(self):
        y1z2 = YZPolynomial.monomial(2, (1, 0), (0, 1))
        y2z1 = YZPolynomial.monomial(2, (0, 1), (1, 0))
        assert act_bulk(SWAP, y1z2) == y2z1

    def test_negation_cancels_on_even_bidegree(self):
        y1z1 = YZPolynomial.monomial(2, (1, 0), (1, 0))
        assert act_bulk(diagonal_matrix([-1, -1]), y1z1) == y1z1

    def test_shear_matches_substitution_oracle(self):
        shear = RationalMatrix.from_rows([[1, 1], [0, 1]])
        rng = random.Random(3)
        for _ in range(20):
            poly = random_element(rng, 2).bulk
            assert act_bulk(shear, poly) == substitution_oracle(shear, poly)

    def test_general_matrix_matches_substitution_oracle(self):
        g = RationalMatrix.from_rows([[Fraction(1, 2), 1], [-1, Fraction(2, 3)]])
        rng = random.Random(5)
        for _ in range(10):
            poly = random_element(rng, 2).bulk
            assert act_bulk(g, poly) == substitution_oracle(g, poly)

    def test_action_preserves_bidegree(self):
        g = RationalMatrix.from_rows([[1, 2], [3, 4]])
        poly = YZPolynomial.monomial(2, (2, 1), (0, 3))
        image = act_bulk(g, poly)
        assert {(sum(a), sum(b)) for a, b in image.terms} == {(3, 3)}

    def test_action_is_by_algebra_automorphisms(self, catalogue):
        rng = random.Random(23)
        for _, group in catalogue:
            d = group.rank
            for g in group.elements:
                a = random_element(rng, d)
                b = random_element(rng, d)
                assert act(g, a * b) == act(g, a) * act(g, b)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            act_bulk(SWAP, YZPolynomial.monomial(3, (1, 0, 0), (1, 0, 0)))
        with pytest.raises(ValueError):
            act_linear(SWAP, (Fraction(1),))


class TestReynolds:
    def test_swap_averages_generator(self, swap_group):
        averaged = reynolds(swap_group, BicommElement.generator(2, 1))
        expected = Fraction(1, 2) * (
            BicommElement.generator(2, 1) + BicommElement.generator(2, 2)
        )
        assert averaged == expected

    def test_swap_averages_bulk_monomial(self, swap_group):
        y1z2 = BicommElement.from_bulk(YZPolynomial.monomial(2, (1, 0), (0, 1)))
        y2z1 = BicommElement.from_bulk(YZPolynomial.monomial(2, (0, 1), (1, 0)))
        assert reynolds(swap_group, y1z2) == Fraction(1, 2) * (y1z2 + y2z1)

    def test_odd_degree_kills_negation_orbit(self, negation_d1):
        element = BicommElement.from_bulk(YZPolynomial.monomial(1, (1,), (2,)))
        assert reynolds(negation_d1, element).is_zero()

    def test_idempotence(self, catalogue):
        rng = random.Random(29)
        for _, group in catalogue:
            for _ in range(3):
                element = random_element(rng, group.rank)
                averaged = reynolds(group, element)
                assert reynolds(group, averaged) == averaged

    def test_output_is_fixed_by_the_group(self, catalogue):
        rng = random.Random(31)
        for _, group in catalogue:
            element = reynolds(group, random_element(rng, group.rank))
            for g in group.elements:
                assert act(g, element) == element

    def test_linear_invariant_dimension_is_trace_average(self, catalogue):
        from bicomm.invariants import EchelonBasis, element_to_row

        for _, group in catalogue:
            basis = EchelonBasis()
            for i in range(1, group.rank + 1):
                image = reynolds(group, BicommElement.generator(group.rank, i))
                basis.add(element_to_row(image, 1))
            average = sum((g.trace() for g in group.elements), Fraction(0)) / group.order
            assert basis.dimension == average


class TestGroupFiles:
    def test_parse_rational_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2") == Fraction(-2)
        assert parse_rational("2/4") == Fraction(1, 2)

    def test_parse_rational_rejects_garbage(self):
        for bad in ("1.5", "1/0", "a", "1/-2", ""):
            with pytest.raises(GroupFileError):
                parse_rational(bad)

    def test_parse_rational_rejects_non_ascii_digits(self):
        for bad in ("\u0663", "-\u0661", "1/\u0662"):
            with pytest.raises(GroupFileError):
                parse_rational(bad)

    def test_format_is_canonical(self):
        assert format_rational(Fraction(2, 4)) == "1/2"
        assert format_rational(Fraction(0)) == "0"
        assert format_rational(Fraction(-3, 6)) == "-1/2"
        assert format_rational(Fraction(5)) == "5"

    def test_round_trip(self, tmp_path):
        generators = [SWAP, diagonal_matrix([Fraction(-1), Fraction(1)])]
        path = tmp_path / "b2.group"
        path.write_text(json.dumps(group_file_document(2, generators)))
        rank, parsed = read_group_file(path)
        assert rank == 2
        assert parsed == generators

    def test_missing_file(self, tmp_path):
        with pytest.raises(GroupFileError):
            read_group_file(tmp_path / "missing.group")

    def test_boolean_rank_rejected(self, tmp_path):
        path = tmp_path / "bool.group"
        path.write_text(json.dumps({"d": True, "generators": [[["1"]]]}))
        with pytest.raises(GroupFileError):
            read_group_file(path)

    def test_malformed_documents(self, tmp_path):
        cases = [
            "not json",
            json.dumps([1, 2]),
            json.dumps({"d": 2}),
            json.dumps({"d": 0, "generators": []}),
            json.dumps({"d": 2, "generators": [[["1", "0"]]]}),
            json.dumps({"d": 2, "generators": [[["1", "0"], ["0", "1.5"]]]}),
        ]
        for i, text in enumerate(cases):
            path = tmp_path / f"bad{i}.group"
            path.write_text(text)
            with pytest.raises(GroupFileError):
                read_group_file(path)
