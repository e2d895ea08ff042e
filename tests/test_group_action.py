import json
import math
import operator
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
    parse_rational,
    permutation_matrix,
    random_element,
    read_group_file,
    reynolds,
    symmetric_group,
    trivial_group,
)
from bicomm.algebra_core import unpack
from bicomm.group_action import GroupFileError, adjacent_transpositions, max_finite_order
from conftest import is_identity

SWAP = permutation_matrix((1, 0))
ROTATION = RationalMatrix([[0, -1], [1, 0]])


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
    for key, coeff in poly.terms.items():
        alpha, beta = unpack(d, key)
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
        shear = RationalMatrix([[1, 1], [0, 1]])
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
            group_closure([RationalMatrix(g) for g in generators])

    def test_groups_at_the_rank_bound_close(self):
        hexagonal = RationalMatrix([[1, -1], [1, 0]])
        assert group_closure([hexagonal, SWAP]).order == max_finite_order(2) == 12
        signed = adjacent_transpositions(3) + [diagonal_matrix([-1, 1, 1])]
        assert group_closure(signed).order == max_finite_order(3) == 48

    def test_rank_bound_covers_signed_permutations(self):
        for d in range(1, 13):
            assert max_finite_order(d) >= 2**d * math.factorial(d)

    @pytest.mark.parametrize("d", [0, -1])
    def test_rank_bound_needs_positive_rank(self, d):
        with pytest.raises(ValueError):
            max_finite_order(d)

    def test_singular_generator_rejected(self):
        with pytest.raises(SingularMatrixError):
            group_closure([RationalMatrix([[1, 1], [1, 1]])])

    def test_trivial_group(self):
        group = trivial_group(3)
        assert group.order == 1
        assert is_identity(group.elements[0])

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
            assert len(set(group.elements)) == len(group.elements)
            assert group.elements and is_identity(group.elements[0])
            members = set(group.elements)
            for g in group.elements:
                assert g.size == group.rank
                assert any(is_identity(g * h) for h in group.elements)
                for h in group.elements:
                    assert g * h in members

    def test_element_orders_divide_group_order(self, catalogue):
        for _, group in catalogue:
            assert group.order <= 48
            for g in group.elements:
                power = g
                order = 1
                while not is_identity(power):
                    power = power * g
                    order += 1
                assert group.order % order == 0


def companion(coeffs):
    """The companion matrix of the monic s^d + coeffs[0] s^(d-1) + ... + coeffs[-1]."""
    d = len(coeffs)
    rows = [[int(j == i - 1) for j in range(d)] for i in range(d)]
    for i, c in enumerate(reversed(coeffs)):
        rows[i][d - 1] = -c
    return RationalMatrix(rows)


def block_sum(*blocks):
    """diag(blocks[0], blocks[1], ...)."""
    d = sum(b.size for b in blocks)
    rows, start = [], 0
    for b in blocks:
        rows += [(0,) * start + row + (0,) * (d - start - b.size) for row in b.entries]
        start += b.size
    return RationalMatrix(rows)


class TestFiniteOrderCheck:
    @pytest.mark.parametrize(
        "g",
        [
            diagonal_matrix([2, 1, 1, 1, 1, 1]),
            diagonal_matrix([Fraction(1, 2), 1, 1, 1, 1, 1]),
            block_sum(RationalMatrix([[-1, 1], [0, -1]]), RationalMatrix.identity(2)),
            block_sum(RationalMatrix([[0, 1], [1, 1]]), RationalMatrix.identity(2)),
            companion([0, 0, 0, 0, -2]),
        ],
        ids=["diag(2,1,...)", "diag(1/2,1,...)", "-shear", "golden", "s^5 - 2"],
    )
    def test_infinite_generator_fails_before_the_closure(self, g):
        with pytest.raises(CapExceededError, match=r"infinite order.*cap of \d+ elements"):
            group_closure([g])

    @pytest.mark.parametrize(
        "g,order",
        [
            (companion([1, 1, 1, 1]), 5),
            (companion([0, -1, 0, 1]), 12),
            (block_sum(companion([1, 1]), companion([0, 1])), 12),
            (block_sum(companion([1]), companion([1, 1]), companion([-1, 1, -1, 1])), 30),
        ],
        ids=["Phi_5", "Phi_12", "Phi_3 + Phi_4", "Phi_2 + Phi_3 + Phi_10"],
    )
    def test_finite_generator_closes_to_its_order(self, g, order):
        assert group_closure([g]).order == order


class TestIntegerForm:
    def test_equal_rationals_give_equal_matrices(self):
        half, two_quarters = RationalMatrix([[Fraction(1, 2)]]), RationalMatrix([["2/4"]])
        assert half == two_quarters
        assert hash(half) == hash(two_quarters)
        assert two_quarters.entries == ((Fraction(1, 2),),)

    def test_entries_round_trip(self):
        rng = random.Random(17)
        for d in range(1, 5):
            for _ in range(10):
                rows = tuple(
                    tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4, 6))) for _ in range(d))
                    for _ in range(d)
                )
                g = RationalMatrix(rows)
                assert g.entries == rows
                assert RationalMatrix(g.entries) == g
                assert str(g) == "[" + "; ".join(" ".join(map(str, r)) for r in rows) + "]"

    def test_products_reduce_to_the_canonical_form(self):
        product = diagonal_matrix([2, 4]) * diagonal_matrix([Fraction(1, 2), Fraction(1, 4)])
        assert product == RationalMatrix.identity(2)
        assert hash(product) == hash(RationalMatrix.identity(2))
        assert is_identity(product)

    @pytest.mark.parametrize("text", ["1.5", "1e3", "+3", "1_000"])
    def test_string_entries_follow_the_group_file_grammar(self, text):
        with pytest.raises(GroupFileError):
            RationalMatrix([[text]])
        with pytest.raises(TypeError):
            RationalMatrix([[float(text)]])

    @pytest.mark.parametrize("text,value", [("2/4", Fraction(1, 2)), ("-3", -3), (" 7 ", 7)])
    def test_string_entries_read_as_group_file_literals(self, text, value):
        assert RationalMatrix([[text]]).entries == ((value,),)

    def test_matrices_are_immutable(self):
        with pytest.raises(AttributeError):
            SWAP.size = 3

    def test_closure_matches_the_fraction_oracle(
        self, catalogue_generators, s3_conjugated_generators, fraction_closure
    ):
        cases = [(rank, gens) for _, rank, gens in catalogue_generators]
        cases.append((3, s3_conjugated_generators))
        for rank, gens in cases:
            group = group_closure(gens, rank=rank)
            assert tuple(g.entries for g in group.elements) == fraction_closure(gens, rank)

    def test_char_coefficients_match_the_fraction_oracle(
        self, catalogue, s3_conjugated, dihedral_d6, fraction_char_coefficients
    ):
        groups = [group for _, group in catalogue] + [s3_conjugated, dihedral_d6]
        for group in groups:
            for g in group.elements:
                assert g.char_coefficients() == fraction_char_coefficients(g.entries)


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
                assert RationalMatrix(rows).det() == self.leibniz(rows)

    def test_singular_and_signed_cases(self):
        assert RationalMatrix([[1, 2], [2, 4]]).det() == 0
        assert RationalMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det() == -1
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

    def test_act_linear_matches_the_entries_oracle(self):
        """`act_linear` reads the integer rows; the oracle reads `entries`.
        The result types agree too: `int`s for an integer vector when the
        common denominator is 1, `Fraction`s otherwise."""
        rng = random.Random(29)
        for d in range(1, 5):
            for _ in range(25):
                q = rng.randint(1, 9)
                g = RationalMatrix(
                    [[Fraction(rng.randint(-9, 9), q) for _ in range(d)] for _ in range(d)]
                )
                integer = [rng.randint(-5, 5) for _ in range(d)]
                rational = [Fraction(rng.randint(-5, 5), rng.randint(1, 9)) for _ in range(d)]
                for coeffs in (integer, rational):
                    expected = tuple(sum(map(operator.mul, row, coeffs)) for row in g.entries)
                    image = act_linear(g, coeffs)
                    assert image == expected
                    assert [type(c) for c in image] == [type(c) for c in expected]
        assert [type(c) for c in act_linear(SWAP, (2, -3))] == [int, int]
        half = diagonal_matrix([Fraction(1, 2), 2])
        assert [type(c) for c in act_linear(half, (2, 1))] == [Fraction, Fraction]

    def test_act_matches_the_two_line_formula(self, catalogue, s3_conjugated):
        """`act` goes through the element API; the formula it replaced, which
        wrote the lift keys itself, is the oracle."""

        def oracle(g, element):
            linear = YZPolynomial.linear("z", act_linear(g, element.linear))
            return BicommElement(element.rank, linear + act_bulk(g, element.bulk))

        general = RationalMatrix([[Fraction(1, 2), 1], [-1, Fraction(2, 3)]])
        matrices = [g for _, group in catalogue for g in group.elements]
        matrices += list(s3_conjugated.elements) + [general]
        rng = random.Random(31)
        for g in matrices:
            for _ in range(3):
                element = random_element(rng, g.size)
                assert act(g, element) == oracle(g, element)

    def test_swap_permutes_bulk(self):
        y1z2 = YZPolynomial.monomial(2, (1, 0), (0, 1))
        y2z1 = YZPolynomial.monomial(2, (0, 1), (1, 0))
        assert act_bulk(SWAP, y1z2) == y2z1

    def test_negation_cancels_on_even_bidegree(self):
        y1z1 = YZPolynomial.monomial(2, (1, 0), (1, 0))
        assert act_bulk(diagonal_matrix([-1, -1]), y1z1) == y1z1

    def test_shear_matches_substitution_oracle(self):
        shear = RationalMatrix([[1, 1], [0, 1]])
        rng = random.Random(3)
        for _ in range(20):
            poly = random_element(rng, 2).bulk
            assert act_bulk(shear, poly) == substitution_oracle(shear, poly)

    def test_general_matrix_matches_substitution_oracle(self):
        g = RationalMatrix([[Fraction(1, 2), 1], [-1, Fraction(2, 3)]])
        rng = random.Random(5)
        for _ in range(10):
            poly = random_element(rng, 2).bulk
            assert act_bulk(g, poly) == substitution_oracle(g, poly)

    def test_action_preserves_bidegree(self):
        g = RationalMatrix([[1, 2], [3, 4]])
        poly = YZPolynomial.monomial(2, (2, 1), (0, 3))
        image = act_bulk(g, poly)
        assert {(sum(a), sum(b)) for a, b in (unpack(2, k) for k in image.terms)} == {(3, 3)}

    def test_action_is_by_algebra_automorphisms(self, catalogue):
        rng = random.Random(23)
        for _, group in catalogue:
            d = group.rank
            for g in group.elements:
                a = random_element(rng, d)
                b = random_element(rng, d)
                assert act(g, a * b) == act(g, a) * act(g, b)

    def test_second_action_builds_no_new_linear_form(self, monkeypatch):
        """The matrix keeps its monomial images, so a second call rebuilds no
        linear form: one per variable that the input's monomials hold."""
        g = RationalMatrix([[Fraction(1, 2), 1], [-1, Fraction(2, 3)]])
        poly = YZPolynomial.monomial(2, (2, 1), (0, 3))
        expected = substitution_oracle(g, poly)
        built = []
        original = YZPolynomial.linear.__func__

        def counted(cls, alphabet, coeffs):
            built.append(alphabet)
            return original(cls, alphabet, coeffs)

        monkeypatch.setattr(YZPolynomial, "linear", classmethod(counted))
        assert act_bulk(g, poly) == expected
        assert sorted(built) == ["y", "y", "z"]
        assert act_bulk(g, poly) == expected
        assert len(built) == 3

    @pytest.mark.parametrize(
        "rows",
        [
            [[Fraction(1, 9), 2], [Fraction(-3, 7), Fraction(5, 8)]],
            [[1, Fraction(1, 2), 0], [Fraction(2, 3), -1, Fraction(1, 9)], [0, 1, Fraction(4, 5)]],
        ],
    )
    def test_one_alphabet_and_mixed_keys_match_substitution_oracle(self, rows):
        """The constant key, pure-y, pure-z and mixed keys, with int and
        Fraction coefficients; the second pass reads the filled cache."""
        g = RationalMatrix(rows)
        d = g.size
        exponents = [(0,) * d, (2,) + (0,) * (d - 1), (1,) * d, (0,) * (d - 1) + (3,)]
        polys = [
            YZPolynomial.monomial(d, alpha, beta, coeff)
            for alpha in exponents
            for beta in exponents
            for coeff in (1, -3, Fraction(5, 2))
        ]
        polys.append(sum(polys, YZPolynomial.zero(d)))
        expected = [substitution_oracle(g, poly) for poly in polys]
        assert [act_bulk(g, poly) for poly in polys] == expected
        cached = dict(g._images)
        assert [act_bulk(g, poly) for poly in polys] == expected
        assert g._images == cached

    def test_results_share_no_terms_with_the_cache(self):
        """A result is a fresh polynomial: mutating it changes no later result."""
        g = RationalMatrix([[Fraction(1, 2), 1], [-1, Fraction(2, 3)]])
        polys = [
            YZPolynomial.constant(2, 1),
            YZPolynomial.variable(2, "y", 1),
            YZPolynomial.monomial(2, (2, 0), (0, 0)),
            YZPolynomial.monomial(2, (0, 0), (1, 1)),
            YZPolynomial.monomial(2, (1, 1), (0, 2)),
        ]
        expected = [substitution_oracle(g, poly) for poly in polys]
        for poly in polys:
            act_bulk(g, poly).terms.clear()
            act_bulk(g, poly).terms[0] = 7
        assert [act_bulk(g, poly) for poly in polys] == expected

    def test_long_monomial_builds_without_deep_recursion(self):
        """A chain of images longer than the recursion limit is built in a loop."""
        poly = YZPolynomial.monomial(1, (1500,), (2,))
        assert act_bulk(diagonal_matrix([-1]), poly) == poly

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            act_bulk(SWAP, YZPolynomial.monomial(3, (1, 0, 0), (1, 0, 0)))
        with pytest.raises(ValueError):
            act_linear(SWAP, (Fraction(1),))
        with pytest.raises(ValueError):
            act(SWAP, BicommElement.generator(3, 1))
        with pytest.raises(ValueError):
            reynolds(group_closure([SWAP]), BicommElement.generator(3, 1))


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
        assert not reynolds(negation_d1, element)

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

    def test_matches_average_of_element_images(self, catalogue, s3_conjugated):
        """Reynolds equals the average of the `act` images, kept as the oracle."""
        rng = random.Random(37)
        for _, group in catalogue + [("S_3^P", s3_conjugated)]:
            for _ in range(4):
                element = random_element(rng, group.rank)
                oracle = group.average(lambda g: act(g, element))
                assert reynolds(group, element) == oracle

    def test_linear_invariant_dimension_is_trace_average(self, catalogue):
        from bicomm.invariants import EchelonBasis, element_to_row

        for _, group in catalogue:
            basis = EchelonBasis()
            for i in range(1, group.rank + 1):
                image = reynolds(group, BicommElement.generator(group.rank, i))
                basis.add(element_to_row(image))
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
        swap, sign = [["0", "1"], ["1", "0"]], [["-1", "0"], ["0", "1"]]
        path.write_text(json.dumps({"d": 2, "generators": [swap, sign]}))
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
