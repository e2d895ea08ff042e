import random
from fractions import Fraction
from itertools import product

import pytest

from bicomm import (
    BicommElement,
    RationalFunction,
    RationalMatrix,
    UniPoly,
    YZPolynomial,
    basis_component,
    dim_component,
    random_element,
)
from bicomm.algebra_core import _in_model, left_factor, pack, term_sort_key, unpack
from conftest import (
    from_tuple_terms,
    tuple_homogeneous_degree,
    tuple_in_model,
    tuple_left_factor,
    tuple_product,
    tuple_terms,
)


def mono(d, alpha, beta, coeff=1):
    return YZPolynomial.monomial(d, alpha, beta, coeff)


def bulk(d, alpha, beta, coeff=1):
    return BicommElement.from_bulk(mono(d, alpha, beta, coeff))


def naive_product(p, q):
    """Term-by-term multiplication oracle, independent of the library path."""
    out = {}
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            (a1, b1), (a2, b2) = unpack(p.rank, k1), unpack(q.rank, k2)
            key = (
                tuple(x + y for x, y in zip(a1, a2)),
                tuple(x + y for x, y in zip(b1, b2)),
            )
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return YZPolynomial(p.rank, {pack(p.rank, *k): c for k, c in out.items() if c})


class TestPolynomialArithmetic:
    def test_product_of_disjoint_monomials(self):
        p = mono(2, (1, 0), (1, 0))  # y1 z1
        q = mono(2, (0, 1), (0, 1))  # y2 z2
        assert p * q == mono(2, (1, 1), (1, 1))

    def test_product_with_zero_annihilates(self):
        p = mono(2, (1, 0), (1, 0))
        assert p * YZPolynomial.zero(2) == YZPolynomial.zero(2)
        assert not (p * YZPolynomial.zero(2))

    def test_distribution_over_sum(self):
        p = mono(2, (1, 0), (1, 0)) + mono(2, (0, 1), (0, 1))  # y1z1 + y2z2
        q = mono(2, (1, 0), (1, 0))  # y1z1
        expected = mono(2, (2, 0), (2, 0)) + mono(2, (1, 1), (1, 1))
        assert p * q == expected

    def test_product_matches_naive_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            a = random_element(rng, 3).bulk
            b = random_element(rng, 3).bulk
            assert a * b == naive_product(a, b)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mono(2, (1, 0), (1, 0)) * mono(3, (1, 0, 0), (1, 0, 0))
        with pytest.raises(ValueError):
            mono(2, (1, 0), (1, 0)) + mono(3, (1, 0, 0), (1, 0, 0))

    def test_no_zero_coefficients_survive(self):
        p = mono(1, (1,), (1,))
        assert (p - p).terms == {}
        assert (p + (-1) * p).terms == {}

    def test_power(self):
        p = mono(1, (1,), (0,)) + mono(1, (0,), (1,))  # y1 + z1
        assert p**2 == mono(1, (2,), (0,)) + 2 * mono(1, (1,), (1,)) + mono(1, (0,), (2,))
        assert p**0 == YZPolynomial.constant(1, 1)


def random_tuple_terms(rng, d, coefficient):
    """Up to six terms of degree 0..6 keyed by exponent tuples; half the time
    all of one degree."""
    degree = rng.randint(0, 6) if rng.random() < 0.5 else None
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = [0] * (2 * d)
        for _ in range(rng.randint(0, 6) if degree is None else degree):
            exps[rng.randrange(2 * d)] += 1
        if coeff := coefficient(rng):
            terms[(tuple(exps[:d]), tuple(exps[d:]))] = coeff
    return terms


COEFFICIENTS = {
    "int": lambda rng: rng.randint(-3, 3),
    "Fraction": lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
}


def typed(terms):
    return {key: (c, type(c)) for key, c in terms.items()}


@pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
@pytest.mark.parametrize("d", [1, 2, 3, 4])
class TestPackedKeysMatchTupleOracle:
    """Packed keys against the exponent-tuple code they replace (conftest)."""

    def pairs(self, d, kind):
        rng = random.Random(f"{d}{kind}")
        for _ in range(40):
            p, q = (random_tuple_terms(rng, d, COEFFICIENTS[kind]) for _ in range(2))
            yield p, q, from_tuple_terms(d, p), from_tuple_terms(d, q)

    def test_product(self, d, kind):
        for p, q, packed_p, packed_q in self.pairs(d, kind):
            assert typed(tuple_terms(packed_p * packed_q)) == typed(tuple_product(p, q))

    def test_left_factor(self, d, kind):
        for p, _, packed_p, _ in self.pairs(d, kind):
            assert tuple_terms(left_factor(packed_p)) == tuple_left_factor(p)

    def test_homogeneous_degree(self, d, kind):
        for p, _, packed_p, _ in self.pairs(d, kind):
            assert packed_p.homogeneous_degree() == tuple_homogeneous_degree(p)

    def test_in_model(self, d, kind):
        for p, _, _, _ in self.pairs(d, kind):
            for key in p:
                assert _in_model(d, pack(d, *key)) == tuple_in_model(key), key


class TestPackedKeyLimits:
    TOP = 2**16 - 1

    def test_pack_round_trips_extreme_exponents_at_rank_16(self):
        d = 16
        rng = random.Random(16)
        cases = [(0,) * 32, (self.TOP,) * 32]
        cases += [tuple(rng.choice((0, self.TOP)) for _ in range(32)) for _ in range(50)]
        for exps in cases:
            alpha, beta = exps[:d], exps[d:]
            key = pack(d, alpha, beta)
            assert unpack(d, key) == (alpha, beta)
            assert YZPolynomial(d, {key: 1}).homogeneous_degree() == sum(exps)

    def test_product_reaching_degree_2_16_raises(self):
        half = mono(1, (2**15,), (0,))
        with pytest.raises(ValueError, match="degree 65536"):
            half * half
        y1, z2 = YZPolynomial.variable(2, "y", 1), YZPolynomial.variable(2, "z", 2)
        below = mono(2, (self.TOP - 1, 0), (0, 0)) * y1
        assert tuple_terms(below) == {((self.TOP, 0), (0, 0)): 1}
        with pytest.raises(ValueError, match="degree 65536"):
            below * y1
        with pytest.raises(ValueError, match="degree 65536"):
            mono(2, (0, 0), (0, self.TOP)) * z2

    @pytest.mark.parametrize("bad", [-1, 2**16])
    def test_monomial_rejects_exponents_outside_a_field(self, bad):
        for alpha, beta in product([(bad, 0), (0, 1)], repeat=2):
            if bad in alpha + beta:
                with pytest.raises(ValueError, match="out of range"):
                    YZPolynomial.monomial(2, alpha, beta)

    def test_monomial_rejects_exponent_tuples_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="length 2"):
            YZPolynomial.monomial(2, (1,), (0, 1))
        with pytest.raises(ValueError, match="length 2"):
            YZPolynomial.monomial(2, (1, 0), (0, 1, 0))


class TestCoefficientTypes:
    @pytest.mark.parametrize("value", [0.1, 1.0, True, False, "1"])
    def test_constructors_take_only_ints_and_fractions(self, value):
        with pytest.raises(TypeError):
            YZPolynomial.constant(2, value)
        with pytest.raises(TypeError):
            YZPolynomial.monomial(2, (1, 0), (0, 1), value)
        with pytest.raises(TypeError):
            BicommElement.from_linear(2, [1, value])
        with pytest.raises(TypeError):
            UniPoly([1, value])

    @pytest.mark.parametrize("value", [0.1, 1.0, True, False])
    def test_matrices_take_no_floats_or_bools(self, value):
        with pytest.raises(TypeError):
            RationalMatrix([[value]])
        with pytest.raises(TypeError):
            RationalMatrix([[1, 0], [value, 1]])

    @pytest.mark.parametrize("alphabet", ["x", "Y", "yz", ""])
    def test_variables_and_linear_forms_take_only_y_or_z(self, alphabet):
        with pytest.raises(ValueError, match="alphabet must be 'y' or 'z'"):
            YZPolynomial.linear(alphabet, [1, 2])
        with pytest.raises(ValueError, match="alphabet must be 'y' or 'z'"):
            YZPolynomial.variable(2, alphabet, 1)

    def test_matrices_read_rational_literals(self):
        matrix = RationalMatrix([["2/4", "1"], [0, Fraction(1, 3)]])
        assert matrix.entries == ((Fraction(1, 2), 1), (0, Fraction(1, 3)))

    def test_integral_data_stays_int(self):
        p = YZPolynomial.monomial(2, (1, 0), (0, 1), 2) + YZPolynomial.constant(2, 3)
        q = (p * p - YZPolynomial.variable(2, "y", 1)) * 5
        assert all(type(c) is int for c in q.terms.values())
        assert q * Fraction(1, 5) == p * p - YZPolynomial.variable(2, "y", 1)
        assert all(type(c) is int for c in BicommElement.from_linear(2, [2, -1]).linear)
        p = (UniPoly([1, -2]) * UniPoly([3, 0, 1]) + UniPoly([0, 5])) ** 2
        assert all(type(c) is int for c in p.coeffs)
        assert all(type(c) is int for c in (p * Fraction(1, 2) * 2).coeffs)
        quotient, remainder = divmod(p, UniPoly([3, 0, 1]))
        assert all(type(c) is int for c in quotient.coeffs + remainder.coeffs)

    def test_random_element_coefficients_are_int_when_integral(self):
        rng = random.Random(41)
        coeffs = [
            c for _ in range(200) for c in random_element(rng, 2).lift.terms.values()
        ]
        assert any(type(c) is Fraction for c in coeffs)
        assert all(type(c) is int for c in coeffs if c.denominator == 1)


class TestBicommProduct:
    def test_generator_product(self):
        x1 = BicommElement.generator(2, 1)
        x2 = BicommElement.generator(2, 2)
        assert x1 * x2 == bulk(2, (1, 0), (0, 1))  # y1 z2

    def test_generator_times_bulk_prepends_y(self):
        x1 = BicommElement.generator(3, 1)
        assert x1 * bulk(3, (0, 1, 0), (0, 0, 1)) == bulk(3, (1, 1, 0), (0, 0, 1))

    def test_bulk_times_generator_appends_z(self):
        x3 = BicommElement.generator(3, 3)
        assert bulk(3, (1, 0, 0), (0, 1, 0)) * x3 == bulk(3, (1, 0, 0), (0, 1, 1))

    def test_bulk_times_bulk_is_polynomial_product(self):
        a = bulk(2, (1, 0), (1, 0))
        b = bulk(2, (0, 1), (0, 1))
        assert a * b == bulk(2, (1, 1), (1, 1))

    def test_right_commutativity_on_generators(self):
        x1, x2, x3 = (BicommElement.generator(3, i) for i in (1, 2, 3))
        assert (x1 * x2) * x3 == (x1 * x3) * x2
        assert (x1 * x2) * x3 == bulk(3, (1, 0, 0), (0, 1, 1))

    def test_defining_identities_randomized(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b, c = (random_element(rng, 2) for _ in range(3))
            assert (a * b) * c == (a * c) * b
            assert a * (b * c) == b * (a * c)

    def test_square_is_commutative_and_associative(self):
        rng = random.Random(13)
        for _ in range(50):
            a = BicommElement.from_bulk(random_element(rng, 2).bulk)
            b = BicommElement.from_bulk(random_element(rng, 2).bulk)
            c = BicommElement.from_bulk(random_element(rng, 2).bulk)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_noncommutativity_witness(self):
        x1 = BicommElement.generator(2, 1)
        x2 = BicommElement.generator(2, 2)
        left = x1 * (x2 * x2)
        right = (x2 * x2) * x1
        assert left == bulk(2, (1, 1), (0, 1))  # y1 y2 z2
        assert right == bulk(2, (0, 1), (1, 1))  # y2 z1 z2
        assert left != right

    def test_grading_is_additive(self):
        rng = random.Random(17)
        for _ in range(30):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            a = rng.choice(basis_component(2, n))
            b = rng.choice(basis_component(2, m))
            assert (a * b).homogeneous_degree() == n + m

    def test_membership_invariant_enforced(self):
        with pytest.raises(ValueError):
            BicommElement.from_bulk(mono(2, (1, 0), (0, 0)))  # bare y1
        with pytest.raises(ValueError):
            BicommElement.from_bulk(mono(2, (0, 0), (1, 0)))  # bare z1, the lift of x1

    def test_lift_terms_are_generators_or_bulk(self):
        x1_plus_y1z2 = mono(2, (0, 0), (1, 0)) + mono(2, (1, 0), (0, 1))
        element = BicommElement(2, x1_plus_y1z2)
        assert element.linear == (1, 0)
        assert element.bulk == mono(2, (1, 0), (0, 1))
        assert str(element) == "x1 + y1*z2"
        for bad in (mono(2, (1, 0), (0, 0)), mono(2, (0, 0), (2, 0)), mono(2, (0, 0), (0, 0))):
            with pytest.raises(ValueError):
                BicommElement(2, bad)
        with pytest.raises(ValueError):
            BicommElement(3, x1_plus_y1z2)

    def test_scalar_arithmetic(self):
        x1 = BicommElement.generator(2, 1)
        half = Fraction(1, 2)
        assert half * x1 + half * x1 == x1
        assert not (x1 - x1)


def _uni(*coeffs):
    return UniPoly(coeffs)


# Two values of each exact type that shares `-` and reflected `*`.
VALUE_PAIRS = {
    "YZPolynomial": (
        mono(2, (1, 0), (0, 2), Fraction(3, 2)) + mono(2, (0, 1), (1, 0)),
        mono(2, (1, 0), (0, 2), -1) + mono(2, (0, 0), (0, 0), 5),
    ),
    "BicommElement": (
        BicommElement.generator(2, 1) + bulk(2, (1, 1), (0, 1), -2),
        BicommElement.from_linear(2, [Fraction(1, 3), 1]) + bulk(2, (1, 1), (0, 1)),
    ),
    "UniPoly": (_uni(1, Fraction(-2, 3), 0, 4), _uni(0, 1, 1)),
    "RationalFunction": (
        RationalFunction(_uni(1, 2), _uni(1, -1)),
        RationalFunction(_uni(0, Fraction(1, 5)), _uni(1, 0, -1)),
    ),
}


@pytest.mark.parametrize("a,b", VALUE_PAIRS.values(), ids=list(VALUE_PAIRS))
def test_shared_subtraction_and_reflected_scalars(a, b):
    assert a - b == a + (-b)
    assert b - a == -(a - b)
    assert 3 * a == a * 3 == a + a + a
    assert Fraction(1, 2) * a == a * Fraction(1, 2)
    assert Fraction(1, 2) * (a + a) == a
    for bad in (lambda: a - 1, lambda: 1 - a, lambda: 1.5 * a, lambda: "s" * a):
        with pytest.raises(TypeError):
            bad()


class TestBases:
    def test_degree_one_is_generators(self):
        assert basis_component(1, 1) == [BicommElement.generator(1, 1)]
        assert [str(b) for b in basis_component(2, 1)] == ["x1", "x2"]

    def test_rank_one_degree_three(self):
        assert [str(b) for b in basis_component(1, 3)] == ["y1*z1^2", "y1^2*z1"]

    def test_rank_two_degree_two(self):
        expected = ["y1*z1", "y1*z2", "y2*z1", "y2*z2"]
        assert [str(b) for b in basis_component(2, 2)] == expected

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            basis_component(2, 0)
        with pytest.raises(ValueError):
            dim_component(2, 0)

    def test_enumeration_follows_canonical_order(self):
        for d in (1, 2, 3):
            for n in (2, 3, 4, 5):
                keys = [unpack(d, next(iter(b.lift.terms))) for b in basis_component(d, n)]
                assert keys == sorted(keys, key=term_sort_key)
                assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rank_one_dimension_formula(self, n):
        assert dim_component(1, n) == n - 1

    def test_small_dimensions(self):
        assert dim_component(2, 2) == 4
        assert dim_component(2, 3) == 12

    def test_dimension_matches_enumeration(self):
        for d in range(1, 5):
            for n in range(1, 11):
                assert dim_component(d, n) == len(basis_component(d, n))
