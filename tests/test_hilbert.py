import json
import random
import re
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest

from bicomm import (
    RationalFunction,
    RationalMatrix,
    UniPoly,
    char_det,
    diagonal_matrix,
    dicks_formanek,
    dim_component,
    expand,
    hilbert_free_bicomm,
    invariant_dimension,
    molien_bicomm,
    molien_classic,
    permutation_matrix,
    trivial_group,
)
from bicomm import hilbert
from bicomm.cli import main
from bicomm.group_action import (
    FiniteGroup,
    adjacent_transpositions,
    cyclotomic,
    cyclotomic_factors,
)
from bicomm.hilbert import char_classes, poly_gcd

ONE = UniPoly.one()
T = UniPoly((0, 1))


def rf(num, den=(1,)):
    return RationalFunction(UniPoly(num), UniPoly(den))


def cycle_lengths(perm):
    seen = set()
    lengths = []
    for start in range(len(perm)):
        if start in seen:
            continue
        length = 0
        i = start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        lengths.append(length)
    return lengths


class TestUniPoly:
    def test_normalization_strips_trailing_zeros(self):
        assert UniPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert not UniPoly([0, 0])

    def test_division_inverts_multiplication(self):
        a = UniPoly([1, -2, 3])
        b = UniPoly([2, 5])
        q, r = divmod(a * b, b)
        assert q == a and not r

    def test_divmod_with_remainder(self):
        a = UniPoly([1, 0, 1])
        b = UniPoly([1, 1])
        q, r = divmod(a, b)
        assert b * q + r == a
        assert r.degree < b.degree

    def test_gcd_extracts_common_factor(self):
        common = UniPoly([1, 1])
        a = common * UniPoly([1, -1])
        b = common * UniPoly([2, 1])
        assert poly_gcd(a, b) == common
        assert poly_gcd(a, UniPoly.zero()) == a.monic()


def _random_poly(rng, degree, fractional, constant=None):
    """A random polynomial of exactly this degree: int coefficients in
    -5..5, or Fractions with denominators up to 4 when `fractional`."""
    def coefficient():
        value = rng.randint(-5, 5)
        return Fraction(value, rng.randint(1, 4)) if fractional else value

    coeffs = [coefficient() for _ in range(degree)] + [rng.choice((-3, -1, 1, 2))]
    if constant is not None:
        coeffs[0] = constant
    return UniPoly(coeffs)


class TestExactDivision:
    """`UniPoly.exact_quotient` and `taylor`, the low-order-first division,
    against the Euclidean `divmod`."""

    @pytest.mark.parametrize("fractional", [False, True], ids=["int", "Fraction"])
    def test_exact_quotient_matches_divmod(self, fractional):
        rng = random.Random(18)
        for _ in range(200):
            divisor = _random_poly(rng, rng.randint(0, 5), fractional, constant=1)
            quotient = _random_poly(rng, rng.randint(0, 6), fractional)
            product = quotient * divisor
            assert product.exact_quotient(divisor) == quotient == divmod(product, divisor)[0]
            if not fractional:
                assert all(type(c) is int for c in product.exact_quotient(divisor).coeffs)
            other = _random_poly(rng, rng.randint(0, 8), fractional)
            q, r = divmod(other, divisor)
            assert other.exact_quotient(divisor) == (None if r else q)
            if divisor.degree > 0:
                remainder = _random_poly(rng, rng.randint(0, divisor.degree - 1), fractional)
                assert (product + remainder).exact_quotient(divisor) is None

    @pytest.mark.parametrize("fractional", [False, True], ids=["int", "Fraction"])
    def test_taylor_is_the_series_quotient(self, fractional):
        rng = random.Random(19)
        for _ in range(100):
            divisor = _random_poly(rng, rng.randint(0, 4), fractional, constant=1)
            numerator = _random_poly(rng, rng.randint(0, 4), fractional)
            terms = rng.randint(0, 12)
            series = UniPoly(numerator.taylor(divisor, terms))
            assert len(numerator.taylor(divisor, terms)) == terms
            low = (series * divisor - numerator).coeffs
            assert not any(low[:terms])

    def test_taylor_needs_constant_term_one(self):
        for divisor in (UniPoly([2, 1]), T, UniPoly.zero()):
            with pytest.raises(ValueError):
                ONE.taylor(divisor, 3)

    def test_cyclotomic_products_over_divisors(self):
        for n in range(1, 61):
            divisors = [k for k in range(1, n + 1) if n % k == 0]
            one_minus_t_n = UniPoly([1] + [0] * (n - 1) + [-1])
            assert prod(map(cyclotomic, divisors), start=ONE) == one_minus_t_n
            assert all(type(c) is int for c in cyclotomic(n).coeffs)
        assert cyclotomic(1) == UniPoly([1, -1])
        assert cyclotomic(12) == UniPoly([1, 0, -1, 0, 1])

    def test_cyclotomic_factors_recovers_exponents(self):
        rng = random.Random(20)
        for _ in range(100):
            exponents = {}
            for _ in range(rng.randint(0, 4)):
                n = rng.randint(1, 15)
                exponents[n] = exponents.get(n, 0) + 1
            det = prod((cyclotomic(n) ** e for n, e in exponents.items()), start=ONE)
            assert cyclotomic_factors(det) == exponents
            for stranger in (UniPoly([1, -2]), UniPoly([1, Fraction(1, 2)])):
                assert cyclotomic_factors(det * stranger) is None
        assert cyclotomic_factors(UniPoly([2, -2])) is None


class TestRationalFunction:
    def test_construction_reduces_to_lowest_terms(self):
        f = rf([0, 1, 1], [1, 1])  # t(1+t)/(1+t)
        assert f == rf([0, 1])
        assert f.denominator == ONE

    def test_denominator_constant_coefficient_normalized(self):
        f = RationalFunction(UniPoly([2]), UniPoly([2, 2]))
        assert f.denominator.coefficient(0) == 1
        assert f == rf([1], [1, 1])

    def test_zero_at_origin_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalFunction(ONE, T)

    def test_arithmetic(self):
        geometric = rf([1], [1, -1])
        assert geometric - RationalFunction.one() == rf([0, 1], [1, -1])
        assert geometric * geometric == rf([1], [1, -2, 1])

    def test_equality_is_canonical(self):
        a = rf([1], [1, -1]) + rf([1], [1, 1])
        b = rf([2], [1, 0, -1])
        assert a == b

    def test_coprimality_invariant(self):
        f = molien_classic(trivial_group(2))
        assert poly_gcd(f.numerator, f.denominator).degree == 0


class TestCharDet:
    def test_identity(self):
        assert char_det(RationalMatrix.identity(2)) == UniPoly([1, -2, 1])

    def test_swap(self):
        assert char_det(permutation_matrix((1, 0))) == UniPoly([1, 0, -1])

    def test_rotation(self):
        rotation = RationalMatrix([[0, -1], [1, 0]])
        assert char_det(rotation) == UniPoly([1, 0, 1])

    def test_constant_coefficient_is_one(self, catalogue):
        for _, group in catalogue:
            for g in group.elements:
                assert char_det(g).coefficient(0) == 1

    def test_permutation_matrices_factor_over_cycles(self):
        for d in range(1, 5):
            for perm in permutations(range(d)):
                expected = ONE
                for length in cycle_lengths(perm):
                    factor = [1] + [0] * (length - 1) + [-1]
                    expected = expected * UniPoly(factor)
                assert char_det(permutation_matrix(perm)) == expected


class TestClosedForms:
    def test_molien_classic_trivial(self):
        assert molien_classic(trivial_group(2)) == rf([1], [1, -2, 1])

    def test_molien_classic_swap(self, swap_group):
        expected = RationalFunction(
            ONE, UniPoly([1, -1]) * UniPoly([1, 0, -1])
        )
        assert molien_classic(swap_group) == expected

    def test_molien_classic_negation(self, negation_d1):
        assert molien_classic(negation_d1) == rf([1], [1, 0, -1])

    def test_dicks_formanek_trivial(self):
        for d in (1, 2, 3):
            assert dicks_formanek(trivial_group(d)) == rf([1], [1, -d])

    def test_dicks_formanek_negation(self, negation_d1):
        assert dicks_formanek(negation_d1) == rf([1], [1, 0, -1])

    def test_dicks_formanek_swap(self, swap_group):
        assert dicks_formanek(swap_group) == rf([1, -1], [1, -2])

    def test_free_series_rank_one(self):
        geometric_sq = rf([1], [1, -2, 1])
        expected = rf([0, 1]) + rf([0, 0, 1]) * geometric_sq
        assert hilbert_free_bicomm(1) == expected
        series = expand(hilbert_free_bicomm(1), 6)
        assert list(series.coefficients) == [0, 1, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_free_series_counts_basis(self, d):
        series = expand(hilbert_free_bicomm(d), 8)
        assert series.coefficients[0] == 0
        for n in range(1, 9):
            assert series.coefficients[n] == dim_component(d, n)

    def test_molien_bicomm_trivial_matches_free(self):
        for d in (1, 2, 3, 4):
            assert molien_bicomm(trivial_group(d)) == hilbert_free_bicomm(d)

    def test_molien_bicomm_negation_closed_form(self, negation_d1):
        numerator = UniPoly([0, 0, 1, 0, 1])  # t^2 (1 + t^2)
        denominator = UniPoly([1, 0, -1]) ** 2  # (1 - t^2)^2
        assert molien_bicomm(negation_d1) == RationalFunction(numerator, denominator)
        series = expand(molien_bicomm(negation_d1), 10)
        for m in range(6):
            assert series.coefficients[2 * m] == (2 * m - 1 if m else 0)
        for m in range(5):
            assert series.coefficients[2 * m + 1] == 0

    def test_molien_bicomm_swap_series(self, swap_group):
        series = expand(molien_bicomm(swap_group), 6)
        dims = [invariant_dimension(swap_group, n) for n in range(1, 7)]
        assert list(series.coefficients) == [0] + dims
        assert dims == [1, 2, 6, 13, 22, 36]

    def test_summand_sanity_per_element(self, catalogue):
        for _, group in catalogue:
            for g in group.elements:
                bulk = RationalFunction(ONE, char_det(g)) - RationalFunction.one()
                term = bulk * bulk + RationalFunction.from_poly(
                    UniPoly([0, g.trace()])
                )
                series = expand(term, 1)
                assert series.coefficients[0] == 0
                assert series.coefficients[1] == g.trace()


B3_GENERATORS = adjacent_transpositions(3) + [diagonal_matrix([-1, 1, 1])]


class TestClassSums:
    """The three series are summed once per class of `char_classes`; the
    per-element averages they replace are the oracle."""

    def test_series_match_the_per_element_average(
        self,
        catalogue,
        b3_group,
        b4_group,
        a4_group,
        dihedral_d6,
        s3_conjugated,
        b3_conjugated,
        per_element_series,
    ):
        entries = [v for g in b3_conjugated.elements for row in g.entries for v in row]
        assert any(v.denominator == 3 for v in entries)
        groups = catalogue + [
            ("B_3", b3_group),
            ("B_4", b4_group),
            ("A_4", a4_group),
            ("D_6", dihedral_d6),
            ("S_3^P", s3_conjugated),
            ("B_3^P", b3_conjugated),
        ]
        for name, group in groups:
            series = (molien_classic(group), dicks_formanek(group), molien_bicomm(group))
            assert series == per_element_series(group), name

    def test_cyclotomic_factors_rebuild_each_class_det(self, b4_group, a4_group):
        seen = set()
        for group, classes in ((b4_group, 14), (a4_group, 7)):
            assert len(char_classes(group)) == classes
            for det, _ in char_classes(group):
                factors = cyclotomic_factors(det)
                rebuilt = ONE
                for n, e in factors.items():
                    rebuilt = rebuilt * cyclotomic(n) ** e
                assert rebuilt == det
                seen.update(factors)
        assert {1, 2, 3, 4, 5, 6, 8} <= seen

    def test_one_gcd_per_series_and_no_rational_function_sums(self, monkeypatch, b4_group):
        calls = []

        def counted_gcd(a, b):
            calls.append("gcd")
            return poly_gcd(a, b)

        def counted_add(self, other):
            calls.append("add")
            return add(self, other)

        add = RationalFunction.__add__
        monkeypatch.setattr(hilbert, "poly_gcd", counted_gcd)
        monkeypatch.setattr(RationalFunction, "__add__", counted_add)
        for series in (molien_classic, dicks_formanek, molien_bicomm):
            calls.clear()
            series(b4_group)
            assert calls == ["gcd"], series.__name__

    @pytest.mark.parametrize("value", [2, Fraction(1, 2)], ids=["diag(2)", "diag(1/2)"])
    @pytest.mark.parametrize("series", [molien_classic, dicks_formanek, molien_bicomm])
    def test_a_non_group_fails_loudly(self, series, value):
        g = diagonal_matrix([value])
        not_a_group = FiniteGroup(1, (RationalMatrix.identity(1), g))
        with pytest.raises(ValueError, match=re.escape(f"det(1 - g t) = {char_det(g)} is no")):
            series(not_a_group)

    def test_integral_data_stays_int(
        self, catalogue, b3_group, b4_group, a4_group, dihedral_d6
    ):
        for group in (b4_group, a4_group):
            for g in group.elements:
                assert all(type(c) is int for c in g.char_coefficients())
                assert all(type(c) is int for c in char_det(g).coeffs)
                assert type(g.trace()) is int
        groups = catalogue + [
            ("B_3", b3_group), ("B_4", b4_group), ("A_4", a4_group), ("D_6", dihedral_d6)
        ]
        for name, group in groups:
            for series in (molien_classic, dicks_formanek, molien_bicomm):
                denominator = series(group).denominator
                assert all(type(c) is int for c in denominator.coeffs), (name, series.__name__)

    def test_classes_partition_the_group(self, b3_group):
        classes = char_classes(b3_group)
        dets = [det for det, _ in classes]
        assert len(set(dets)) == len(dets) < b3_group.order
        assert sum(count for _, count in classes) == b3_group.order
        for det, count in classes:
            assert count == sum(char_det(g) == det for g in b3_group.elements)

    def test_hilbert_run_computes_each_char_det_once(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "b3.group"
        generators = [[[str(v) for v in row] for row in g.entries] for g in B3_GENERATORS]
        path.write_text(json.dumps({"d": 3, "generators": generators}))
        calls = []

        def counted(g):
            calls.append(g)
            return char_det(g)

        monkeypatch.setattr(hilbert, "char_det", counted)
        char_classes.cache_clear()
        assert main(["hilbert", "--group", str(path), "--order", "4"]) == 0
        capsys.readouterr()
        assert len(calls) == len(set(calls)) == 48


class TestExpand:
    def test_geometric(self):
        assert list(expand(rf([1], [1, -1]), 3).coefficients) == [1, 1, 1, 1]

    def test_geometric_squared(self):
        assert list(expand(rf([1], [1, -2, 1]), 3).coefficients) == [1, 2, 3, 4]

    def test_polynomial_expansion_is_exact(self):
        series = expand(rf([Fraction(1, 2), 0, -3]), 4)
        assert list(series.coefficients) == [Fraction(1, 2), 0, -3, 0, 0]

    def test_expansion_order(self):
        series = expand(rf([1], [1, -1]), 5)
        assert len(series.coefficients) - 1 == 5
        with pytest.raises(ValueError):
            expand(rf([1], [1, -1]), -1)
