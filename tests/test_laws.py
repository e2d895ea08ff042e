"""Metamorphic laws of the closed series formulas, on seeded groups.

Each law relates the series of a group to those of a group built from it,
so no expected value is written down by hand:

  * conjugation: P^-1 G P has the same three series and the same invariant
    dimensions as G;
  * contragredient: {g^-T} has the same three series as G (inversion
    permutes G, and the transpose keeps det(1 - g t) and the trace);
  * doubling: with Delta G = {diag(g, g)} and tau_G the average trace,
        molien_bicomm(G) = molien_classic(Delta G) - 2 molien_classic(G)
                           + 1 + tau_G t,
    which is K[Y, Z]^G = K + K[Y]^G_+ + K[Z]^G_+ + bulk^G.

    In degree 2 the same split, read off the brute-force routes, is
        commutative_invariant_dimension(Delta G, 2)
            = invariant_dimension(G, 2) + 2 commutative_invariant_dimension(G, 2);
  * direct sums: G x H acting on V + W has
        molien_classic(G x H) = molien_classic(G) molien_classic(H);
  * subgroups: H <= G has at least G's invariants in each degree, and G's
    basis lies in H's span.  H is generated by G's first generator, or by its
    square when G has one generator; it is a proper subgroup of 16 of the 20
    groups;
  * bigraded blocks: each invariant of degree n lies in one bidegree block
    (a, n - a), and the block holds
        (1/|G|) sum_g h_a(g) h_(n-a)(g)
    of the basis rows, where h_k(g) is the t^k coefficient of 1/det(1 - g t)
    (the Molien series of K[Y, Z] = K[Y] (x) K[Z], read by bidegree).  This
    one is checked on the acceptance catalogue, D_6 and a conjugate of S_3.

The groups are seeded subgroups of the signed permutations B_3 and B_4,
generated by one or two elements, plus D_6 and C_4 in rank 2.
Contragredient, doubling and direct sums are checked on the conjugate
P^-1 G P, whose entries are not integers and whose matrices are not
orthogonal, so g^-T differs from g.  The class sums of the three series are
also compared with the per-element averages they replace, on the same
conjugates, and the integer closure and `char_coefficients` with their
`Fraction` oracles, on each group and its conjugate.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest

from bicomm import (
    FiniteGroup,
    RationalFunction,
    RationalMatrix,
    UniPoly,
    commutative_invariant_dimension,
    diagonal_matrix,
    dicks_formanek,
    group_closure,
    invariant_basis,
    invariant_dimension,
    molien_bicomm,
    molien_classic,
    permutation_matrix,
)
from bicomm.algebra_core import unpack
from bicomm.group_action import adjacent_transpositions
from bicomm.hilbert import char_classes
from bicomm.invariants import EchelonBasis, element_to_row
from conftest import is_identity

_THIRD = Fraction(1, 3)

# P with entries +-1/3 and 2/3, and its integer inverse, for ranks 2 and 3.
CONJUGATORS = {
    2: (
        RationalMatrix([[_THIRD, 2 * _THIRD], [_THIRD, -_THIRD]]),
        RationalMatrix([[1, 2], [1, -1]]),
    ),
    3: (
        RationalMatrix(
            [
                [_THIRD, -_THIRD, _THIRD],
                [_THIRD, 2 * _THIRD, -2 * _THIRD],
                [-_THIRD, _THIRD, 2 * _THIRD],
            ]
        ),
        RationalMatrix([[2, 1, 0], [0, 1, 1], [1, 0, 1]]),
    ),
    4: (
        RationalMatrix(
            [
                [-_THIRD, 2 * _THIRD, -2 * _THIRD, 2 * _THIRD],
                [-_THIRD, 2 * _THIRD, -2 * _THIRD, -_THIRD],
                [2 * _THIRD, -_THIRD, _THIRD, 2 * _THIRD],
                [_THIRD, _THIRD, 2 * _THIRD, _THIRD],
            ]
        ),
        RationalMatrix([[-1, 2, 2, 0], [0, 1, 0, 1], [0, -1, -1, 1], [1, -1, 0, 0]]),
    ),
}


def conjugate(gens: list[RationalMatrix]) -> list[RationalMatrix]:
    p, p_inv = CONJUGATORS[gens[0].size]
    assert is_identity(p * p_inv)
    return [p_inv * g * p for g in gens]


def has_thirds(gens: list[RationalMatrix]) -> bool:
    return any(v.denominator == 3 for g in gens for row in g.entries for v in row)


LAW_SEED = 7
B3_SUBGROUPS = 8
B4_SUBGROUPS = 10
MAX_GROUP_ORDER = {3: 24, 4: 16}


def signed_permutations(d: int) -> list[RationalMatrix]:
    """Generators of B_d: the adjacent transpositions and one sign change."""
    return adjacent_transpositions(d) + [diagonal_matrix([-1] + [1] * (d - 1))]


def seeded_subgroups(d: int, seed: int, count: int) -> list[tuple[str, list[RationalMatrix]]]:
    """`count` distinct nontrivial subgroups of B_d of order at most
    MAX_GROUP_ORDER[d], each given by one or two generators drawn with
    Random(seed) whose conjugates by P are not all integral (conjugation fixes
    a central element such as -1)."""
    b_d = group_closure(signed_permutations(d))
    rng = Random(seed)
    found: list[tuple[str, list[RationalMatrix]]] = []
    seen = set()
    while len(found) < count:
        gens = rng.sample(b_d.elements, rng.choice((1, 2)))
        group = group_closure(gens)
        key = frozenset(group.elements)
        if 1 < group.order <= MAX_GROUP_ORDER[d] and key not in seen and has_thirds(
            conjugate(gens)
        ):
            seen.add(key)
            found.append((f"B_{d} subgroup {len(found)} of order {group.order}", gens))
    return found


GENERATED = (
    seeded_subgroups(3, LAW_SEED, B3_SUBGROUPS)
    + [
        ("D_6", [RationalMatrix([[1, -1], [1, 0]]), permutation_matrix((1, 0))]),
        ("C_4", [RationalMatrix([[0, -1], [1, 0]])]),
    ]
    + seeded_subgroups(4, LAW_SEED, B4_SUBGROUPS)
)
IDS = [name for name, _ in GENERATED]


def inverse(g: RationalMatrix) -> RationalMatrix:
    """g^-1 = g^(k-1), where k is the (finite) order of g."""
    power = g
    while not is_identity(power * g):
        power = power * g
    return power


def transpose(g: RationalMatrix) -> RationalMatrix:
    return RationalMatrix(tuple(zip(*g.entries)))


def direct_sum(g: RationalMatrix, h: RationalMatrix) -> RationalMatrix:
    """diag(g, h), acting on V + W."""
    right, left = (0,) * h.size, (0,) * g.size
    return RationalMatrix(
        [row + right for row in g.entries] + [left + row for row in h.entries]
    )


def diagonal(group: FiniteGroup) -> FiniteGroup:
    """Delta G = {diag(g, g)}, acting on V + V."""
    return FiniteGroup(2 * group.rank, tuple(direct_sum(g, g) for g in group.elements))


def degrees(group: FiniteGroup) -> tuple[int, ...]:
    # Reynolds in degree 3 of rank 4 (80 bulk monomials) would be the slowest
    # step of this module; degrees 1 and 2 suffice there.
    return (1, 2, 3) if group.rank <= 3 else (1, 2)


# The rotation of order 3 in rank 2, an integer matrix that is not monomial:
# the second factor of every direct sum.
C3_GENS = (RationalMatrix([[0, -1], [1, -1]]),)


@lru_cache(maxsize=None)
def closure(gens: tuple[RationalMatrix, ...]):
    return group_closure(gens)


@lru_cache(maxsize=None)
def three_series(gens: tuple[RationalMatrix, ...]) -> tuple[RationalFunction, ...]:
    group = closure(gens)
    return molien_classic(group), dicks_formanek(group), molien_bicomm(group)


@pytest.mark.parametrize("gens", [gens for _, gens in GENERATED], ids=IDS)
class TestLaws:
    def test_conjugation_keeps_the_series(self, gens):
        conjugated = conjugate(gens)
        assert has_thirds(conjugated)
        assert three_series(tuple(conjugated)) == three_series(tuple(gens))

    def test_conjugation_keeps_the_invariant_dimensions(self, gens):
        group, conjugated = closure(tuple(gens)), closure(tuple(conjugate(gens)))
        for n in degrees(group):
            assert invariant_dimension(conjugated, n) == invariant_dimension(group, n), n

    def test_contragredient_keeps_the_series(self, gens):
        conjugated = conjugate(gens)
        contragredient = [transpose(inverse(g)) for g in conjugated]
        assert contragredient != conjugated
        assert three_series(tuple(contragredient)) == three_series(tuple(conjugated))

    def test_doubling(self, gens):
        conjugated = tuple(conjugate(gens))
        group = closure(conjugated)
        classic, _, bicomm = three_series(conjugated)
        tau = group.average(RationalMatrix.trace)
        expected = (
            molien_classic(diagonal(group))
            - 2 * classic
            + RationalFunction.from_poly(UniPoly((1, tau)))
        )
        assert bicomm == expected

    def test_doubling_in_degree_two_by_reynolds(self, gens):
        group = closure(tuple(conjugate(gens)))
        assert commutative_invariant_dimension(diagonal(group), 2) == (
            invariant_dimension(group, 2) + 2 * commutative_invariant_dimension(group, 2)
        )

    def test_direct_sum_multiplies_the_classical_series(self, gens):
        conjugated = tuple(conjugate(gens))
        group, c3 = closure(conjugated), closure(C3_GENS)
        product = FiniteGroup(
            group.rank + c3.rank,
            tuple(direct_sum(g, h) for g in group.elements for h in c3.elements),
        )
        assert molien_classic(product) == three_series(conjugated)[0] * molien_classic(c3)

    def test_class_sums_match_the_per_element_average(self, gens, per_element_series):
        conjugated = tuple(conjugate(gens))
        assert three_series(conjugated) == per_element_series(closure(conjugated))

    def test_integer_layer_matches_the_fraction_oracles(
        self, gens, fraction_closure, fraction_char_coefficients
    ):
        for generators in (gens, conjugate(gens)):
            group = closure(tuple(generators))
            rows = tuple(g.entries for g in group.elements)
            assert rows == fraction_closure(generators, group.rank)
            for g in group.elements:
                assert g.char_coefficients() == fraction_char_coefficients(g.entries)

    def test_subgroup_has_at_least_the_invariants(self, gens):
        conjugated = conjugate(gens)
        group = closure(tuple(conjugated))
        first = conjugated[0]
        subgroup = closure((first,) if len(conjugated) > 1 else (first * first,))
        for n in degrees(group):
            span = EchelonBasis()
            for element in invariant_basis(subgroup, n):
                span.add(element_to_row(element))
            basis = invariant_basis(group, n)
            assert span.dimension >= len(basis), n
            for element in basis:
                assert not span.reduce(element_to_row(element)), n


def block_dimensions(group: FiniteGroup, n: int) -> list[Fraction]:
    """(1/|G|) sum_g h_a(g) h_(n-a)(g) for a = 0..n, one term per class of
    `char_classes`; h_k(g) is the t^k coefficient of 1/det(1 - g t)."""
    totals = [0] * (n + 1)
    for det, count in char_classes(group):
        h = UniPoly.one().taylor(det, n + 1)
        for a in range(n + 1):
            totals[a] += count * h[a] * h[n - a]
    return [Fraction(total, group.order) for total in totals]


def test_invariants_fill_the_bigraded_blocks(catalogue, dihedral_d6, s3_conjugated):
    """Degree 1 is the block (0, 1) of the generators, whose dimension is also
    the trace average; degree n >= 2 has the blocks (a, n - a), 0 < a < n."""
    cases = [(name, group, 5 if group.rank <= 2 else 4) for name, group in catalogue]
    cases += [("D_6", dihedral_d6, 6), ("S_3^P", s3_conjugated, 4)]
    for name, group, top in cases:
        for n in range(1, top + 1):
            pivots: Counter[int] = Counter()
            for element in invariant_basis(group, n):
                row = element_to_row(element)
                y_degree = [sum(unpack(group.rank, key)[0]) for key in row]
                assert len(set(y_degree)) == 1, (name, n, str(element))
                pivots[y_degree[0]] += 1
            blocks = [0] if n == 1 else list(range(1, n))
            expected = block_dimensions(group, n)
            assert set(pivots) <= set(blocks), (name, n)
            assert [pivots[a] for a in blocks] == [expected[a] for a in blocks], (name, n)
            if n == 1:
                assert pivots[0] == group.average(RationalMatrix.trace), name
