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

The groups are seeded subgroups of the signed permutations B_3, generated
by one or two elements, plus D_6 and C_4 in rank 2.  Contragredient and
doubling are checked on the conjugate P^-1 G P, whose entries are not
integers and whose matrices are not orthogonal, so g^-T differs from g.
"""

from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest

from bicomm import (
    RationalFunction,
    RationalMatrix,
    UniPoly,
    diagonal_matrix,
    dicks_formanek,
    group_closure,
    invariant_dimension,
    molien_bicomm,
    molien_classic,
    permutation_matrix,
)
from bicomm.group_action import adjacent_transpositions

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
}

LAW_SEED = 7
B3_SUBGROUPS = 8
MAX_GROUP_ORDER = 24


def seeded_b3_subgroups(seed: int, count: int) -> list[tuple[str, list[RationalMatrix]]]:
    """`count` distinct nontrivial subgroups of B_3 of order <= MAX_GROUP_ORDER,
    each given by one or two generators drawn with Random(seed)."""
    b3 = group_closure(adjacent_transpositions(3) + [diagonal_matrix([-1, 1, 1])])
    rng = Random(seed)
    found: list[tuple[str, list[RationalMatrix]]] = []
    seen = set()
    while len(found) < count:
        gens = rng.sample(b3.elements, rng.choice((1, 2)))
        group = group_closure(gens)
        key = frozenset(group.elements)
        if 1 < group.order <= MAX_GROUP_ORDER and key not in seen:
            seen.add(key)
            found.append((f"B_3 subgroup {len(found)} of order {group.order}", gens))
    return found


GENERATED = seeded_b3_subgroups(LAW_SEED, B3_SUBGROUPS) + [
    ("D_6", [RationalMatrix([[1, -1], [1, 0]]), permutation_matrix((1, 0))]),
    ("C_4", [RationalMatrix([[0, -1], [1, 0]])]),
]
IDS = [name for name, _ in GENERATED]


def conjugate(gens: list[RationalMatrix]) -> list[RationalMatrix]:
    p, p_inv = CONJUGATORS[gens[0].size]
    assert (p * p_inv).is_identity()
    return [p_inv * g * p for g in gens]


def inverse(g: RationalMatrix) -> RationalMatrix:
    """g^-1 = g^(k-1), where k is the (finite) order of g."""
    power = g
    while not (power * g).is_identity():
        power = power * g
    return power


def transpose(g: RationalMatrix) -> RationalMatrix:
    return RationalMatrix(tuple(zip(*g.entries)))


def doubled(g: RationalMatrix) -> RationalMatrix:
    """diag(g, g), acting on two copies of the space."""
    pad = (0,) * g.size
    return RationalMatrix([row + pad for row in g.entries] + [pad + row for row in g.entries])


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
        assert any(v.denominator == 3 for g in conjugated for row in g.entries for v in row)
        assert three_series(tuple(conjugated)) == three_series(tuple(gens))

    def test_conjugation_keeps_the_invariant_dimensions(self, gens):
        group, conjugated = closure(tuple(gens)), closure(tuple(conjugate(gens)))
        for n in (1, 2, 3):
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
            molien_classic(group_closure([doubled(g) for g in conjugated]))
            - 2 * classic
            + RationalFunction.from_poly(UniPoly((1, tau)))
        )
        assert bicomm == expected
