from fractions import Fraction

import pytest

from bicomm import (
    RationalFunction,
    RationalMatrix,
    UniPoly,
    char_det,
    diagonal_matrix,
    group_closure,
    permutation_matrix,
    symmetric_group,
    trivial_group,
)
from bicomm.group_action import adjacent_transpositions


def _per_element_series(group):
    """molien_classic, dicks_formanek and molien_bicomm as averages of one
    term per element, with tr(g) from the matrix: the route that the class
    sums of `bicomm.hilbert` replace, kept as their oracle."""
    one = RationalFunction.one()

    def bulk(g):
        return RationalFunction(UniPoly.one(), char_det(g)) - one

    return (
        group.average(lambda g: RationalFunction(UniPoly.one(), char_det(g))),
        group.average(lambda g: RationalFunction(UniPoly.one(), UniPoly((1, -g.trace())))),
        group.average(
            lambda g: bulk(g) * bulk(g) + RationalFunction.from_poly(UniPoly((0, g.trace())))
        ),
    )


@pytest.fixture(scope="session")
def per_element_series():
    return _per_element_series


@pytest.fixture(scope="session")
def swap_group():
    return group_closure([permutation_matrix((1, 0))])


@pytest.fixture(scope="session")
def negation_d1():
    return group_closure([diagonal_matrix([-1])])


@pytest.fixture(scope="session")
def negation_d2():
    return group_closure([diagonal_matrix([-1, -1])])


@pytest.fixture(scope="session")
def rotation_c4():
    return group_closure([RationalMatrix([[0, -1], [1, 0]])])


@pytest.fixture(scope="session")
def signed_permutations_d2():
    return group_closure([permutation_matrix((1, 0)), diagonal_matrix([-1, 1])])


@pytest.fixture(scope="session")
def s3_group():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def dihedral_d6():
    """D_6 of order 12: a rotation of order 6 and a swap, not monomial."""
    return group_closure(
        [RationalMatrix([[1, -1], [1, 0]]), permutation_matrix((1, 0))]
    )


@pytest.fixture(scope="session")
def s3_conjugated():
    """S_3 conjugated by a fixed rational P; the generators have entries
    +-1/3 and 2/3 (the same group as the golden tests' S_3^P)."""
    p = RationalMatrix([[2, 1, 0], [0, 1, 1], [1, 0, 1]])
    third = Fraction(1, 3)
    p_inv = RationalMatrix(
        [[third, -third, third], [third, 2 * third, -2 * third], [-third, third, 2 * third]]
    )
    assert (p * p_inv).is_identity()
    return group_closure([p * g * p_inv for g in adjacent_transpositions(3)])


@pytest.fixture(scope="session")
def catalogue(swap_group, negation_d1, negation_d2, rotation_c4, signed_permutations_d2, s3_group):
    """The full acceptance catalogue of (name, group) pairs."""
    return [
        ("trivial d=1", trivial_group(1)),
        ("trivial d=2", trivial_group(2)),
        ("trivial d=3", trivial_group(3)),
        ("negation d=1", negation_d1),
        ("negation d=2", negation_d2),
        ("S_2 d=2", swap_group),
        ("S_3 d=3", s3_group),
        ("C_4 d=2", rotation_c4),
        ("signed permutations d=2", signed_permutations_d2),
    ]
