from fractions import Fraction
from itertools import permutations

import pytest

from carrays.carray import enumerate_normal
from carrays.oracle import (
    Poly,
    exact_rank,
    independence_rank,
    p_poly,
    perm_sign,
    phi,
    q_poly,
)
from carrays.series import SymPoly
from carrays.straighten import multilinearize


def _u(i):
    return ("U", i)


def _v(i):
    return ("V", i)


def test_perm_sign():
    assert perm_sign(((2, 1),)) == -1
    assert perm_sign(((2, 1), (4, 3))) == 1  # word 2,1,4,3 has two inversions
    assert perm_sign(((1, 2), (3, 4))) == 1  # identity word
    with pytest.raises(ValueError):
        perm_sign(((2, 1), (2, 3)))


def test_q_poly_single_column():
    assert q_poly(((2, 1),)) == Poly(
        {(_u(1), _u(2)): Fraction(1), (_v(1), _v(2)): Fraction(1)}
    )


def test_q_poly_column_symmetric():
    assert q_poly(((2, 1),)) == q_poly(((1, 2),))


def test_q_poly_two_columns_expands_to_four_monomials():
    p = q_poly(((2, 1), (4, 3)))
    assert len(p.terms) == 4
    assert p == q_poly(((1, 2), (3, 4)))


def test_phi_single_term():
    assert phi({((2, 1),): Fraction(1)}) == Poly(
        {(_u(1), _u(2)): Fraction(-1), (_v(1), _v(2)): Fraction(-1)}
    )


def test_phi_cancellation():
    s = ((2, 1), (4, 3))
    swapped = ((1, 2), (4, 3))  # same polynomial, opposite sign
    assert phi({s: Fraction(1), swapped: Fraction(1)}).is_zero()


def test_phi_mixed_labels_rejected():
    with pytest.raises(ValueError):
        phi({((2, 1),): Fraction(1), ((3, 1),): Fraction(1)})


def test_phi_kills_bottom_symmetrization():
    # summing over all bottom rearrangements of three columns gives the
    # determinant of a rank-2 matrix: identically zero
    tops = (2, 4, 6)
    bottoms = (1, 3, 5)
    total = {
        tuple(zip(tops, arranged)): Fraction(1)
        for arranged in permutations(bottoms)
    }
    assert phi(total).is_zero()


def test_phi_consistent_with_column_normalization():
    from carrays.carray import normalize

    for word in permutations(range(1, 7)):
        s = tuple(zip(word[0::2], word[1::2]))
        sign, carr = normalize(s)
        assert sign != 0
        lhs = phi({s: Fraction(1)})
        rhs = phi({carr: Fraction(sign)})
        assert lhs == rhs


def test_p_and_q_spans_have_equal_rank():
    for m in (1, 2, 3):
        basis = enumerate_normal((1,) * (2 * m))
        q_rank = independence_rank(basis)

        polys = [Fraction(perm_sign(s)) * p_poly(s) for s in basis]
        monomials = sorted({mono for p in polys for mono in p.terms})
        index = {mono: i for i, mono in enumerate(monomials)}
        rows = []
        for p in polys:
            row = [Fraction(0)] * len(monomials)
            for mono, coeff in p.terms.items():
                row[index[mono]] = coeff
            rows.append(row)
        assert exact_rank(rows) == q_rank == len(basis)


def test_independence_ranks():
    assert independence_rank(enumerate_normal((1, 1))) == 1
    assert independence_rank(enumerate_normal((1,) * 4)) == 3
    assert independence_rank(enumerate_normal((1,) * 6)) == 10


def test_rank_matches_dtableau_count():
    # the multilinear image rank equals the number of standard fillings
    # of the shape family (2^2p, 1^2q)
    from carrays.tableaux import enumerate_ssyt

    for m in range(1, 5):
        shapes = []
        for p in range(m // 2 + 1):
            q = m - 2 * p
            shapes.append((2,) * (2 * p) + (1,) * (2 * q))
        count = sum(
            len(enumerate_ssyt(sh, (1,) * (2 * m))) for sh in shapes
        )
        basis = enumerate_normal((1,) * (2 * m))
        assert len(basis) == count
        assert independence_rank(basis) == count


def test_exact_rank_basics():
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 2], [3, 4]]) == 2
    assert (
        exact_rank(
            [
                [Fraction(1, 2), Fraction(1, 3), 0],
                [Fraction(3, 2), 1, 0],
                [0, Fraction(1, 3), 1],
            ]
        )
        == 2
    )
    with pytest.raises(ValueError):
        exact_rank([[1, 2], [3]])


def test_poly_arithmetic():
    x = Poly.variable(_u(1))
    y = Poly.variable(_v(1))
    assert (x + y) * (x - y) == x * x - y * y
    assert (x - x).is_zero()
    assert (x + (-x)).terms == {}
    assert 2 * x == x + x
    assert repr(Poly.zero()) == "0"
    assert repr(x * x + 2 * y) == "U1*U1 + 2*V1"
    # equal terms in different classes are different values
    assert Poly.constant(1).terms == SymPoly.constant(0, 1).terms
    assert Poly.constant(1) != SymPoly.constant(0, 1)


def test_phi_after_multilinearization_is_label_consistent():
    # splitting doubled values yields arrays on the labels 1..2m, so
    # images of input and straightened output live in one ring
    s = ((3, 1), (3, 2))
    for t in multilinearize(s):
        word = sorted(x for col in t for x in col)
        assert word == [1, 2, 3, 4]
