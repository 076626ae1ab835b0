from fractions import Fraction
from itertools import product

import pytest

from carrays.carray import enumerate_normal
from carrays.series import (
    SymPoly,
    _elementary_square,
    carini_drensky,
    dimension,
    double_hook_free_shapes,
    elementary_symmetric,
    gamma_coefficients,
    hilbert_by_dimension,
    hilbert_by_tableaux,
    schur,
)
from carrays.tableaux import enumerate_ssyt


def test_elementary_symmetric():
    assert elementary_symmetric(0, 3) == SymPoly.constant(3, 1)
    assert elementary_symmetric(1, 2) == SymPoly(
        2, {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    )
    assert elementary_symmetric(2, 3) == SymPoly(
        3,
        {
            (1, 1, 0): Fraction(1),
            (1, 0, 1): Fraction(1),
            (0, 1, 1): Fraction(1),
        },
    )
    with pytest.raises(ValueError):
        elementary_symmetric(4, 3)


def test_elementary_square_matches_product():
    for k in range(1, 7):
        for i in range(k + 1):
            e = elementary_symmetric(i, k)
            assert _elementary_square(i, k) == e * e, (i, k)


def test_carini_drensky_one_variable():
    assert carini_drensky(1, 8) == SymPoly.constant(1, 1, maxdeg=8)


def test_carini_drensky_two_variables():
    assert carini_drensky(2, 8) == SymPoly(
        2,
        {(0, 0): Fraction(1), (1, 1): Fraction(1), (2, 2): Fraction(1)},
        maxdeg=8,
    )


def test_carini_drensky_coefficients_are_nonnegative_integers():
    for k in (1, 2, 3):
        series = carini_drensky(k, 8)
        for coeff in series.terms.values():
            assert coeff.denominator == 1 and coeff >= 0


def test_schur_examples():
    assert schur((1, 1), 2, 8) == SymPoly(2, {(1, 1): Fraction(1)}, maxdeg=8)
    assert schur((2, 2), 2, 8) == SymPoly(2, {(2, 2): Fraction(1)}, maxdeg=8)
    assert schur((1,), 2, 8) == SymPoly(
        2, {(1, 0): Fraction(1), (0, 1): Fraction(1)}, maxdeg=8
    )
    assert schur((1, 1, 1), 2, 8).is_zero()


def test_double_hook_free_shapes():
    shapes = double_hook_free_shapes(4)
    assert shapes == [(), (1, 1), (1, 1, 1, 1), (2, 2)]


def test_hilbert_by_tableaux_small():
    assert hilbert_by_tableaux(2, 4) == SymPoly(
        2, {(0, 0): Fraction(1), (1, 1): Fraction(1), (2, 2): Fraction(1)}, maxdeg=4
    )


def test_three_way_agreement():
    # k > maxdeg // 2 exercises the closed form's early cut
    for k, maxdeg in ((1, 6), (2, 6), (6, 5), (7, 5)):
        assert (
            carini_drensky(k, maxdeg)
            == hilbert_by_tableaux(k, maxdeg)
            == hilbert_by_dimension(k, maxdeg)
        )


def test_hilbert_pairwise_degree_coefficient():
    # each variable pair contributes exactly one degree-(1,1) tableau
    for k in (2, 3, 4):
        series = hilbert_by_tableaux(k, 2)
        expo = [0] * k
        expo[0] = expo[1] = 1
        assert series.coefficient(expo) == 1


def test_dimension_formula():
    assert dimension((1, 1, 1, 1)) == 3
    assert dimension((2, 2, 2)) == 0
    assert dimension((3, 1)) == 0
    assert dimension((1, 1)) == 1
    assert dimension(()) == 1
    assert dimension((2, 2)) == 1
    assert dimension((1, 1, 1)) == 0
    assert dimension((0, 2, 0)) == 0


def test_dimension_matches_enumeration():
    for counts in product((0, 1, 2), repeat=6):
        assert dimension(counts) == len(enumerate_normal(counts))


def test_dimension_invariant_under_permutation():
    for counts in ((1, 2, 0, 1), (2, 1, 1), (0, 2, 2)):
        base = dimension(counts)
        assert dimension(tuple(reversed(counts))) == base
        assert dimension(tuple(sorted(counts))) == base


def test_gamma_coefficients():
    coeffs = gamma_coefficients(5)
    assert coeffs == [1, 0, 1, 0, 3, 0, 10, 0, 35, 0, 126]
    assert all(isinstance(c, Fraction) for c in coeffs)


def test_gamma_matches_multilinear_dimensions():
    coeffs = gamma_coefficients(5)
    for m in range(1, 6):
        assert coeffs[2 * m] == dimension((1,) * (2 * m))


def test_multilinear_tableau_count_consistency():
    # the multilinear tableaux over the shape family number the dimension
    for m in range(1, 5):
        content = (1,) * (2 * m)
        count = sum(
            len(enumerate_ssyt(sh, content))
            for sh in double_hook_free_shapes(2 * m)
            if sum(sh) == 2 * m
        )
        assert count == dimension(content)


def test_sympoly_truncation():
    x = SymPoly.monomial(1, (5,))
    assert (x * x).terms  # untruncated product keeps degree 10
    truncated = x.truncate(6)
    assert (truncated * truncated).is_zero()
    assert x.truncate(4).is_zero()
    assert (x - x).terms == {}
    with pytest.raises(ValueError):
        x + SymPoly.monomial(2, (1, 0))


@pytest.mark.parametrize("bad", [0.1, 1.0, True, "1/2", None])
def test_sympoly_rejects_inexact_coefficients(bad):
    with pytest.raises(TypeError):
        SymPoly(2, {(1, 0): bad})
    with pytest.raises(TypeError):
        SymPoly.constant(2, bad)
    with pytest.raises(TypeError):
        SymPoly.monomial(2, (0, 1), bad)


def test_sympoly_keeps_exact_coefficients():
    x = SymPoly(2, {(1, 0): 2, (0, 1): Fraction(1, 3)})
    assert type(x.terms[(1, 0)]) is int
    assert x.terms[(0, 1)] == Fraction(1, 3)
    assert repr(x) == "1/3*t2 + 2*t1"


def test_sympoly_repr():
    assert repr(SymPoly(2)) == "0"
    assert repr(carini_drensky(2, 8)) == "1 + t1*t2 + t1^2*t2^2"
