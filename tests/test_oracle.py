import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from carrays.carray import enumerate_normal
from carrays.grassmann import GrassmannElem
from carrays.oracle import Poly, _rank, independence_rank, phi
from carrays.series import SymPoly
from carrays.straighten import multilinearize


def _mask(*labels):
    """Key of the monomial whose ``U`` labels are ``labels``."""
    return sum(1 << x for x in labels)


def test_q_poly_single_column():
    # the unsigned image U1*U2 + V1*V2 of one column
    p = -phi({((2, 1),): 1})
    assert p == Poly({_mask(1, 2): Fraction(1), _mask(): Fraction(1)})
    assert repr(p) == "U1*U2 + V1*V2"
    assert 2 * p == p + p
    assert (p - p).is_zero() and repr(p - p) == "0"


def test_phi_single_term():
    assert phi({((2, 1),): Fraction(1)}) == Poly(
        {_mask(1, 2): Fraction(-1), _mask(): Fraction(-1)}
    )


def test_images_on_different_label_sets_differ():
    # the masks of a nonzero image cover its label set, so the label
    # set is part of the value even though a key holds only U labels
    assert phi({((2, 1),): 1}) != phi({((4, 3),): 1})


def _direct_value(combination, u, v):
    """``sum c * sign * prod (U_a U_b + V_a V_b)`` at the point ``u, v``,
    with the sign counted by cycles rather than inversions."""
    total = 0
    for s, coeff in combination.items():
        word = [x for col in s for x in col]
        position = {x: i for i, x in enumerate(sorted(word))}
        perm = [position[x] for x in word]
        seen, sign = set(), 1
        for start in range(len(perm)):
            length, i = 0, start
            while i not in seen:
                seen.add(i)
                i = perm[i]
                length += 1
            if length and length % 2 == 0:
                sign = -sign
        value = coeff * sign
        for a, b in s:
            value *= u[a] * u[b] + v[a] * v[b]
        total += value
    return total


def test_phi_matches_direct_evaluation():
    rng = random.Random(4)
    for _ in range(60):
        m = rng.randint(0, 5)
        labels = rng.sample(range(1, 13), 2 * m)
        combination = {}
        for _ in range(rng.randint(1, 6)):
            word = rng.sample(labels, 2 * m)
            s = tuple(zip(word[0::2], word[1::2]))
            combination[s] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        image = phi(combination)
        for _ in range(3):
            u = {x: rng.randint(-9, 9) for x in labels}
            v = {x: rng.randint(-9, 9) for x in labels}
            value = 0
            for mask, coeff in image.terms.items():
                for x in labels:
                    coeff *= u[x] if mask >> x & 1 else v[x]
                value += coeff
            assert value == _direct_value(combination, u, v)


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


def test_independence_ranks():
    assert independence_rank(enumerate_normal((1, 1))) == 1
    assert independence_rank(enumerate_normal((1,) * 4)) == 3
    assert independence_rank(enumerate_normal((1,) * 6)) == 10
    assert independence_rank(enumerate_normal((1,) * 10)) == 126
    assert independence_rank(enumerate_normal((1,) * 12)) == 462


def test_independence_rank_falls_short_on_a_non_normal_array():
    # the image of a non-normal array lies in the span of the normal ones
    basis = enumerate_normal((1,) * 6)
    assert len(basis) == 10
    assert independence_rank([*basis, ((2, 1), (4, 3), (6, 5))]) == 10


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


def exact_rank(rows):
    """Rank of a rational matrix: each row scaled to integers, then
    ``oracle._rank``."""
    scaled = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = lcm(*(f.denominator for f in row))
        scaled.append({j: int(f * scale) for j, f in enumerate(row) if f})
    return _rank(scaled)


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


def _dense_rank(rows):
    """Reference rank: dense Gaussian elimination over ``Fraction``."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] / mat[rank][col]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


_entries = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def matrices_with_planted_dependent_rows(draw):
    """Base rows plus at least one row combined from them, shuffled, so
    the rank is less than the number of rows."""
    width = draw(st.integers(1, 6))
    row = st.lists(_entries, min_size=width, max_size=width)
    base = draw(st.lists(row, min_size=1, max_size=4))
    combos = draw(
        st.lists(
            st.lists(_entries, min_size=len(base), max_size=len(base)),
            min_size=1,
            max_size=3,
        )
    )
    planted = [
        [sum(c * r[j] for c, r in zip(combo, base)) for j in range(width)]
        for combo in combos
    ]
    return draw(st.permutations(base + planted))


@given(rows=matrices_with_planted_dependent_rows())
@settings(max_examples=100, deadline=None)
def test_exact_rank_matches_dense_elimination_on_dependent_rows(rows):
    rank = exact_rank(rows)
    assert rank == _dense_rank(rows)
    assert rank < len(rows)


@pytest.mark.parametrize("bad", [0.1, 1.0, True, "1/2", None])
def test_poly_rejects_inexact_coefficients(bad):
    with pytest.raises(TypeError):
        Poly({_mask(1): bad})
    with pytest.raises(TypeError):
        phi({((2, 1),): bad})


def test_poly_keeps_exact_coefficients():
    p = Poly({_mask(1): 2, _mask(2): Fraction(1, 2)})
    assert type(p.terms[_mask(1)]) is int
    assert p.terms[_mask(2)] == Fraction(1, 2)


def test_only_sympoly_and_grassmann_elements_multiply():
    p = phi({((2, 1),): 1})
    with pytest.raises(TypeError):
        p * p
    with pytest.raises(TypeError):
        SymPoly.constant(2, 1) * GrassmannElem.scalar(2, 1)
    assert 2 * p == p + p


def test_equal_terms_in_different_classes_differ():
    assert GrassmannElem(0, {(): 1}).terms == SymPoly.constant(0, 1).terms
    assert GrassmannElem(0, {(): 1}) != SymPoly.constant(0, 1)


def test_phi_after_multilinearization_is_label_consistent():
    # splitting doubled values yields arrays on the labels 1..2m, so
    # images of input and straightened output live in one ring
    s = ((3, 1), (3, 2))
    for t in multilinearize(s):
        word = sorted(x for col in t for x in col)
        assert word == [1, 2, 3, 4]
