"""Polynomial model of the multilinear component.

A multilinear array on labels ``1..2m`` maps to the commuting
polynomial ``sign * (U_{a1}U_{b1} + V_{a1}V_{b1}) * ...`` where the
sign is that of the permutation reading the array column by column,
top before bottom.  The map kills the straightening relations (the
three-column relation is a 3x3 determinant of a rank-2 matrix) and is
injective on combinations of normal multilinear arrays, so exact
polynomial identities here certify the rewriting engine
independently.  Everything is exact: coefficients are ``Fraction`` and
ranks come from fraction-free integer elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .carray import TwoRowArray, array
from .sparse import Sparse, accumulate

Token = tuple[str, int]
Monomial = tuple[Token, ...]


class Poly(Sparse):
    """Sparse multivariate polynomial over the rationals.

    Monomials are sorted tuples of variable tokens with repetition;
    zero coefficients are never stored, so equality is dict equality.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        self.terms = accumulate(
            (tuple(sorted(mono)), Fraction(coeff))
            for mono, coeff in (terms or {}).items()
        )

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls({(): Fraction(value)})

    @classmethod
    def variable(cls, token: Token) -> "Poly":
        return cls({(token,): Fraction(1)})

    @staticmethod
    def _key_product(m1: Monomial, m2: Monomial) -> tuple[Monomial, int]:
        return tuple(sorted(m1 + m2)), 1

    @staticmethod
    def _key_text(mono: Monomial) -> str:
        return "*".join(f"{name}{index}" for name, index in mono)

    def monomials(self) -> list[Monomial]:
        return sorted(self.terms)


def _multilinear_word(s: TwoRowArray) -> list[int]:
    word = [x for col in s for x in col]
    if len(set(word)) != len(word):
        raise ValueError(f"array is not multilinear: {s}")
    return word


def perm_sign(s: TwoRowArray) -> int:
    """Sign of the permutation reading the array column by column."""
    word = _multilinear_word(array(s))
    inversions = sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )
    return -1 if inversions % 2 else 1


def q_poly(s: TwoRowArray) -> Poly:
    """Product over columns of ``U_a U_b + V_a V_b``."""
    s = array(s)
    _multilinear_word(s)
    result = Poly.constant(1)
    for a, b in s:
        result = result * Poly({(("U", a), ("U", b)): 1, (("V", a), ("V", b)): 1})
    return result


def p_poly(s: TwoRowArray) -> Poly:
    """Product over columns of ``U_a V_b + U_b V_a`` (the other factor
    convention; spans combinations of the same rank as ``q_poly``)."""
    s = array(s)
    _multilinear_word(s)
    result = Poly.constant(1)
    for a, b in s:
        result = result * Poly({(("U", a), ("V", b)): 1, (("U", b), ("V", a)): 1})
    return result


def phi(combination: Mapping[TwoRowArray, Fraction]) -> Poly:
    """Signed polynomial image of a combination of multilinear arrays.

    All arrays must use one common label set, each label exactly once.
    """
    arrays = [array(s) for s in combination]
    labels = None
    for s in arrays:
        current = frozenset(_multilinear_word(s))
        if labels is None:
            labels = current
        elif current != labels:
            raise ValueError(
                f"arrays use different label sets: {sorted(labels)} vs {sorted(current)}"
            )
    total = Poly.zero()
    for s, coeff in combination.items():
        s = array(s)
        total = total + (Fraction(coeff) * perm_sign(s)) * q_poly(s)
    return total


def exact_rank(rows: Iterable[Iterable]) -> int:
    """Rank of an exact rational matrix via fraction-free elimination.

    Rows are scaled to integers, then one-step Bareiss elimination
    keeps every intermediate entry integral; no floating point is
    involved anywhere.
    """
    mat: list[list[int]] = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
        mat.append([int(f * scale) for f in fracs])
    if not mat or not mat[0]:
        return 0
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ValueError("ragged matrix")
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = next(
            (i for i in range(rank, len(mat)) if mat[i][col]), None
        )
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pivot = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            head = mat[i][col]
            for j in range(col + 1, ncols):
                mat[i][j] = (pivot * mat[i][j] - head * mat[rank][j]) // prev
            mat[i][col] = 0
        prev = pivot
        rank += 1
        if rank == len(mat):
            break
    return rank


def independence_rank(arrays: Iterable[TwoRowArray]) -> int:
    """Rank of the coefficient matrix of the signed polynomial images."""
    polys = [Fraction(perm_sign(s)) * q_poly(array(s)) for s in arrays]
    monomials = sorted({m for p in polys for m in p.terms})
    index = {m: i for i, m in enumerate(monomials)}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(monomials)
        for mono, coeff in p.terms.items():
            row[index[mono]] = coeff
        rows.append(row)
    return exact_rank(rows)
