"""Polynomial model of the multilinear component.

A multilinear array on labels ``1..2m`` maps to the commuting
polynomial ``sign * (U_{a1}U_{b1} + V_{a1}V_{b1}) * ...`` where the
sign is that of the permutation reading the array column by column,
top before bottom.  The map kills the straightening relations (the
three-column relation is a 3x3 determinant of a rank-2 matrix) and is
injective on combinations of normal multilinear arrays, so exact
polynomial identities here certify the rewriting engine
independently.  Every monomial of an image carries one letter per
label, so it is stored as the bitmask of its ``U`` labels; images are
built by doubling a list of masks once per column, never by
multiplying polynomials.  Everything is exact: coefficients are
integers or ``Fraction`` and ranks come from fraction-free integer
elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .carray import TwoRowArray, array
from .sparse import Sparse, accumulate, exact_coeff


class Poly(Sparse):
    """Polynomial image on one label set ``L``, keyed by ``U`` masks.

    The key ``m`` (bit ``x`` set for ``U_x``) stands for the monomial
    ``prod_{x in m} U_x * prod_{x in L - m} V_x``.  The mask is faithful
    within one label set.  Swapping ``U`` and ``V`` fixes every image,
    so the coefficient at ``m`` equals the one at ``L - m``; the masks
    of a nonzero image therefore cover ``L``, and images on different
    label sets never compare equal.  Zero coefficients are never
    stored, so equality is dict equality.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[int, Fraction] | None = None):
        self.terms = accumulate(
            (int(mask), exact_coeff(coeff)) for mask, coeff in (terms or {}).items()
        )

    def _tokens(self, mask: int) -> list[tuple[str, int]]:
        full = 0
        for key in self.terms:
            full |= key
        return [("U", x) for x in _bits(mask)] + [("V", x) for x in _bits(full ^ mask)]

    _sort_key = _tokens

    def _key_text(self, mask: int) -> str:
        return "*".join(f"{name}{x}" for name, x in self._tokens(mask))


def _bits(mask: int) -> list[int]:
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def _wrap(terms: dict) -> Poly:
    result = object.__new__(Poly)
    result.terms = terms
    return result


def _checked(s: TwoRowArray) -> tuple[TwoRowArray, list[int]]:
    s = array(s)
    word = [x for col in s for x in col]
    if len(set(word)) != len(word):
        raise ValueError(f"array is not multilinear: {s}")
    return s, word


def _sign(word: list[int]) -> int:
    inversions = sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )
    return -1 if inversions % 2 else 1


def perm_sign(s: TwoRowArray) -> int:
    """Sign of the permutation reading the array column by column."""
    return _sign(_checked(s)[1])


def _masks(s: TwoRowArray, crossed: bool = False) -> list[int]:
    """The ``2**m`` distinct masks of ``prod (U_a U_b + V_a V_b)``, or
    with ``crossed`` of ``prod (U_a V_b + U_b V_a)``."""
    masks = [0]
    for a, b in s:
        x, y = (1 << a, 1 << b) if crossed else (0, 1 << a | 1 << b)
        masks = [mask | x for mask in masks] + [mask | y for mask in masks]
    return masks


def q_poly(s: TwoRowArray) -> Poly:
    """Product over columns of ``U_a U_b + V_a V_b``."""
    return _wrap(dict.fromkeys(_masks(_checked(s)[0]), 1))


def p_poly(s: TwoRowArray) -> Poly:
    """Product over columns of ``U_a V_b + U_b V_a`` (the other factor
    convention; spans combinations of the same rank as ``q_poly``)."""
    return _wrap(dict.fromkeys(_masks(_checked(s)[0], crossed=True), 1))


def phi(combination: Mapping[TwoRowArray, Fraction]) -> Poly:
    """Signed polynomial image of a combination of multilinear arrays.

    All arrays must use one common label set, each label exactly once.
    """
    checked = [(_checked(s), coeff) for s, coeff in combination.items()]
    label_sets = {frozenset(word) for (_, word), _ in checked}
    if len(label_sets) > 1:
        found = sorted(map(sorted, label_sets))
        raise ValueError(f"arrays use different label sets: {found}")
    total: dict = {}
    for (s, word), coeff in checked:
        c = _sign(word) * exact_coeff(coeff)
        accumulate(((mask, c) for mask in _masks(s)), total)
    return _wrap(total)


def exact_rank(rows: Iterable[Iterable]) -> int:
    """Rank of an exact rational matrix via fraction-free elimination.

    Rows are scaled to integers, then one-step Bareiss elimination
    keeps every intermediate entry integral; no floating point is
    involved anywhere.
    """
    mat: list[list[int]] = []
    for row in rows:
        fracs = [x if isinstance(x, int) else Fraction(x) for x in row]
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
    images = []
    for s in arrays:
        s, word = _checked(s)
        labels = sum(1 << x for x in word)
        images.append({(labels, mask): _sign(word) for mask in _masks(s)})
    keys = sorted(set().union(*images))
    return exact_rank([[image.get(key, 0) for key in keys] for image in images])
