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
integers or ``Fraction``, and every rank comes from one sparse
fraction-free elimination over the integers on dict rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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
        terms = terms or {}
        for mask in terms:
            if type(mask) is not int:
                raise TypeError(f"monomial mask must be an integer: {mask!r}")
        self.terms = accumulate(
            (mask, exact_coeff(coeff)) for mask, coeff in terms.items()
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


def _masks(s: TwoRowArray) -> list[int]:
    """The ``2**m`` distinct masks of ``prod (U_a U_b + V_a V_b)``."""
    masks = [0]
    for a, b in s:
        both = 1 << a | 1 << b
        masks = masks + [mask | both for mask in masks]
    return masks


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


def _rank(rows: Iterable[dict]) -> int:
    """Rank over Q of integer rows given as ``{column: int}`` dicts.

    A row's lead is its least column.  While a pivot owns the lead, the
    row becomes ``a * row - b * pivot`` with ``a : b`` the two lead
    entries in lowest terms, so the lead cancels and the entries stay
    integral, and it is divided by the gcd of its entries.  A row with
    a free lead becomes its pivot; one that cancels was dependent.
    """
    pivots: dict = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            g = gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            row = accumulate(
                ((col, -b * c) for col, c in pivot.items()),
                {col: a * c for col, c in row.items()},
            )
            g = gcd(*row.values())
            if g > 1:
                row = {col: c // g for col, c in row.items()}
    return len(pivots)


def independence_rank(arrays: Iterable[TwoRowArray]) -> int:
    """Rank of the signed polynomial images, as rows keyed by
    ``(labels, mask)`` so that different label sets share no column."""
    rows = []
    for s in arrays:
        s, word = _checked(s)
        labels = sum(1 << x for x in word)
        rows.append({(labels, mask): _sign(word) for mask in _masks(s)})
    return _rank(rows)
