"""Bijection between c-arrays and tableaux of double shape.

Going forward, each column ``(a, b)`` of the c-array row-inserts its
bottom entry ``b`` and then appends the top entry ``a`` at the end of
the row directly below the one the insertion lengthened; this keeps the
shape doubled at every step.  Going back, the maximal entry at its
rightmost occurrence closes a row pair: a reverse deletion from its row
recovers the bottom entry, after which the bumped copy of the maximum
sits at the end of the row above and is removed.

Both directions preserve content, and the first row of the tableau
records the longest weakly increasing subsequence of the array's
bottom row.
"""

from __future__ import annotations

from .carray import TwoRowArray, _require_c_array, array_content, is_c_array
from .krs import _bump, _unbump
from .tableaux import Tableau, count_content, is_d_tableau


def carray_to_dtableau(s: TwoRowArray) -> Tableau:
    """Map a c-array to the semistandard tableau of double shape."""
    s = _require_c_array(s)
    rows: list[list[int]] = []
    for a, b in s:
        i = _bump(rows, b)
        if i + 1 == len(rows):
            rows.append([a])
        else:
            rows[i + 1].append(a)
    t = tuple(map(tuple, rows))
    if not is_d_tableau(t):
        raise RuntimeError(f"bijection produced a non-d-tableau: {t}")
    if count_content([x for row in t for x in row]) != array_content(s):
        raise RuntimeError(f"bijection changed the content: {s} -> {t}")
    return t


def dtableau_to_carray(t: Tableau) -> TwoRowArray:
    """Inverse of :func:`carray_to_dtableau`."""
    if not is_d_tableau(t):
        raise ValueError(f"not a d-tableau: {t}")
    rows = [list(row) for row in t]
    cols: list[tuple[int, int]] = []
    while rows:
        x = max(max(row) for row in rows)
        # rightmost occurrence of the maximum; column-strictness makes it unique
        i0, j0 = max(
            ((i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v == x),
            key=lambda ij: ij[1],
        )
        if i0 < 1:
            raise RuntimeError("maximal entry cannot sit in the first row of a pair")
        if len(rows[i0]) != j0 + 1:
            raise RuntimeError("maximal entry must close its row")
        if len(rows[i0 - 1]) != j0 + 1:
            raise RuntimeError("paired rows must have equal length")
        y = _unbump(rows, i0)
        if rows[i0 - 1][-1] != x or len(rows[i0 - 1]) != j0 + 1:
            raise RuntimeError("bumped maximum did not land on the paired corner")
        rows[i0 - 1].pop()
        while rows and not rows[-1]:
            rows.pop()
        cols.append((x, y))
    cols.reverse()
    s = tuple(cols)
    if not is_c_array(s):
        raise RuntimeError(f"bijection produced a non-c-array: {s}")
    return s


def first_row_length(s: TwoRowArray) -> int:
    """Length of the tableau's first row.

    Equals the length of the longest weakly increasing subsequence of
    the array's bottom row; in particular a c-array is normal exactly
    when this is at most 2 and no value occurs more than twice, which
    makes the image shape of the form ``(2^2p, 1^2q)``.
    """
    t = carray_to_dtableau(s)
    return len(t[0]) if t else 0
