"""Row insertion and deletion, the bumping primitives of the bijection.

Both operations use 1-based row indices and are exact inverses:
``insert(t, x) == (t2, i)`` if and only if ``delete(t2, i) == (t, x)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .tableaux import Tableau, is_semistandard_english, tableau


def _require_semistandard(t: Tableau) -> Tableau:
    t = tableau(t)
    if not is_semistandard_english(t):
        raise ValueError(f"tableau is not semistandard: {t}")
    return t


def _bump(rows: list[list[int]], x: int) -> int:
    """Row-insert ``x`` into ``rows`` in place, with no validation;
    return the 0-based index of the row that gained a cell."""
    for i, row in enumerate(rows):
        j = bisect_right(row, x)
        if j == len(row):
            row.append(x)
            return i
        row[j], x = x, row[j]
    rows.append([x])
    return len(rows) - 1


def _unbump(rows: list[list[int]], i: int) -> int:
    """Remove the last cell of row ``i`` (0-based) of ``rows`` and bump
    it upward in place, with no validation; return the value ejected
    from the top.  An emptied last row is dropped."""
    x = rows[i].pop()
    for h in range(i - 1, -1, -1):
        row = rows[h]
        j = bisect_left(row, x) - 1
        if j < 0:
            raise RuntimeError("bumping path broke; input was not semistandard")
        row[j], x = x, row[j]
    if not rows[-1]:
        rows.pop()
    return x


def insert(t: Tableau, x: int) -> tuple[Tableau, int]:
    """Insert ``x`` into a semistandard tableau by row bumping.

    Starting at the first row, ``x`` replaces the leftmost entry
    strictly greater than it and the replaced value carries on into the
    next row; when a row holds no greater entry the carried value is
    appended there.  Returns the new tableau and the 1-based index of
    the row that gained a cell (possibly a new row at the bottom).
    """
    t = _require_semistandard(t)
    if type(x) is not int:
        raise TypeError(f"inserted value must be an integer: {x!r}")
    if x < 1:
        raise ValueError(f"inserted value must be positive: {x}")
    rows = [list(row) for row in t]
    i = _bump(rows, x)
    return tuple(map(tuple, rows)), i + 1


def delete(t: Tableau, i: int) -> tuple[Tableau, int]:
    """Reverse a row insertion that ended in row ``i`` (1-based).

    The last entry of row ``i`` is removed and bumped upward: in each
    higher row it replaces the rightmost entry strictly smaller than
    the carried value.  Returns the new tableau and the value ejected
    from the top.  Row ``i`` must be strictly longer than the row below
    it, otherwise removing its last cell would break the shape.
    """
    t = _require_semistandard(t)
    r = len(t)
    if not 1 <= i <= r:
        raise ValueError(f"row index {i} out of range 1..{r}")
    if i < r and len(t[i - 1]) == len(t[i]):
        raise ValueError(f"row {i} has no removable corner")
    rows = [list(row) for row in t]
    x = _unbump(rows, i - 1)
    return tuple(map(tuple, rows)), x
