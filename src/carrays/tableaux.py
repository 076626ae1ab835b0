"""Partitions, tableaux and semistandard enumeration.

A tableau is stored as a tuple of rows, each row a tuple of positive
integers; the row lengths must be weakly decreasing (a partition).  Two
semistandard conventions are supported, differing in where strictness
lives:

* english: rows weakly increasing, columns strictly increasing
* french:  rows strictly increasing, columns weakly increasing

On multilinear fillings (every value used exactly once) the two
conventions coincide.

A partition is a *double shape* when every part occurs an even number
of times, e.g. ``(2, 2, 1, 1, 1, 1)``.  A *d-tableau* is an
english-semistandard tableau of double shape; these are the images of
c-arrays under the bijection in :mod:`carrays.bijection`.

The *content* of a tableau is the vector counting how often each value
1, 2, ... occurs; trailing zeros are insignificant.
"""

from __future__ import annotations

from operator import le, lt

Shape = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]
Content = tuple[int, ...]

CONVENTIONS = ("english", "french")


def shape(parts) -> Shape:
    """Validate and return a partition as a tuple (empty allowed)."""
    sh = tuple(int(p) for p in parts)
    if any(p < 1 for p in sh):
        raise ValueError(f"shape parts must be positive: {sh}")
    if any(sh[i] < sh[i + 1] for i in range(len(sh) - 1)):
        raise ValueError(f"shape parts must be weakly decreasing: {sh}")
    return sh


def tableau(rows) -> Tableau:
    """Validate and return a tableau as a tuple of row tuples."""
    t = tuple(tuple(int(x) for x in row) for row in rows)
    shape_of(t)
    for row in t:
        if any(x < 1 for x in row):
            raise ValueError(f"tableau entries must be positive: {t}")
    return t


def shape_of(t: Tableau) -> Shape:
    return shape(len(row) for row in t)


def _is_semistandard(t: Tableau, strict_rows: bool) -> bool:
    """Both conventions on a validated tableau: rows weakly and columns
    strictly increasing, or with ``strict_rows`` the other way round."""
    in_row, in_column = (lt, le) if strict_rows else (le, lt)
    return all(all(map(in_row, row, row[1:])) for row in t) and all(
        all(map(in_column, upper, lower)) for upper, lower in zip(t, t[1:])
    )


def is_semistandard_english(t: Tableau) -> bool:
    """Rows weakly increasing, columns strictly increasing."""
    return _is_semistandard(tableau(t), strict_rows=False)


def is_semistandard_french(t: Tableau) -> bool:
    """Rows strictly increasing, columns weakly increasing."""
    return _is_semistandard(tableau(t), strict_rows=True)


def _has_double_parts(parts) -> bool:
    counts: dict[int, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    return all(n % 2 == 0 for n in counts.values())


def is_double_shape(parts) -> bool:
    """True when every part of the partition occurs an even number of times."""
    return _has_double_parts(shape(parts))


def is_d_tableau(t: Tableau) -> bool:
    t = tableau(t)
    return _has_double_parts(map(len, t)) and _is_semistandard(t, strict_rows=False)


def count_content(entries: list[int]) -> Content:
    """Content vector of a list of positive integers."""
    if not entries:
        return ()
    counts = [0] * max(entries)
    for x in entries:
        counts[x - 1] += 1
    return tuple(counts)


def content_of(t: Tableau) -> Content:
    return count_content([x for row in tableau(t) for x in row])


def trim_content(content) -> Content:
    """Canonical content vector: trailing zeros removed."""
    c = tuple(int(n) for n in content)
    if any(n < 0 for n in c):
        raise ValueError(f"content counts must be nonnegative: {c}")
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def enumerate_ssyt(shape_, content, convention: str = "english") -> list[Tableau]:
    """All semistandard tableaux of the given shape and content.

    Entries are drawn from 1..len(content) with the prescribed
    multiplicities.  The result lists each tableau exactly once, in
    lexicographic order of the row reading word (rows concatenated top
    to bottom), which is the order a row-major backtracking fill with
    ascending value choices produces.
    """
    sh = shape(shape_)
    counts = [int(n) for n in content]
    if any(n < 0 for n in counts):
        raise ValueError(f"content counts must be nonnegative: {counts}")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention: {convention!r}")
    if sum(counts) != sum(sh):
        raise ValueError(
            f"content sums to {sum(counts)} but shape has {sum(sh)} cells"
        )

    strict_rows = convention == "french"
    k = len(counts)
    cells = [(i, j) for i, width in enumerate(sh) for j in range(width)]
    grid = [[0] * width for width in sh]
    out: list[Tableau] = []

    def fill(pos: int) -> None:
        if pos == len(cells):
            out.append(tuple(tuple(row) for row in grid))
            return
        i, j = cells[pos]
        lo = 1
        if j:
            lo = grid[i][j - 1] + (1 if strict_rows else 0)
        if i:
            lo = max(lo, grid[i - 1][j] + (0 if strict_rows else 1))
        for v in range(lo, k + 1):
            if counts[v - 1]:
                counts[v - 1] -= 1
                grid[i][j] = v
                fill(pos + 1)
                counts[v - 1] += 1
        grid[i][j] = 0

    fill(0)
    return out


def tableau_to_text(t: Tableau) -> str:
    """One row per line, entries space-separated."""
    return "\n".join(" ".join(str(x) for x in row) for row in t)


def tableau_from_text(text: str) -> Tableau:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    return tableau(rows)


def tableau_to_json(t: Tableau) -> dict:
    return {"rows": [list(row) for row in t]}


def json_integers(value, what: str) -> list[int]:
    """A JSON list of integers, as parsed; anything else (a float, a
    boolean, a scalar in place of the list) raises ``ValueError``."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ValueError(f"{what} must be a list of integers: {value!r}")
    return value


def tableau_from_json(payload: dict) -> Tableau:
    if not isinstance(payload, dict) or "rows" not in payload:
        raise ValueError("tableau JSON must be an object with a 'rows' key")
    rows = payload["rows"]
    if not isinstance(rows, list):
        raise ValueError(f"tableau rows must be a list: {rows!r}")
    return tableau(json_integers(row, "a tableau row") for row in rows)
