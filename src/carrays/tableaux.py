"""Partitions, tableaux and semistandard enumeration.

A tableau is stored as a tuple of rows, each row a tuple of positive
integers; the row lengths must be weakly decreasing (a partition).  A
tableau is semistandard in the english convention: rows weakly
increasing, columns strictly increasing.

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


def _integers(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ``int``; a ``bool``, float or string
    raises ``TypeError`` instead of being truncated or parsed."""
    t = tuple(values)
    for x in t:
        if type(x) is not int:
            raise TypeError(f"{what} must be integers: {t!r}")
    return t


def shape(parts) -> Shape:
    """Validate and return a partition as a tuple (empty allowed)."""
    sh = _integers(parts, "shape parts")
    if any(p < 1 for p in sh):
        raise ValueError(f"shape parts must be positive: {sh}")
    if any(sh[i] < sh[i + 1] for i in range(len(sh) - 1)):
        raise ValueError(f"shape parts must be weakly decreasing: {sh}")
    return sh


def tableau(rows) -> Tableau:
    """Validate and return a tableau as a tuple of row tuples."""
    t = tuple(_integers(row, "tableau entries") for row in rows)
    shape_of(t)
    for row in t:
        if any(x < 1 for x in row):
            raise ValueError(f"tableau entries must be positive: {t}")
    return t


def shape_of(t: Tableau) -> Shape:
    return shape(len(row) for row in t)


def _is_semistandard(t: Tableau) -> bool:
    """Rows weakly and columns strictly increasing, on a validated
    tableau."""
    return all(all(map(le, row, row[1:])) for row in t) and all(
        all(map(lt, upper, lower)) for upper, lower in zip(t, t[1:])
    )


def is_semistandard_english(t: Tableau) -> bool:
    """Rows weakly increasing, columns strictly increasing."""
    return _is_semistandard(tableau(t))


def _has_double_parts(parts) -> bool:
    counts: dict[int, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    return all(n % 2 == 0 for n in counts.values())


def is_d_tableau(t: Tableau) -> bool:
    t = tableau(t)
    return _has_double_parts(map(len, t)) and _is_semistandard(t)


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
    c = _integers(content, "content counts")
    if any(n < 0 for n in c):
        raise ValueError(f"content counts must be nonnegative: {c}")
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def enumerate_ssyt(shape_, content) -> list[Tableau]:
    """All semistandard tableaux of the given shape and content.

    Entries are drawn from 1..len(content) with the prescribed
    multiplicities.  The result lists each tableau exactly once, in
    lexicographic order of the row reading word (rows concatenated top
    to bottom), which is the order a row-major backtracking fill with
    ascending value choices produces.
    """
    sh = shape(shape_)
    counts = list(trim_content(content))
    if sum(counts) != sum(sh):
        raise ValueError(
            f"content sums to {sum(counts)} but shape has {sum(sh)} cells"
        )

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
            lo = grid[i][j - 1]
        if i:
            lo = max(lo, grid[i - 1][j] + 1)
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
    return tableau(map(int, line.split()) for line in text.splitlines() if line.strip())


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
