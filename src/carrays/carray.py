"""Two-rowed arrays of commutators.

An array is a tuple of columns, each column a pair ``(a, b)`` of
positive integers; the array stands for the product of the pairwise
commutators of the variables indexed by its columns.  Three nested
classes of arrays matter:

* raw: any column pairs at all;
* c-array: every column descending (``a > b``) and the columns weakly
  increasing in lexicographic order;
* normal: a c-array in which no value occurs more than twice and no
  three columns ``r < s < t`` have weakly increasing bottom entries
  ``b_r <= b_s <= b_t``.

``normalize`` rewrites a raw array into signed c-array form using the
antisymmetry of commutators (swapping within a column flips the sign,
a repeated value in a column kills the product).  The total order used
everywhere compares the key ``(a_m, ..., a_1, b_1, ..., b_m)``
lexicographically.
"""

from __future__ import annotations

from .tableaux import Content, count_content, json_integers, trim_content

Column = tuple[int, int]
TwoRowArray = tuple[Column, ...]


def array(columns) -> TwoRowArray:
    """Validate and return an array as a tuple of ``(a, b)`` columns of
    positive ``int`` entries; any other type raises ``TypeError``."""
    cols = []
    for a, b in columns:
        if type(a) is not int or type(b) is not int:
            raise TypeError(f"array entries must be integers: {(a, b)!r}")
        if a < 1 or b < 1:
            raise ValueError(f"array entries must be positive: {(a, b)}")
        cols.append((a, b))
    return tuple(cols)


def array_from_rows(top, bottom) -> TwoRowArray:
    top = tuple(top)
    bottom = tuple(bottom)
    if len(top) != len(bottom):
        raise ValueError(
            f"rows differ in length: {len(top)} vs {len(bottom)}"
        )
    return array(zip(top, bottom))


def array_rows(s: TwoRowArray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(a for a, _ in s), tuple(b for _, b in s)


def array_content(s: TwoRowArray) -> Content:
    return count_content([x for col in s for x in col])


def has_bounded_multiplicity(s: TwoRowArray) -> bool:
    return all(n <= 2 for n in array_content(s))


def _extend_piles(columns, low=None, high=None):
    """Two-pile patience state after the bottom entries of ``columns``.

    ``low`` is the smallest entry seen, ``high`` the smallest entry that
    ends a weakly increasing pair (``None`` while there is none).
    Returns the new ``(low, high)``, or ``None`` as soon as an entry at
    least ``high`` closes a weakly increasing triple.  ``high`` never
    increases.
    """
    for _, b in columns:
        if high is not None and b >= high:
            return None
        if low is not None and b >= low:
            high = b
        else:
            low = b
    return low, high


def has_no_weak_bottom_triple(s: TwoRowArray) -> bool:
    """No columns r < s < t with weakly increasing bottom entries.

    Equivalently, the longest weakly increasing subsequence of the
    bottom row has length at most 2 (the first-row statistic of
    :mod:`carrays.bijection`), which two-pile patience sorting tests in
    one pass.
    """
    return _extend_piles(s) is not None


def is_c_array(s: TwoRowArray) -> bool:
    return _is_c_array(array(s))


def _is_c_array(s: TwoRowArray) -> bool:
    """Every column descending and the columns weakly increasing, on an
    array already validated."""
    return all(a > b for a, b in s) and all(x <= y for x, y in zip(s, s[1:]))


def is_normal(s: TwoRowArray) -> bool:
    return _is_normal(array(s))


def _is_normal(s: TwoRowArray) -> bool:
    """:func:`is_normal` on an array already validated."""
    return _is_c_array(s) and has_bounded_multiplicity(s) and has_no_weak_bottom_triple(s)


def classify(s: TwoRowArray) -> str:
    """Return ``"normal"``, ``"c_array"`` or ``"raw"``."""
    s = array(s)
    if not _is_c_array(s):
        return "raw"
    if has_bounded_multiplicity(s) and has_no_weak_bottom_triple(s):
        return "normal"
    return "c_array"


def _require_c_array(s: TwoRowArray) -> TwoRowArray:
    s = array(s)
    if not _is_c_array(s):
        raise ValueError(f"not a c-array: {s}")
    return s


def normalize(s: TwoRowArray) -> tuple[int, TwoRowArray | None]:
    """Rewrite a raw array as a signed c-array.

    Returns ``(sign, c_array)`` where the sign counts the in-column
    swaps needed to make every column descending, or ``(0, None)`` when
    some column repeats a value (the commutator of a variable with
    itself vanishes).  Column sorting is stable and carries no sign.
    """
    return _normalize(array(s))


def _normalize(s: TwoRowArray) -> tuple[int, TwoRowArray | None]:
    """:func:`normalize` on an array already known to be valid."""
    sign = 1
    cols = []
    for a, b in s:
        if a == b:
            return 0, None
        if a < b:
            a, b = b, a
            sign = -sign
        cols.append((a, b))
    cols.sort()
    return sign, tuple(cols)


def ordering_key(s: TwoRowArray):
    return tuple([a for a, _ in reversed(s)] + [b for _, b in s])


def compare(s1: TwoRowArray, s2: TwoRowArray) -> int:
    """Total order on arrays of equal length: -1, 0 or 1."""
    s1, s2 = array(s1), array(s2)
    if len(s1) != len(s2):
        raise ValueError(
            f"cannot compare arrays with {len(s1)} and {len(s2)} columns"
        )
    k1, k2 = ordering_key(s1), ordering_key(s2)
    return (k1 > k2) - (k1 < k2)


def star(s1: TwoRowArray, s2: TwoRowArray) -> TwoRowArray:
    """Merge two c-arrays into the column-sorted c-array of their product."""
    return _star(_require_c_array(s1), _require_c_array(s2))


def _star(s1: TwoRowArray, s2: TwoRowArray) -> TwoRowArray:
    """:func:`star` on two arrays already known to be c-arrays."""
    return tuple(sorted(s1 + s2))


def _pairings(items: list[int]):
    """Distinct perfect matchings of a sorted multiset into pairs."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    used = set()
    for idx, other in enumerate(rest):
        if other in used:
            continue
        used.add(other)
        for tail in _pairings(rest[:idx] + rest[idx + 1 :]):
            yield ((first, other),) + tail


def enumerate_carrays(content) -> list[TwoRowArray]:
    """All c-arrays of the given content, sorted by the total order."""
    counts = trim_content(content)
    items: list[int] = []
    for value, n in enumerate(counts, start=1):
        items.extend([value] * n)
    if len(items) % 2:
        return []
    found = set()
    for pairing in _pairings(items):
        if any(lo == hi for lo, hi in pairing):
            continue
        found.add(tuple(sorted((hi, lo) for lo, hi in pairing)))
    return sorted(found, key=ordering_key)


def enumerate_normal(content) -> list[TwoRowArray]:
    """All normal c-arrays of the given content, sorted by the total order.

    Empty whenever the total degree is odd or some value occurs more
    than twice.  The entries are placed in increasing order: each one
    either closes a column over a smaller bottom that waits for its
    top, or waits as a bottom itself.  Columns are so created in sorted
    order and the bottom row grows left to right, carrying its two-pile
    patience state; a branch stops as soon as a placed or waiting bottom
    reaches ``high`` (it closes a weak triple now or later, since
    ``high`` never increases) or more bottoms wait than entries remain.
    """
    counts = trim_content(content)
    if sum(counts) % 2 or any(n > 2 for n in counts):
        return []
    items = [value for value, n in enumerate(counts, start=1) for _ in range(n)]
    total = len(items)
    columns: list[Column] = []
    waiting: list[int] = []  # sorted bottoms without a top yet
    found: list[TwoRowArray] = []

    def viable(remaining: int, high) -> bool:
        # every waiting bottom still needs a later top, and must stay
        # below ``high`` to be placed at all
        return len(waiting) <= remaining and (
            high is None or not waiting or waiting[-1] < high
        )

    def extend(i: int, low, high, start: int | None) -> None:
        # items[i] may close over waiting[start:]; the copies of a value
        # that close precede those that wait and take nondecreasing
        # bottoms (``start`` is None after a copy that waited), so each
        # array is built once
        if i == total:
            found.append(tuple(columns))
            return
        v = items[i]
        same = i + 1 < total and items[i + 1] == v
        remaining = total - i - 1
        if start is not None:
            for j in range(start, len(waiting)):
                w = waiting[j]
                if j > start and w == waiting[j - 1]:
                    continue
                state = _extend_piles(((v, w),), low, high)
                if state is None:
                    break
                del waiting[j]
                if viable(remaining, state[1]):
                    columns.append((v, w))
                    extend(i + 1, *state, j if same else 0)
                    columns.pop()
                waiting.insert(j, w)
        waiting.append(v)
        if viable(remaining, high):
            extend(i + 1, low, high, None if same else 0)
        waiting.pop()

    extend(0, None, None, 0)
    del extend  # the closure refers to itself; free it without the collector
    return sorted(found, key=ordering_key)


def array_to_text(s: TwoRowArray) -> str:
    """Two lines: the top row, then the bottom row."""
    if not s:
        return ""
    top, bottom = array_rows(s)
    return " ".join(map(str, top)) + "\n" + " ".join(map(str, bottom))


def array_from_text(text: str) -> TwoRowArray:
    lines = [line.split() for line in text.splitlines() if line.strip()]
    if not lines:
        return ()
    if len(lines) != 2:
        raise ValueError(f"expected two lines of integers, got {len(lines)}")
    return array_from_rows([int(x) for x in lines[0]], [int(x) for x in lines[1]])


def array_to_json(s: TwoRowArray) -> dict:
    top, bottom = array_rows(s)
    return {"top": list(top), "bottom": list(bottom)}


def array_from_json(payload: dict) -> TwoRowArray:
    if not isinstance(payload, dict) or "top" not in payload or "bottom" not in payload:
        raise ValueError("array JSON must be an object with 'top' and 'bottom' keys")
    return array_from_rows(
        json_integers(payload["top"], "the top row"),
        json_integers(payload["bottom"], "the bottom row"),
    )
