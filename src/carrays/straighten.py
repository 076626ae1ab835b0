"""Straightening of commutator arrays to the normal basis.

A linear combination is a dict mapping normal c-arrays to nonzero
``Fraction`` coefficients; the empty dict is zero.  ``straighten``
rewrites an arbitrary two-rowed array into such a combination, working
modulo three facts about products of commutators:

* swapping within a column flips the sign, a repeated value kills the
  column (handled by ``carray.normalize``);
* a value occurring more than twice kills the whole product;
* for any three columns whose bottom entries weakly increase, the sum
  of the products over all distinct rearrangements of those bottom
  entries (tops fixed in place) vanishes.

The last relation, applied to an offending column triple of a term,
solves the term for strictly larger arrays with a pivot of 1 or 2.  It
depends only on the order pattern of the three columns, of which there
are 33 when no value occurs more than twice, so the loop reads it from
a table keyed by pattern (``_RELATIONS``, each row solved on first use
by ``_solve_triple``, which checks the pivot and the order) and maps
the row back to the real values.  70 of the 73 weights are integers
and three are halves: coefficients stay exact ``int`` until a half
enters, and only the returned combination turns them into ``Fraction``.

The loop keeps a heap of the offending live terms keyed by
``ordering_key`` and rewrites the least one, at its weak triple
``r < mid < t`` with the greatest ``t``, then the least ``mid``, then
the greatest ``r`` (``_weak_triple``).  A term is pushed when it
enters the combination and is not normal; an entry whose term has
since cancelled is skipped.  Every step strictly increases the total
order, which forces termination.  The choice of term and triple cannot
change the result: the normal arrays are linearly independent
(acceptance check 7), so every complete rewriting reaches the same
combination.  It moves only the steps: ``(2,1)(4,3)...(14,13)`` takes
2,585, against 11,144 at the lexicographically first triple and at
least 2,780 under the other 47 lexicographic rules on ``(r, mid, t)``.

Outside input is validated once, by ``straighten`` itself; the loop
uses the unchecked cores of ``normalize`` and ``star``.  The pivot
value, the order increase and the normality of the result are checked
with explicit raises, which ``python -O`` keeps.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import permutations, product
from math import inf

from .carray import (
    TwoRowArray,
    _is_normal,
    _normalize,
    _star,
    array,
    array_content,
    has_no_weak_bottom_triple,
    ordering_key,
)
from .sparse import accumulate

LinComb = dict[TwoRowArray, Fraction]


def _weak_triple(s: TwoRowArray) -> tuple[int, int, int] | None:
    """The weak triple ``r < mid < t`` of ``s`` with the greatest ``t``,
    then the least ``mid``, then the greatest ``r``; ``None`` if none.

    ``t`` is the last column at least ``pair``, the least bottom before
    it that ends a weakly increasing pair.  The least ``mid`` lowered
    ``pair`` (an earlier pair end no greater would be less), so it is
    the first such column at most ``b_t``.
    """
    t = None
    low = pair = inf
    ends = []  # columns that lowered ``pair``, in order
    for j, (_, x) in enumerate(s):
        if x >= pair:
            t = j
        elif x < low:
            low = x
        else:
            pair = x
            ends.append(j)
    if t is None:
        return None
    top = s[t][1]
    for mid in ends:
        x = s[mid][1]
        if x <= top:
            break
    r = mid - 1
    while s[r][1] > x:
        r -= 1
    return r, mid, t


def _solve_triple(cur: TwoRowArray, triple: tuple[int, int, int]) -> LinComb:
    """Express the offending term through strictly larger c-arrays."""
    u = tuple(cur[k] for k in triple)
    rest = tuple(col for k, col in enumerate(cur) if k not in triple)
    tops, bottoms = zip(*u)
    signed = (
        _normalize(tuple(zip(tops, arranged)))
        for arranged in set(permutations(bottoms))
    )
    collected = accumulate((carr, sign) for sign, carr in signed if sign)
    pivot = collected.pop(u)
    if pivot not in (1, 2):
        raise RuntimeError(f"unexpected pivot coefficient {pivot} for {u}")
    u_key = ordering_key(u)
    out: LinComb = {}
    for carr, weight in collected.items():
        if ordering_key(carr) <= u_key:
            raise RuntimeError(
                f"rewriting {u} must strictly increase the order, got {carr}"
            )
        out[_star(carr, rest)] = Fraction(-weight, pivot)
    return out


# order pattern of an offending triple (its distinct values relabelled
# 1..k in order) -> its relation row; filled on first use, 33 rows at most
_RELATIONS: dict[TwoRowArray, dict[TwoRowArray, int | Fraction]] = {}


def _table_solve(
    cur: TwoRowArray, triple: tuple[int, int, int]
) -> dict[TwoRowArray, int | Fraction]:
    """:func:`_solve_triple` through the relation table, with ``int``
    weights wherever they are integers; ``triple`` lists its column
    indices in increasing order."""
    r, mid, t = triple
    u = (cur[r], cur[mid], cur[t])
    rest = cur[:r] + cur[r + 1 : mid] + cur[mid + 1 : t] + cur[t + 1 :]
    values = sorted({x for col in u for x in col})
    label = {v: n for n, v in enumerate(values, 1)}
    pattern = tuple((label[a], label[b]) for a, b in u)
    row = _RELATIONS.get(pattern)
    if row is None:
        row = _RELATIONS[pattern] = {
            carr: w.numerator if w.denominator == 1 else w
            for carr, w in _solve_triple(pattern, (0, 1, 2)).items()
        }
    v = [0, *values]  # label n stands for v[n]
    return {
        _star(((v[a1], v[b1]), (v[a2], v[b2]), (v[a3], v[b3])), rest): w
        for ((a1, b1), (a2, b2), (a3, b3)), w in row.items()
    }


def straighten(s: TwoRowArray, stats: dict | None = None) -> LinComb:
    """Rewrite an arbitrary array as a combination of normal c-arrays.

    When ``stats`` is a dict, it receives ``steps`` (rewriting steps
    taken), ``peak_terms`` (the most live terms at any time) and
    ``max_den`` (the largest denominator in the result).
    """
    s = array(s)
    sign, carr = _normalize(s)
    # coefficients stay ``int`` until a half enters; the result converts
    if sign == 0 or any(n > 2 for n in array_content(carr)):
        terms: dict[TwoRowArray, int | Fraction] = {}
    else:
        terms = {carr: sign}
    # the least offending live term sits on top; entries whose term has
    # since cancelled are stale and skipped
    worklist = [
        (ordering_key(t), t) for t in terms if not has_no_weak_bottom_triple(t)
    ]
    steps = 0
    peak = len(terms)
    while worklist:
        key, cur = heappop(worklist)
        coeff = terms.pop(cur, None)
        if coeff is None:
            continue
        steps += 1
        replacements = _table_solve(cur, _weak_triple(cur))
        for repl in replacements:
            repl_key = ordering_key(repl)
            if repl_key <= key:
                raise RuntimeError(
                    f"rewriting {cur} must strictly increase the order, got {repl}"
                )
            if repl not in terms and not has_no_weak_bottom_triple(repl):
                heappush(worklist, (repl_key, repl))
        accumulate(((repl, coeff * w) for repl, w in replacements.items()), terms)
        peak = max(peak, len(terms))
    if not all(map(_is_normal, terms)):
        raise RuntimeError(f"straightening left a non-normal term: {terms}")
    if stats is not None:
        stats["steps"] = steps
        stats["peak_terms"] = peak
        stats["max_den"] = max((c.denominator for c in terms.values()), default=1)
    return {t: Fraction(c) for t, c in terms.items()}


def multilinearize(s: TwoRowArray) -> list[TwoRowArray]:
    """Split every doubled value into two fresh labels, both ways.

    Requires every value to occur at most twice.  Labels are assigned
    by the order-preserving scheme that renumbers the distinct values
    1, 2, ... consecutively, reserving two consecutive labels for a
    doubled value; occurrences are scanned column by column, top entry
    before bottom entry.  The result lists the ``2**d`` relabelled
    multilinear arrays (``d`` the number of doubled values), each with
    implicit coefficient 1, and every output uses the labels
    ``1..2m`` exactly once.
    """
    s = array(s)
    counts = array_content(s)
    if any(n > 2 for n in counts):
        raise ValueError(f"multilinearize needs multiplicities <= 2: {counts}")
    values = sorted({x for col in s for x in col})
    base: dict[int, int] = {}
    nxt = 1
    for v in values:
        base[v] = nxt
        nxt += counts[v - 1]
    doubled = [v for v in values if counts[v - 1] == 2]
    out: list[TwoRowArray] = []
    for bits in product((0, 1), repeat=len(doubled)):
        flip = dict(zip(doubled, bits))
        seen: dict[int, int] = {}
        cols = []
        for a, b in s:
            relabelled = []
            for x in (a, b):
                if counts[x - 1] == 1:
                    relabelled.append(base[x])
                else:
                    k = seen.get(x, 0)
                    seen[x] = k + 1
                    relabelled.append(base[x] + (flip[x] ^ k))
            cols.append((relabelled[0], relabelled[1]))
        out.append(tuple(cols))
    return out


def lincomb_to_json(l: LinComb) -> list[dict]:
    """Deterministic JSON payload: terms sorted by the array order."""
    items = sorted(l.items(), key=lambda kv: ordering_key(kv[0]))
    return [
        {"coeff": str(coeff), "top": [a for a, _ in s], "bottom": [b for _, b in s]}
        for s, coeff in items
    ]
