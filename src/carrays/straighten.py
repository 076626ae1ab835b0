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

The last relation, applied to the lexicographically first offending
column triple of a term, lets the term be solved for in terms of
strictly larger arrays; after collecting like terms its coefficient in
the relation is 1 or 2, so all divisions are by 1 or 2 and stay exact.

The relation depends only on the order pattern of the three columns:
relabelling their distinct values 1..k in order commutes with
normalizing columns, sorting them and comparing arrays.  With every
value occurring at most twice there are 33 such patterns, so the loop
reads its rewrite from a table keyed by pattern (``_RELATIONS``), maps
the row's columns back to the real values and merges them with the
other columns.  Each row is solved once, on first use, by
``_solve_triple``, which keeps the pivot and order checks.  As every
pivot is 1 or 2, 70 of the table's 73 weights are integers and the
other three are halves; the loop carries its coefficients as exact
``int`` until a half enters, and only the returned combination turns
them into ``Fraction``.

The rewriting loop keeps a heap of the offending live terms keyed by
``ordering_key`` and always rewrites the least one.  A term is pushed
when it enters the combination and is not normal; an entry whose term
has since cancelled is skipped when it is popped.  Every step strictly
increases the total order on arrays, which forces termination and means
a rewritten term never returns.  Normality of a c-array whose values
occur at most twice is one pass over its bottom row: no weakly
increasing triple means a longest weakly increasing subsequence of
length at most 2, tested by two-pile patience sorting
(``carray.has_no_weak_bottom_triple``).

Which offending term and triple a step rewrites does not change the
result: the normal arrays are linearly independent (acceptance check 7
proves it through the polynomial oracle), so every complete rewriting
reaches the same combination.  The fixed choice only makes the steps,
and so the statistics, deterministic.

Outside input is validated once, by ``straighten`` itself; the loop
uses the unchecked cores of ``normalize`` and ``star``.  The pivot
value, the order increase and the normality of the result are checked
with explicit raises, which ``python -O`` keeps.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, permutations, product

from .carray import (
    TwoRowArray,
    _normalize,
    _star,
    array,
    array_content,
    has_no_weak_bottom_triple,
    is_normal,
    ordering_key,
)
from .sparse import accumulate

LinComb = dict[TwoRowArray, Fraction]


def _first_weak_triple(s: TwoRowArray) -> tuple[int, int, int] | None:
    b = [bb for _, bb in s]
    for r, mid, t in combinations(range(len(s)), 3):
        if b[r] <= b[mid] <= b[t]:
            return r, mid, t
    return None


def _solve_triple(cur: TwoRowArray, triple: tuple[int, int, int]) -> LinComb:
    """Express the offending term through strictly larger c-arrays."""
    u = tuple(cur[k] for k in triple)
    rest = tuple(col for k, col in enumerate(cur) if k not in triple)
    tops = tuple(a for a, _ in u)
    bottoms = tuple(b for _, b in u)
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
        replacements = _table_solve(cur, _first_weak_triple(cur))
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
    if not all(is_normal(t) for t in terms):
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
        {
            "coeff": str(coeff),
            "top": [a for a, _ in s],
            "bottom": [b for _, b in s],
        }
        for s, coeff in items
    ]
