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
column triple of the least offending term, lets the term be solved for
in terms of strictly larger arrays; after collecting like terms its
coefficient in the relation is 1 or 2, so all divisions are by 1 or 2
and stay exact.  Every rewriting step strictly increases the total
order on arrays, which forces termination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

from .carray import (
    TwoRowArray,
    array,
    array_content,
    compare,
    has_no_weak_bottom_triple,
    is_normal,
    normalize,
    ordering_key,
    star,
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
        normalize(tuple(zip(tops, arranged)))
        for arranged in set(permutations(bottoms))
    )
    collected = accumulate((carr, sign) for sign, carr in signed if sign)
    pivot = collected.pop(u)
    assert pivot in (1, 2), f"unexpected pivot coefficient {pivot} for {u}"
    out: LinComb = {}
    for carr, weight in collected.items():
        assert compare(carr, u) > 0, "rewriting must strictly increase the order"
        out[star(carr, rest)] = Fraction(-weight, pivot)
    return out


def straighten(s: TwoRowArray) -> LinComb:
    """Rewrite an arbitrary array as a combination of normal c-arrays."""
    s = array(s)
    sign, carr = normalize(s)
    if sign == 0:
        return {}
    if any(n > 2 for n in array_content(carr)):
        return {}
    terms: LinComb = {carr: Fraction(sign)}
    while True:
        offending = sorted(
            (t for t in terms if not has_no_weak_bottom_triple(t)),
            key=ordering_key,
        )
        if not offending:
            break
        cur = offending[0]
        coeff = terms.pop(cur)
        triple = _first_weak_triple(cur)
        replacements = _solve_triple(cur, triple)
        assert all(compare(repl, cur) > 0 for repl in replacements)
        accumulate(((repl, coeff * w) for repl, w in replacements.items()), terms)
    assert all(is_normal(t) for t in terms)
    return terms


def lincomb_multiply(l1: LinComb, l2: LinComb) -> LinComb:
    """Bilinear extension of the column-merge product, re-straightened.

    Terms whose merged content puts a value more than twice vanish.
    """
    return accumulate(
        (t, c1 * c2 * c)
        for s1, c1 in l1.items()
        for s2, c2 in l2.items()
        for t, c in straighten(star(s1, s2)).items()
    )


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
