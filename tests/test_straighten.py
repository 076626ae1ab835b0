import importlib
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

import pytest

from carrays.acceptance import DERIVED_FORM_FIXTURES, split_phi
from carrays.carray import array_content, is_normal, normalize, ordering_key
from carrays.straighten import (
    _RELATIONS,
    _solve_triple,
    _table_solve,
    _weak_triple,
    lincomb_to_json,
    multilinearize,
    straighten,
)

HALF = Fraction(1, 2)


def test_already_normal_is_identity():
    assert straighten(((2, 1),)) == {((2, 1),): 1}


def test_single_swap_sign():
    assert straighten(((1, 2),)) == {((2, 1),): -1}


def test_zero_column_kills():
    assert straighten(((2, 2), (3, 1))) == {}


def test_high_multiplicity_kills():
    assert straighten(((2, 1), (2, 1), (2, 1))) == {}


def test_empty_array():
    assert straighten(()) == {(): 1}


@pytest.mark.parametrize("source, expected", sorted(DERIVED_FORM_FIXTURES.items()))
def test_collected_relation_forms(source, expected):
    assert straighten(source) == expected


def test_three_distinct_bottoms_full_expansion():
    # first step rewrites into the five other bottom arrangements; one
    # of them offends again and expands further, cancelling one term
    result = straighten(((2, 1), (4, 3), (6, 5)))
    assert result == {
        ((2, 1), (5, 4), (6, 3)): 1,
        ((3, 2), (4, 1), (6, 5)): 1,
        ((3, 2), (5, 4), (6, 1)): -1,
        ((4, 1), (5, 3), (6, 2)): -1,
        ((4, 2), (5, 1), (6, 3)): -1,
        ((4, 2), (5, 3), (6, 1)): -1,
        ((4, 3), (5, 1), (6, 2)): -1,
    }
    assert all(is_normal(t) for t in result)


def test_outputs_always_normal_and_greater():
    for word in product(range(1, 5), repeat=4):
        if any(n > 2 for n in Counter(word).values()):
            continue
        s = tuple(zip(word[0::2], word[1::2]))
        for term, coeff in straighten(s).items():
            assert is_normal(term)
            assert coeff != 0


def test_phi_soundness_small_sweep():
    for m in range(3):
        for word in product(range(1, 5), repeat=2 * m):
            if any(n > 2 for n in Counter(word).values()):
                continue
            s = tuple(zip(word[0::2], word[1::2]))
            assert split_phi({s: 1}) == split_phi(straighten(s))


def rule_a(triples):
    """The weak triple with the greatest t, then the least mid, then the
    greatest r: the choice ``straighten`` makes."""
    return max(triples, key=lambda triple: (triple[2], -triple[1], triple[0]))


def first(triples):
    return triples[0]


def last(triples):
    return triples[-1]


def rescan_straighten(s, pick=rule_a, greatest=False):
    """Test-only reference: the rescan-and-sort rewriting loop.

    Every step re-sorts all offending live terms, found by a brute-force
    triple scan, and rewrites the least one (with ``greatest``, the
    greatest one) at the weak triple that ``pick`` takes from the
    lexicographically sorted list of its weak triples.  Returns the
    combination, the number of steps and the most live terms at any
    time.
    """
    sign, carr = normalize(s)
    if sign == 0 or any(n > 2 for n in array_content(carr)):
        return {}, 0, 0
    terms = {carr: Fraction(sign)}
    steps = 0
    peak = 1
    while True:
        offending = sorted(
            (t for t in terms if weak_triples(t)), key=ordering_key, reverse=greatest
        )
        if not offending:
            return terms, steps, peak
        cur = offending[0]
        coeff = terms.pop(cur)
        for repl, weight in _solve_triple(cur, pick(weak_triples(cur))).items():
            new = terms.get(repl, Fraction(0)) + coeff * weight
            if new:
                terms[repl] = new
            else:
                terms.pop(repl, None)
        steps += 1
        peak = max(peak, len(terms))


def weak_triples(s):
    bottoms = [b for _, b in s]
    return [
        (r, s_, t)
        for r, s_, t in combinations(range(len(s)), 3)
        if bottoms[r] <= bottoms[s_] <= bottoms[t]
    ]


def seeded_arrays():
    """Raw arrays of degree 2..10 with 0-2 doubled values, drawn from a
    fixed seed; no column repeats a value."""
    rng = random.Random(20020505)
    arrays = []
    for m in range(1, 6):
        for doubled in range(min(2, 2 * m - 2) + 1):
            n = 2 * m - doubled
            twice = rng.sample(range(1, n + 1), doubled)
            items = list(range(1, n + 1)) + twice
            for _ in range(12):
                while True:
                    rng.shuffle(items)
                    cols = tuple(zip(items[0::2], items[1::2]))
                    if all(a != b for a, b in cols):
                        break
                arrays.append(cols)
    return arrays


def seeded_wide_arrays():
    """Raw arrays of 4-6 columns on values 1..12 whose c-array has more
    than one weak triple, drawn from a fixed seed; every other one
    doubles one or two values."""
    rng = random.Random(20021018)
    arrays = []
    while len(arrays) < 24:
        m = rng.randint(4, 6)
        doubled = len(arrays) % 2 * rng.randint(1, 2)
        values = rng.sample(range(1, 13), 2 * m - doubled)
        items = values + rng.sample(values, doubled)
        rng.shuffle(items)
        cols = tuple(zip(items[0::2], items[1::2]))
        sign, carr = normalize(cols)
        if sign and len(weak_triples(carr)) > 1:
            arrays.append(cols)
    return arrays


def test_triple_choice_does_not_change_result():
    # rewriting from any offending triple must reach the same normal
    # form; 3-column arrays have one triple, so vary the term order too
    for word in product(range(1, 5), repeat=6):
        if any(n > 2 for n in Counter(word).values()):
            continue
        s = tuple(zip(word[0::2], word[1::2]))
        assert straighten(s) == rescan_straighten(s, last, greatest=True)[0]
    wide = seeded_wide_arrays()
    assert sum(max(array_content(s)) == 2 for s in wide) == len(wide) // 2
    for s in wide:
        result = straighten(s)
        for pick in (first, last, rule_a):
            assert rescan_straighten(s, pick)[0] == result, (s, pick.__name__)


def test_scan_finds_rule_a_triple():
    # every bottom row of length <= 7 over 1..5 (the scan reads only the
    # bottom row)
    for m in range(8):
        for bottoms in product(range(1, 6), repeat=m):
            s = tuple((6, b) for b in bottoms)
            triples = weak_triples(s)
            expected = rule_a(triples) if triples else None
            assert _weak_triple(s) == expected, bottoms


def test_worklist_matches_rescan_reference():
    for s in seeded_arrays():
        stats = {}
        result = straighten(s, stats)
        expected, steps, peak = rescan_straighten(s)
        assert result == expected, s
        assert stats["steps"] == steps, s
        assert stats["peak_terms"] == peak, s
        assert stats["max_den"] == max(
            (c.denominator for c in result.values()), default=1
        ), s


def increasing_bottoms(m):
    """``(2,1)(4,3)...(2m,2m-1)``: every column triple offends, the
    slowest multilinear array of its degree."""
    return tuple((2 * i, 2 * i - 1) for i in range(1, m + 1))


def relation_patterns():
    """Every order pattern of an offending triple: sorted triples of
    descending columns with weakly increasing bottoms on the values
    1..k, each value used once or twice."""
    patterns = []
    for k in range(1, 7):
        columns = [(a, b) for a in range(1, k + 1) for b in range(1, a)]
        for u in combinations_with_replacement(columns, 3):
            counts = Counter(x for col in u for x in col)
            if (
                u[0][1] <= u[1][1] <= u[2][1]
                and set(counts) == set(range(1, k + 1))
                and max(counts.values()) <= 2
            ):
                patterns.append(u)
    return patterns


def test_relation_table_rows_are_sound_and_increasing():
    patterns = relation_patterns()
    assert len(patterns) == 33
    weights = []
    for u in patterns:
        # the values of a pattern are its own labels, so the table route
        # returns its row unchanged
        row = _table_solve(u, (0, 1, 2))
        assert row == _RELATIONS[u]
        assert split_phi({u: 1}) == split_phi(row), u
        assert all(ordering_key(t) > ordering_key(u) for t in row), u
        weights.extend(row.values())
    # every pivot is 1 or 2: the weights are ints but for three halves
    halves = sorted(w for w in weights if type(w) is not int)
    assert halves == [-HALF, -HALF, HALF]
    assert len(weights) == 73


def seeded_offending_triples():
    """(c-array, weak triple) pairs of 3-6 columns on values up to 40,
    drawn from a fixed seed: half multilinear, half with doubled
    values."""
    rng = random.Random(20020506)
    cases = []
    while len(cases) < 600:
        m = rng.randint(3, 6)
        doubled = len(cases) % 2 * rng.randint(1, 3)
        values = rng.sample(range(1, 41), 2 * m - doubled)
        items = values + rng.sample(values, doubled)
        rng.shuffle(items)
        sign, carr = normalize(tuple(zip(items[0::2], items[1::2])))
        if sign == 0:
            continue
        triples = weak_triples(carr)
        if triples:
            cases.append((carr, rng.choice(triples)))
    return cases


def test_table_route_matches_direct_relation():
    cases = seeded_offending_triples()
    doubled = sum(max(array_content(s)) == 2 for s, _ in cases)
    assert doubled >= 250 and len(cases) - doubled >= 250
    for cur, triple in cases:
        assert _table_solve(cur, triple) == _solve_triple(cur, triple), (cur, triple)
    assert len(_RELATIONS) <= 33


def test_relation_table_solves_each_pattern_once(monkeypatch):
    module = importlib.import_module("carrays.straighten")
    solved = []
    real = module._solve_triple

    def counting(cur, triple):
        solved.append(cur)
        return real(cur, triple)

    monkeypatch.setattr(module, "_RELATIONS", {})
    monkeypatch.setattr(module, "_solve_triple", counting)
    steps = 0
    for s in seeded_arrays() + [increasing_bottoms(6)]:
        stats = {}
        straighten(s, stats)
        steps += stats["steps"]
    assert len(solved) == len(set(solved)) == len(module._RELATIONS) <= 33
    assert steps > 10 * len(solved)


def test_coefficients_are_fractions():
    # integral coefficients too: the loop carries ints, the result
    # converts every one
    worst = [increasing_bottoms(m) for m in (4, 5, 6)]
    for s in seeded_arrays() + worst + [((2, 1),), ((1, 2),)]:
        result = straighten(s)
        assert all(type(c) is Fraction for c in result.values()), s


def test_stats_on_trivial_inputs():
    stats = {}
    assert straighten(((2, 2),), stats) == {}
    assert stats == {"steps": 0, "peak_terms": 0, "max_den": 1}
    assert straighten(((1, 2),), stats) == {((2, 1),): -1}
    assert stats == {"steps": 0, "peak_terms": 1, "max_den": 1}


@pytest.mark.parametrize(
    "degree, steps, peak, size",
    [(8, 11, 23, 21), (10, 47, 66, 62), (12, 347, 293, 203), (14, 2585, 1495, 772)],
)
def test_increasing_bottom_stats(degree, steps, peak, size):
    stats = {}
    assert len(straighten(increasing_bottoms(degree // 2), stats)) == size
    assert stats == {"steps": steps, "peak_terms": peak, "max_den": 1}


def test_degree_16_increasing_bottom():
    s = increasing_bottoms(8)
    result = straighten(s)
    assert len(result) == 3299
    assert all(is_normal(t) for t in result)
    assert all(array_content(t) == array_content(s) for t in result)


def test_degree_14_increasing_bottom():
    s = increasing_bottoms(7)
    result = straighten(s)
    assert len(result) == 772
    assert all(is_normal(t) for t in result)
    assert all(array_content(t) == array_content(s) for t in result)
    assert split_phi({s: 1}) == split_phi(result)


def test_result_guards_survive_optimize():
    # the guards on returned results are explicit raises, so python -O
    # keeps them: a broken bumping step and an order-decreasing rewrite
    # must still be caught
    code = """
import importlib
import sys

assert sys.flags.optimize
B = importlib.import_module("carrays.bijection")
S = importlib.import_module("carrays.straighten")
real_bump = B._bump
B._bump = lambda rows, x: real_bump(rows, x + 1)
S._solve_triple = lambda cur, triple: {cur: 1}
for call, s in ((B.carray_to_dtableau, ((2, 1),)),
                (S.straighten, ((2, 1), (4, 3), (6, 5)))):
    try:
        call(s)
    except RuntimeError as exc:
        print(exc)
    else:
        raise SystemExit(f"{call.__name__} returned a broken result")
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    bijection_error, straighten_error = proc.stdout.splitlines()
    assert "bijection produced a non-d-tableau" in bijection_error
    assert "must strictly increase the order" in straighten_error


def test_triple_occurrence_fully_linearizes_to_kernel():
    # the multiplicity-3 kill is backed by the oracle: distributing the
    # three shared occurrences over fresh labels in all bijections
    # lands in the kernel of the polynomial map
    from itertools import permutations

    from carrays.oracle import phi

    source = ((2, 1), (3, 1), (4, 1))
    total = {}
    for assignment in permutations((1, 2, 3)):
        occurrences = iter(assignment)
        cols = tuple(
            (a + 2, next(occurrences)) for a, _ in source
        )
        total[cols] = total.get(cols, Fraction(0)) + 1
    assert phi(total).is_zero()
    assert straighten(source) == {}


def test_multilinearize_identity_on_multilinear():
    s = ((2, 1), (4, 3))
    assert multilinearize(s) == [s]


def test_multilinearize_one_doubled_value():
    # content (1, 1, 2): value 3 splits into labels 3 and 4
    assert multilinearize(((3, 1), (3, 2))) == [
        ((3, 1), (4, 2)),
        ((4, 1), (3, 2)),
    ]


def test_multilinearize_two_doubled_values():
    assert multilinearize(((2, 1), (2, 1))) == [
        ((3, 1), (4, 2)),
        ((4, 1), (3, 2)),
        ((3, 2), (4, 1)),
        ((4, 2), (3, 1)),
    ]


def test_multilinearize_rejects_high_multiplicity():
    with pytest.raises(ValueError):
        multilinearize(((2, 1), (2, 1), (2, 1)))


def test_lincomb_to_json_sorted_and_stringly():
    payload = lincomb_to_json(straighten(((3, 1), (3, 1), (4, 2))))
    assert payload == [
        {"coeff": "-2", "top": [3, 3, 4], "bottom": [1, 2, 1]}
    ]
