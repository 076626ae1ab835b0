from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from carrays.carray import (
    array_content,
    array_from_rows,
    array_from_text,
    array_to_text,
    classify,
    compare,
    enumerate_carrays,
    enumerate_normal,
    has_no_weak_bottom_triple,
    is_c_array,
    is_normal,
    normalize,
    ordering_key,
    star,
)
from carrays.series import dimension
from carrays.tableaux import trim_content


def test_array_from_rows():
    assert array_from_rows((2, 4), (1, 3)) == ((2, 1), (4, 3))
    with pytest.raises(ValueError):
        array_from_rows((1, 2), (1,))
    with pytest.raises(ValueError):
        array_from_rows((0,), (1,))


def test_normalize_single_swap():
    assert normalize(((1, 2),)) == (-1, ((2, 1),))


def test_normalize_sort_only():
    # columns (3,1),(2,1) sort to (2,1),(3,1) with no sign
    assert normalize(((3, 1), (2, 1))) == (1, ((2, 1), (3, 1)))


def test_normalize_zero_column():
    assert normalize(((2, 2), (3, 5))) == (0, None)


def test_classify():
    assert classify(((2, 1),)) == "normal"
    assert classify(((2, 1), (4, 3), (6, 5))) == "c_array"  # bottoms 1 <= 3 <= 5
    assert classify(((1, 2),)) == "raw"
    assert classify(()) == "normal"


def test_compare():
    s1 = array_from_rows((2, 4), (1, 3))
    s2 = array_from_rows((3, 4), (1, 2))
    assert compare(s1, s2) == -1  # keys (4,2,1,3) < (4,3,1,2)
    assert compare(s1, s1) == 0
    assert compare(((2, 1),), ((3, 1),)) == -1
    with pytest.raises(ValueError):
        compare(((2, 1),), ())


def test_star():
    assert star(((2, 1),), ((4, 3),)) == ((2, 1), (4, 3))
    assert star(((4, 3),), ((2, 1),)) == ((2, 1), (4, 3))
    assert star(((2, 1),), ()) == ((2, 1),)
    with pytest.raises(ValueError):
        star(((1, 2),), ())


def test_weak_triple_scan_matches_brute_force():
    # every bottom row of length <= 7 on the values 1..5; the tops do
    # not take part
    for m in range(8):
        for bottom in product(range(1, 6), repeat=m):
            s = tuple((6, b) for b in bottom)
            brute = not any(
                bottom[r] <= bottom[mid] <= bottom[t]
                for r, mid, t in combinations(range(m), 3)
            )
            assert has_no_weak_bottom_triple(s) == brute, bottom


def test_enumerate_normal_multilinear_four():
    assert enumerate_normal((1, 1, 1, 1)) == [
        ((2, 1), (4, 3)),
        ((3, 1), (4, 2)),
        ((3, 2), (4, 1)),
    ]


def test_enumerate_normal_smallest():
    assert enumerate_normal((1, 1)) == [((2, 1),)]


def test_enumerate_normal_all_twos():
    assert enumerate_normal((2, 2)) == [((2, 1), (2, 1))]
    assert enumerate_normal((2, 2, 2)) == []


def test_enumerate_normal_kills_high_multiplicity_and_odd_degree():
    assert enumerate_normal((3, 1)) == []
    assert enumerate_normal((1, 1, 1)) == []


def test_enumerate_normal_matches_filtered_matchings():
    # the backtracker against the independent enumerator of every
    # c-array, filtered: all contents on 8 values with multiplicities
    # 0..2 and degree <= 10, then rows with a 3 or odd degree, whose
    # normal arrays are none
    contents = [c for c in product((0, 1, 2), repeat=8) if sum(c) <= 10]
    contents += [(3,), (3, 1), (1, 3), (1, 1, 3, 1), (2, 3, 1, 2)]
    contents += [(1,), (1, 1, 1), (2, 1, 2, 2), (1, 2, 1, 1, 2)]
    for content in contents:
        expected = [s for s in enumerate_carrays(content) if is_normal(s)]
        assert enumerate_normal(content) == expected, content
        if 3 in content or sum(content) % 2:
            assert expected == []


def test_enumerate_normal_past_desk_scale():
    # 16 entries: 2,027,025 matchings for the filtering enumerator
    for content, size in (
        ((1,) * 16, comb(15, 8)),
        ((1,) * 7 + (2,) + (1,) * 7, comb(13, 7)),
    ):
        found = enumerate_normal(content)
        assert len(found) == size == dimension(content)
        keys = [ordering_key(s) for s in found]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
        for s in found:
            assert is_normal(s)
            assert trim_content(array_content(s)) == content


def test_enumerate_carrays_content_and_order():
    for content in ((1, 1, 1, 1), (2, 2), (1, 0, 1, 1, 1)):
        found = enumerate_carrays(content)
        keys = [ordering_key(s) for s in found]
        assert keys == sorted(keys)
        for s in found:
            assert is_c_array(s)
            assert trim_content(array_content(s)) == trim_content(content)


def test_ordering_compatible_with_star():
    # exhaustive over entries <= 4 and at most 2 columns
    columns = [(a, b) for a in range(1, 5) for b in range(1, a)]
    smalls = [()] + [(c,) for c in columns]
    pairs = [s for s in product(columns, repeat=2) if s[0] <= s[1]]
    arrays = smalls + pairs
    for s in arrays:
        for m in (1, 2):
            same_length = [t for t in arrays if len(t) == m]
            for t1 in same_length:
                for t2 in same_length:
                    assert compare(t1, t2) == compare(star(s, t1), star(s, t2))


def test_text_round_trip():
    s = ((2, 1), (4, 3))
    assert array_to_text(s) == "2 4\n1 3"
    assert array_from_text(array_to_text(s)) == s
    assert array_from_text("") == ()
    with pytest.raises(ValueError):
        array_from_text("1 2\n3 4\n5 6")


@st.composite
def raw_array_strategy(draw):
    m = draw(st.integers(0, 4))
    cols = [
        (draw(st.integers(1, 6)), draw(st.integers(1, 6))) for _ in range(m)
    ]
    return tuple(cols)


@given(s=raw_array_strategy())
@settings(max_examples=150, deadline=None)
def test_normalize_contract(s):
    sign, carr = normalize(s)
    if sign == 0:
        assert carr is None
        assert any(a == b for a, b in s)
    else:
        assert sign in (-1, 1)
        assert is_c_array(carr)
        assert array_content(carr) == array_content(s)
        # idempotent on its own output
        assert normalize(carr) == (1, carr)


@given(s=raw_array_strategy())
@settings(max_examples=100, deadline=None)
def test_classify_consistent_with_predicates(s):
    label = classify(s)
    assert label in ("raw", "c_array", "normal")
    assert (label == "normal") == is_normal(s)
    if label != "raw":
        assert is_c_array(s)
