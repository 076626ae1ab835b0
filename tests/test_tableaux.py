from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from carrays.acceptance import iter_partitions
from carrays.series import _compositions
from carrays.tableaux import (
    content_of,
    enumerate_ssyt,
    is_d_tableau,
    is_semistandard_english,
    shape,
    shape_of,
    tableau,
    tableau_from_json,
    tableau_from_text,
    tableau_to_json,
    tableau_to_text,
    trim_content,
)


def test_shape_validation():
    assert shape((3, 2, 2)) == (3, 2, 2)
    assert shape(()) == ()
    with pytest.raises(ValueError):
        shape((2, 3))
    with pytest.raises(ValueError):
        shape((2, 0))


def test_semistandard_english():
    assert is_semistandard_english(((1, 1), (2, 3)))
    assert not is_semistandard_english(((1, 2), (1, 3)))
    assert is_semistandard_english(((1, 3), (2, 4)))
    assert is_semistandard_english(())


def test_semistandard_english_rejects_bad_shape():
    with pytest.raises(ValueError):
        is_semistandard_english(((1,), (2, 3)))


def test_is_d_tableau():
    assert is_d_tableau(((1,), (2,)))
    assert is_d_tableau(((1, 3), (2, 4)))
    assert not is_d_tableau(((1, 2), (3,)))
    assert is_d_tableau(())


def test_content():
    assert content_of(((1, 1), (2, 3))) == (2, 1, 1)
    assert content_of(((1,), (2,))) == (1, 1)
    assert content_of(()) == ()
    assert trim_content((1, 0, 2, 0, 0)) == (1, 0, 2)


def test_enumerate_ssyt_forced():
    assert enumerate_ssyt((1, 1), (1, 1)) == [((1,), (2,))]


def test_enumerate_ssyt_standard_two_by_two():
    assert enumerate_ssyt((2, 2), (1, 1, 1, 1)) == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
    ]


def test_enumerate_ssyt_doubled_content():
    assert enumerate_ssyt((2, 2), (2, 2)) == [((1, 1), (2, 2))]


def test_enumerate_ssyt_empty_shape():
    assert enumerate_ssyt((), ()) == [()]


def test_enumerate_ssyt_size_mismatch():
    with pytest.raises(ValueError):
        enumerate_ssyt((2, 1), (1, 1))


def test_enumerated_tableaux_are_semistandard_with_right_content():
    for n in range(6):
        for sh in iter_partitions(n):
            for content in _compositions(n, 3):
                found = enumerate_ssyt(sh, content)
                assert len(set(found)) == len(found)
                for t in found:
                    assert is_semistandard_english(t)
                    assert trim_content(content_of(t)) == trim_content(content)


def test_ssyt_count_invariant_under_content_permutation():
    # exhaustive for shapes with at most 6 cells
    for n in range(7):
        for sh in iter_partitions(n):
            for content in _compositions(n, min(n, 4)):
                base = len(enumerate_ssyt(sh, content))
                for perm in set(permutations(content)):
                    assert len(enumerate_ssyt(sh, perm)) == base


def test_text_round_trip():
    t = ((1, 1, 2), (2, 3))
    assert tableau_from_text(tableau_to_text(t)) == t
    assert tableau_from_text("") == ()


def test_json_round_trip():
    t = ((1, 2), (3, 4))
    assert tableau_from_json(tableau_to_json(t)) == t
    with pytest.raises(ValueError):
        tableau_from_json({"cols": []})


@st.composite
def partition_strategy(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    bins = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


@given(sh=partition_strategy())
@settings(max_examples=60, deadline=None)
def test_shape_of_enumerated_matches(sh):
    n = sum(sh)
    for t in enumerate_ssyt(sh, (1,) * n):
        assert shape_of(t) == sh
        assert tableau(t) == t
