import pytest

from carrays import carray
from carrays.acceptance import iter_carrays, longest_weak_increase
from carrays.bijection import (
    carray_to_dtableau,
    dtableau_to_carray,
    first_row_length,
)
from carrays.carray import array_content, is_normal
from carrays.tableaux import content_of, is_d_tableau


def test_single_column():
    assert carray_to_dtableau(((2, 1),)) == ((1,), (2,))
    assert dtableau_to_carray(((1,), (2,))) == ((2, 1),)


def test_two_columns_multilinear():
    assert carray_to_dtableau(((2, 1), (4, 3))) == ((1, 3), (2, 4))
    assert dtableau_to_carray(((1, 3), (2, 4))) == ((2, 1), (4, 3))


def test_two_columns_doubled_bottom():
    assert carray_to_dtableau(((2, 1), (3, 1))) == ((1, 1), (2, 3))


def test_all_twos_column_pair():
    assert dtableau_to_carray(((1, 1), (2, 2))) == ((2, 1), (2, 1))


def test_empty():
    assert carray_to_dtableau(()) == ()
    assert dtableau_to_carray(()) == ()


def test_rejects_non_c_array():
    with pytest.raises(ValueError):
        carray_to_dtableau(((1, 2),))


def test_validates_the_array_once(monkeypatch):
    calls = []
    validate = carray.array

    def counted(columns):
        calls.append(columns)
        return validate(columns)

    monkeypatch.setattr(carray, "array", counted)
    assert carray_to_dtableau(((2, 1), (3, 1))) == ((1, 1), (2, 3))
    assert len(calls) == 1
    with pytest.raises(ValueError):
        carray_to_dtableau(((1, 2),))
    assert len(calls) == 2


def test_rejects_non_d_tableau():
    with pytest.raises(ValueError):
        dtableau_to_carray(((1, 2), (3,)))


def test_first_row_length():
    assert first_row_length(((2, 1), (4, 3), (6, 5))) == 3
    assert first_row_length(((2, 1),)) == 1
    assert first_row_length(((3, 2), (4, 1))) == 1
    assert first_row_length(()) == 0


def test_round_trip_small_sweep():
    for s in iter_carrays(2, 5):
        t = carray_to_dtableau(s)
        assert is_d_tableau(t)
        assert content_of(t) == array_content(s)
        assert dtableau_to_carray(t) == s


def test_first_row_is_weak_lis_small_sweep():
    for s in iter_carrays(3, 6):
        assert first_row_length(s) == longest_weak_increase(b for _, b in s)


def normal_image_shape(s):
    """The image shape is of the form ``(2^2p, 1^2q)`` and no entry
    occurs more than twice."""
    t = carray_to_dtableau(s)
    return all(len(row) <= 2 for row in t) and all(n <= 2 for n in content_of(t))


def test_normality_matches_image_shape():
    # normal c-arrays are exactly those whose image has all rows of
    # length <= 2 and entry multiplicities <= 2
    seen_normal = 0
    for s in iter_carrays(4, 8):
        assert normal_image_shape(s) == is_normal(s)
        seen_normal += is_normal(s)
    assert seen_normal > 100
