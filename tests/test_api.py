import pytest

import carrays
from carrays.carray import array
from carrays.grassmann import GrassmannElem
from carrays.krs import insert
from carrays.oracle import Poly
from carrays.series import SymPoly
from carrays.tableaux import enumerate_ssyt, shape, tableau, trim_content


def test_every_exported_name_exists():
    for name in carrays.__all__:
        assert hasattr(carrays, name), name
    namespace = {}
    exec("from carrays import *", namespace)
    assert set(carrays.__all__) <= set(namespace)


@pytest.mark.parametrize(
    "module, name",
    [
        ("oracle", "perm_sign"),
        ("oracle", "q_poly"),
        ("oracle", "exact_rank"),
        ("straighten", "lincomb_multiply"),
        ("bijection", "normal_image_shape"),
        ("tableaux", "is_double_shape"),
        ("tableaux", "is_semistandard_french"),
        ("tableaux", "CONVENTIONS"),
    ],
)
def test_removed_names_are_gone(module, name):
    with pytest.raises(ImportError):
        exec(f"from carrays import {name}", {})
    with pytest.raises(ImportError):
        exec(f"from carrays.{module} import {name}", {})


ENTRY_POINTS = {
    "array": lambda x: array([(x, 1)]),
    "tableau": lambda x: tableau([[1, x]]),
    "shape": lambda x: shape([x]),
    "trim_content": lambda x: trim_content([1, x]),
    "enumerate_ssyt": lambda x: enumerate_ssyt((2,), [x]),
    "insert": lambda x: insert(((1,),), x),
    "Poly mask": lambda x: Poly({x: 1}),
    "GrassmannElem gens": lambda x: GrassmannElem(x),
    "GrassmannElem index": lambda x: GrassmannElem(3, {(1, x): 1}),
    "SymPoly nvars": lambda x: SymPoly(x),
    "SymPoly exponent": lambda x: SymPoly(2, {(1, x): 1}),
}


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entries_must_be_int(entry, bad):
    # 2 itself is accepted everywhere; nothing else is truncated or parsed
    ENTRY_POINTS[entry](2)
    with pytest.raises(TypeError):
        ENTRY_POINTS[entry](bad)
