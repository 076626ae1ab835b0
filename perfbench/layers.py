"""The layer functions the benchmark calls, bound by name.

Every call the benchmark makes into ``carrays`` goes through the
namespace that :func:`bind` returns, so a traced run can put a span
around each call without touching the library.  A layer is a module
under ``src/carrays``; ``cli`` and ``acceptance`` are front ends over
these and get no layer of their own.
"""

from __future__ import annotations

import importlib
from types import SimpleNamespace

LAYER_FUNCTIONS = {
    "tableaux": ("enumerate_ssyt",),
    "krs": ("insert", "delete"),
    "bijection": ("carray_to_dtableau", "dtableau_to_carray", "first_row_length"),
    "carray": ("classify", "normalize", "enumerate_normal"),
    "straighten": ("straighten", "multilinearize"),
    "oracle": ("phi", "independence_rank"),
    "series": (
        "dimension",
        "carini_drensky",
        "hilbert_by_tableaux",
        "hilbert_by_dimension",
        "gamma_coefficients",
    ),
    "grassmann": ("verify_weak_identity", "eval_array"),
}

SPAN_NAMES = tuple(
    f"{module}.{function}"
    for module, functions in LAYER_FUNCTIONS.items()
    for function in functions
)


def bind(wrap=None) -> SimpleNamespace:
    """Namespace of the layer functions, each passed through
    ``wrap(span_name, function)`` when a wrapper is given."""
    lib = SimpleNamespace()
    for module, functions in LAYER_FUNCTIONS.items():
        mod = importlib.import_module(f"carrays.{module}")
        for function in functions:
            fn = getattr(mod, function)
            name = f"{module}.{function}"
            setattr(lib, function, wrap(name, fn) if wrap else fn)
    return lib
