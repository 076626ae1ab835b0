"""Exact combinatorics of two-rowed commutator arrays.

Everything here runs in exact rational arithmetic:

* semistandard tableaux of arbitrary and double shape with exhaustive
  enumeration (:mod:`carrays.tableaux`);
* row bumping and the bijection between c-arrays and tableaux of
  double shape (:mod:`carrays.krs`, :mod:`carrays.bijection`);
* two-rowed commutator arrays, their normal forms and the
  straightening of arbitrary products onto the normal basis
  (:mod:`carrays.carray`, :mod:`carrays.straighten`);
* a commuting-polynomial model of the multilinear component used as an
  independent cross-check (:mod:`carrays.oracle`);
* exterior-algebra and supermatrix arithmetic with randomized
  verification of the defining weak identities
  (:mod:`carrays.grassmann`);
* the dimension formula, Hilbert series and codimension series
  (:mod:`carrays.series`).

The ``carrays`` command line tool exposes all of it; the acceptance
checks behind ``carrays selftest`` live in :mod:`carrays.acceptance`.
"""

from .bijection import carray_to_dtableau, dtableau_to_carray, first_row_length
from .carray import (
    TwoRowArray,
    classify,
    compare,
    enumerate_carrays,
    enumerate_normal,
    normalize,
    star,
)
from .grassmann import (
    GrassmannElem,
    M11,
    commutator,
    eval_array,
    scalar_check,
    verify_weak_identity,
)
from .krs import delete, insert
from .oracle import Poly, independence_rank, phi
from .series import (
    SymPoly,
    carini_drensky,
    dimension,
    elementary_symmetric,
    gamma_coefficients,
    hilbert_by_dimension,
    hilbert_by_tableaux,
    schur,
)
from .straighten import LinComb, multilinearize, straighten
from .tableaux import (
    Content,
    Shape,
    Tableau,
    content_of,
    enumerate_ssyt,
    is_d_tableau,
    is_semistandard_english,
)

__version__ = "0.1.0"

__all__ = [
    "TwoRowArray",
    "Tableau",
    "Shape",
    "Content",
    "LinComb",
    "Poly",
    "SymPoly",
    "GrassmannElem",
    "M11",
    "carray_to_dtableau",
    "dtableau_to_carray",
    "first_row_length",
    "classify",
    "compare",
    "enumerate_carrays",
    "enumerate_normal",
    "normalize",
    "star",
    "commutator",
    "eval_array",
    "scalar_check",
    "verify_weak_identity",
    "delete",
    "insert",
    "independence_rank",
    "phi",
    "carini_drensky",
    "dimension",
    "elementary_symmetric",
    "gamma_coefficients",
    "hilbert_by_dimension",
    "hilbert_by_tableaux",
    "schur",
    "multilinearize",
    "straighten",
    "content_of",
    "enumerate_ssyt",
    "is_d_tableau",
    "is_semistandard_english",
    "__version__",
]
