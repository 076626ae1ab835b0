"""Desk-scale acceptance checks, shared by ``carrays selftest`` and the
test suite.

Every check is exhaustive over its stated range or seeded, so results
are reproducible bit for bit.  A check takes no arguments and returns
a one-line summary when it passes; when it fails it raises
:class:`CheckFailed` with the witness.  ``CHECKS`` maps each check id
to its function in selftest order and is the only place an id is
written; :func:`run_check` turns one check into a :class:`CheckResult`.
Only ``CheckFailed`` counts as a failure: any other exception is a
fault of the engine and propagates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

from .bijection import carray_to_dtableau, dtableau_to_carray, first_row_length
from .carray import array_content, classify, enumerate_normal, is_normal
from .grassmann import IDENTITIES, check_identity, scalar_check, scalar_evaluation
from .krs import _bump, insert
from .oracle import Poly, independence_rank, phi
from .series import (
    SymPoly,
    _compositions,
    carini_drensky,
    dimension,
    gamma_coefficients,
    hilbert_by_dimension,
    hilbert_by_tableaux,
)
from .sparse import accumulate
from .straighten import multilinearize, straighten
from .tableaux import content_of, enumerate_ssyt, is_d_tableau

GRASSMANN_SEED = 0


class CheckFailed(Exception):
    """An acceptance check failed; the message is its witness."""


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    detail: str


def iter_partitions(n: int, max_part: int | None = None):
    """Partitions of ``n`` as weakly decreasing tuples."""
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in iter_partitions(n - first, first):
            yield (first,) + rest


def iter_carrays(max_m: int, max_entry: int):
    """All c-arrays with at most ``max_m`` columns on entries up to
    ``max_entry``; weakly increasing column tuples are exactly the
    sorted ones."""
    columns = sorted(
        (a, b) for a in range(1, max_entry + 1) for b in range(1, a)
    )
    for m in range(max_m + 1):
        yield from combinations_with_replacement(columns, m)


def iter_semistandard(max_cells: int, max_entry: int):
    """All english-semistandard tableaux with at most ``max_cells``
    cells and entries up to ``max_entry``."""
    for n in range(max_cells + 1):
        for shape in iter_partitions(n):
            for content in _compositions(n, max_entry):
                yield from enumerate_ssyt(shape, content)


def iter_dtableaux(max_cells: int, max_entry: int):
    """All d-tableaux with at most ``max_cells`` cells, entries up to
    ``max_entry``."""
    for m in range(max_cells // 2 + 1):
        for half in iter_partitions(m):
            shape = tuple(p for part in half for p in (part, part))
            for content in _compositions(2 * m, max_entry):
                yield from enumerate_ssyt(shape, content)


def longest_weak_increase(seq) -> int:
    """Brute-force longest weakly increasing subsequence length."""
    seq = list(seq)
    best = 0
    for mask in range(1 << len(seq)):
        picked = [seq[i] for i in range(len(seq)) if mask >> i & 1]
        if all(picked[i] <= picked[i + 1] for i in range(len(picked) - 1)):
            best = max(best, len(picked))
    return best


def check_bijection_round_trip() -> str:
    arrays = 0
    for s in iter_carrays(3, 6):
        t = carray_to_dtableau(s)
        if not is_d_tableau(t) or content_of(t) != array_content(s):
            raise CheckFailed(f"bad image for {s}: {t}")
        if dtableau_to_carray(t) != s:
            raise CheckFailed(f"round trip broke on {s}")
        arrays += 1
    tableaux = 0
    for t in iter_dtableaux(8, 6):
        s = dtableau_to_carray(t)
        if classify(s) == "raw":
            raise CheckFailed(f"non-c-array preimage for {t}")
        if carray_to_dtableau(s) != t:
            raise CheckFailed(f"round trip broke on {t}")
        tableaux += 1
    return f"{arrays} c-arrays and {tableaux} d-tableaux round-trip exactly"


def check_first_row_statistic() -> str:
    checked = 0
    for s in iter_carrays(4, 8):
        if first_row_length(s) != longest_weak_increase(b for _, b in s):
            raise CheckFailed(f"mismatch on {s}")
        checked += 1
    return f"first row equals brute-force weak LIS on {checked} c-arrays"


def check_row_bumping() -> str:
    # x <= y: the second box lands strictly right and weakly above;
    # x > y: strictly below and weakly left.  t1 came out of a
    # validated insert, so the second insertion bumps a copy directly
    tableaux = 0
    for t in iter_semistandard(5, 6):
        for x in range(1, 7):
            t1, i = insert(t, x)
            h = len(t1[i - 1])
            for y in range(1, 7):
                rows = [list(row) for row in t1]
                j = _bump(rows, y) + 1
                k = len(rows[j - 1])
                if x <= y:
                    ok = i >= j and h < k
                else:
                    ok = i < j and h >= k
                if not ok:
                    raise CheckFailed(f"violated at t={t}, x={x}, y={y}")
        tableaux += 1
    return f"both clauses hold for {tableaux} tableaux, x, y <= 6"


def check_normal_counts() -> str:
    for s in range(1, 6):
        expected = comb(2 * s - 1, s)
        got = len(enumerate_normal((1,) * (2 * s)))
        if got != expected:
            raise CheckFailed(
                f"multilinear with {2 * s} ones: got {got}, want {expected}"
            )
    for q in range(5):
        expected = 1 if q % 2 == 0 else 0
        got = len(enumerate_normal((2,) * q))
        if got != expected:
            raise CheckFailed(f"all-twos with q={q}: got {got}, want {expected}")
    return "multilinear counts 1,3,10,35,126 and all-twos counts 1/0 match"


def check_content_reduction() -> str:
    by_multiset: dict[tuple[int, ...], int] = {}
    contents = 0
    for counts in product((0, 1, 2), repeat=8):
        n = len(enumerate_normal(counts))
        if by_multiset.setdefault(tuple(sorted(counts)), n) != n:
            raise CheckFailed(f"permutation changed the count at {counts}")
        ones = counts.count(1)
        twos = counts.count(2)
        reduced = (1,) * ones + ((2,) if twos % 2 else ())
        if n != len(enumerate_normal(reduced)):
            raise CheckFailed(f"reduction mismatch at {counts}")
        if twos % 2 and ones > 0 and n != len(enumerate_normal((1,) * ones)):
            raise CheckFailed(f"two-step reduction mismatch at {counts}")
        if n != dimension(counts):
            raise CheckFailed(f"dimension formula mismatch at {counts}")
        contents += 1
    return (
        f"{contents} contents: counts permutation-invariant, reduce correctly, "
        "match the dimension formula"
    )


def split_phi(combination) -> Poly:
    """``phi`` of a combination after splitting its doubled values."""
    return phi(
        accumulate(
            (t, coeff) for s, coeff in combination.items() for t in multilinearize(s)
        )
    )


def check_straightening_soundness() -> str:
    checked = 0
    for m in range(4):
        for word in product(range(1, 7), repeat=2 * m):
            if any(n > 2 for n in Counter(word).values()):
                continue
            s = tuple(zip(word[0::2], word[1::2]))
            if split_phi({s: 1}) != split_phi(straighten(s)):
                raise CheckFailed(f"oracle mismatch on {s}")
            checked += 1
    return f"exact polynomial identity for {checked} arrays (m <= 3, entries <= 6)"


# offending array -> its solved straightening, one fixture per collected
# relation shape (equal tops first/last, doubled or distinct bottoms)
DERIVED_FORM_FIXTURES = {
    ((4, 1), (4, 2), (5, 3)): {
        ((4, 1), (4, 3), (5, 2)): Fraction(-1),
        ((4, 2), (4, 3), (5, 1)): Fraction(-1),
    },
    ((4, 1), (5, 2), (5, 3)): {
        ((4, 2), (5, 1), (5, 3)): Fraction(-1),
        ((4, 3), (5, 1), (5, 2)): Fraction(-1),
    },
    ((3, 1), (3, 1), (4, 2)): {
        ((3, 1), (3, 2), (4, 1)): Fraction(-2),
    },
    ((3, 1), (3, 2), (4, 2)): {
        ((3, 2), (3, 2), (4, 1)): Fraction(-1, 2),
    },
    ((4, 1), (5, 1), (5, 2)): {
        ((4, 2), (5, 1), (5, 1)): Fraction(-1, 2),
    },
    ((4, 1), (5, 2), (5, 2)): {
        ((4, 2), (5, 1), (5, 2)): Fraction(-2),
    },
}


def check_derived_forms() -> str:
    for source, expected in DERIVED_FORM_FIXTURES.items():
        got = straighten(source)
        if got != expected:
            raise CheckFailed(f"{source}: got {got}, want {expected}")
        if not all(is_normal(t) for t in got):
            raise CheckFailed(f"{source}: non-normal output")
    return (
        f"all {len(DERIVED_FORM_FIXTURES)} collected relation forms reproduced "
        "with coefficients in {-1, -2, -1/2}"
    )


def check_independence_ranks() -> str:
    for m, want in {1: 1, 2: 3, 3: 10, 4: 35}.items():
        basis = enumerate_normal((1,) * (2 * m))
        if len(basis) != want or independence_rank(basis) != want:
            raise CheckFailed(
                f"2m={2 * m}: rank {independence_rank(basis)} of {len(basis)}, want {want}"
            )
    return "multilinear images have full ranks 1, 3, 10, 35 (exact elimination)"


def check_hilbert_three_way() -> str:
    for k in (1, 2, 3):
        closed = carini_drensky(k, 8)
        tableaux = hilbert_by_tableaux(k, 8)
        dims = hilbert_by_dimension(k, 8)
        if not (closed == tableaux == dims):
            raise CheckFailed(f"k={k}: {closed!r} vs {tableaux!r} vs {dims!r}")
    spot = SymPoly(
        2,
        {(0, 0): Fraction(1), (1, 1): Fraction(1), (2, 2): Fraction(1)},
        maxdeg=8,
    )
    if carini_drensky(2, 8) != spot:
        raise CheckFailed(f"k=2 spot value differs: {carini_drensky(2, 8)!r}")
    return (
        "closed form = Schur sum = dimension sum for k <= 3, degree <= 8; "
        "k=2 value is 1 + t1*t2 + t1^2*t2^2"
    )


def check_codimension_series() -> str:
    coeffs = gamma_coefficients(4)
    if any(coeffs[i] for i in range(1, len(coeffs), 2)):
        raise CheckFailed("odd coefficient is nonzero")
    for m in range(1, 5):
        count = len(enumerate_normal((1,) * (2 * m)))
        if coeffs[2 * m] != count:
            raise CheckFailed(f"z^{2 * m}: series {coeffs[2 * m]}, enumeration {count}")
    if coeffs[0] != 1:
        raise CheckFailed("constant term != 1")
    return "series matches enumeration (1, 3, 10, 35) at z^2..z^8; odd terms vanish"


def _vanishes(identity: str) -> str:
    gens = IDENTITIES[identity][1]
    witness = check_identity(identity, samples=100, gens=gens, seed=GRASSMANN_SEED)
    if witness is not None:
        raise CheckFailed(f"failed at sample {witness[0]}")
    return f"100 seeded substitutions vanish (g={gens}, seed={GRASSMANN_SEED})"


def check_identity_c3() -> str:
    return _vanishes("c3")


def check_identity_p() -> str:
    return _vanishes("p")


def check_non_identity() -> str:
    gens = IDENTITIES["c2"][1]
    witness = check_identity("c2", samples=100, gens=gens, seed=GRASSMANN_SEED)
    if witness is None:
        raise CheckFailed("a bare commutator vanished on all 100 samples")
    return f"bare commutator fails at sample {witness[0]} (g={gens}, seed={GRASSMANN_SEED})"


def check_squared_pair_scalar() -> str:
    for r in (1, 2):
        if not scalar_check(r):
            raise CheckFailed(f"r={r}: evaluation {scalar_evaluation(r)!r}")
    return "scalars 2 and 4 on the pair-ordered monomial for r=1, 2, exact"


CHECKS = {
    "1-bijection-round-trip": check_bijection_round_trip,
    "2-first-row-statistic": check_first_row_statistic,
    "3-row-bumping-lemma": check_row_bumping,
    "4-normal-array-counts": check_normal_counts,
    "5-content-permutation-reduction": check_content_reduction,
    "6a-straightening-phi-soundness": check_straightening_soundness,
    "6b-straightening-derived-forms": check_derived_forms,
    "7-independence-ranks": check_independence_ranks,
    "8-hilbert-three-way": check_hilbert_three_way,
    "9-codimension-series": check_codimension_series,
    "10a-weak-identity-c3": check_identity_c3,
    "10b-weak-identity-p": check_identity_p,
    "10c-non-identity-witness": check_non_identity,
    "10d-squared-pair-scalar": check_squared_pair_scalar,
}


def run_check(check_id: str) -> CheckResult:
    """Run the check registered as ``check_id``; a ``CheckFailed`` is
    a failed result with its witness, anything else propagates."""
    try:
        return CheckResult(check_id, True, CHECKS[check_id]())
    except CheckFailed as failure:
        return CheckResult(check_id, False, str(failure))
