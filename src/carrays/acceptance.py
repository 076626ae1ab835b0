"""Desk-scale acceptance checks, shared by ``carrays selftest`` and the
test suite.

Every check is exhaustive over its stated range or seeded, so results
are reproducible bit for bit; each returns a result row with a pass
flag and a short summary (a witness when something failed).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .bijection import carray_to_dtableau, dtableau_to_carray, first_row_length
from .carray import array_content, classify, enumerate_normal, is_normal
from .grassmann import check_identity, scalar_check, scalar_evaluation
from .krs import insert
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
                yield from enumerate_ssyt(shape, content, "english")


def iter_dtableaux(max_cells: int, max_entry: int):
    """All d-tableaux with at most ``max_cells`` cells, entries up to
    ``max_entry``."""
    for m in range(max_cells // 2 + 1):
        for half in iter_partitions(m):
            shape = tuple(p for part in half for p in (part, part))
            for content in _compositions(2 * m, max_entry):
                yield from enumerate_ssyt(shape, content, "english")


def longest_weak_increase(seq) -> int:
    """Brute-force longest weakly increasing subsequence length."""
    seq = list(seq)
    best = 0
    for mask in range(1 << len(seq)):
        picked = [seq[i] for i in range(len(seq)) if mask >> i & 1]
        if all(picked[i] <= picked[i + 1] for i in range(len(picked) - 1)):
            best = max(best, len(picked))
    return best


def check_bijection_round_trip() -> CheckResult:
    arrays = 0
    for s in iter_carrays(3, 6):
        t = carray_to_dtableau(s)
        if not is_d_tableau(t) or content_of(t) != array_content(s):
            return CheckResult(
                "1-bijection-round-trip", False, f"bad image for {s}: {t}"
            )
        if dtableau_to_carray(t) != s:
            return CheckResult(
                "1-bijection-round-trip", False, f"round trip broke on {s}"
            )
        arrays += 1
    tableaux = 0
    for t in iter_dtableaux(8, 6):
        s = dtableau_to_carray(t)
        if classify(s) == "raw":
            return CheckResult(
                "1-bijection-round-trip", False, f"non-c-array preimage for {t}"
            )
        if carray_to_dtableau(s) != t:
            return CheckResult(
                "1-bijection-round-trip", False, f"round trip broke on {t}"
            )
        tableaux += 1
    return CheckResult(
        "1-bijection-round-trip",
        True,
        f"{arrays} c-arrays and {tableaux} d-tableaux round-trip exactly",
    )


def check_first_row_statistic() -> CheckResult:
    checked = 0
    for s in iter_carrays(4, 8):
        expected = longest_weak_increase(b for _, b in s)
        if first_row_length(s) != expected:
            return CheckResult(
                "2-first-row-statistic", False, f"mismatch on {s}"
            )
        checked += 1
    return CheckResult(
        "2-first-row-statistic",
        True,
        f"first row equals brute-force weak LIS on {checked} c-arrays",
    )


def check_row_bumping() -> CheckResult:
    # x <= y: the second box lands strictly right and weakly above;
    # x > y: strictly below and weakly left
    tableaux = 0
    for t in iter_semistandard(5, 6):
        for x in range(1, 7):
            t1, i = insert(t, x)
            h = len(t1[i - 1])
            for y in range(1, 7):
                t2, j = insert(t1, y)
                k = len(t2[j - 1])
                if x <= y:
                    ok = i >= j and h < k
                else:
                    ok = i < j and h >= k
                if not ok:
                    return CheckResult(
                        "3-row-bumping-lemma",
                        False,
                        f"violated at t={t}, x={x}, y={y}",
                    )
        tableaux += 1
    return CheckResult(
        "3-row-bumping-lemma",
        True,
        f"both clauses hold for {tableaux} tableaux, x, y <= 6",
    )


def check_normal_counts() -> CheckResult:
    from math import comb

    for s in range(1, 6):
        expected = comb(2 * s - 1, s)
        got = len(enumerate_normal((1,) * (2 * s)))
        if got != expected:
            return CheckResult(
                "4-normal-array-counts",
                False,
                f"multilinear with {2 * s} ones: got {got}, want {expected}",
            )
    for q in range(5):
        expected = 1 if q % 2 == 0 else 0
        got = len(enumerate_normal((2,) * q))
        if got != expected:
            return CheckResult(
                "4-normal-array-counts",
                False,
                f"all-twos with q={q}: got {got}, want {expected}",
            )
    return CheckResult(
        "4-normal-array-counts",
        True,
        "multilinear counts 1,3,10,35,126 and all-twos counts 1/0 match",
    )


def check_content_reduction() -> CheckResult:
    by_multiset: dict[tuple[int, ...], int] = {}
    contents = 0
    for counts in product((0, 1, 2), repeat=8):
        n = len(enumerate_normal(counts))
        key = tuple(sorted(counts))
        if key in by_multiset:
            if by_multiset[key] != n:
                return CheckResult(
                    "5-content-permutation-reduction",
                    False,
                    f"permutation changed the count at {counts}",
                )
        else:
            by_multiset[key] = n
        ones = counts.count(1)
        twos = counts.count(2)
        reduced = (1,) * ones + ((2,) if twos % 2 else ())
        if n != len(enumerate_normal(reduced)):
            return CheckResult(
                "5-content-permutation-reduction",
                False,
                f"reduction mismatch at {counts}",
            )
        if twos % 2 and ones > 0 and n != len(enumerate_normal((1,) * ones)):
            return CheckResult(
                "5-content-permutation-reduction",
                False,
                f"two-step reduction mismatch at {counts}",
            )
        if n != dimension(counts):
            return CheckResult(
                "5-content-permutation-reduction",
                False,
                f"dimension formula mismatch at {counts}",
            )
        contents += 1
    return CheckResult(
        "5-content-permutation-reduction",
        True,
        f"{contents} contents: counts permutation-invariant, reduce correctly, "
        "match the dimension formula",
    )


def split_phi(combination) -> Poly:
    """``phi`` of a combination after splitting its doubled values."""
    return phi(
        accumulate(
            (t, coeff) for s, coeff in combination.items() for t in multilinearize(s)
        )
    )


def check_straightening_soundness() -> CheckResult:
    checked = 0
    for m in range(4):
        for word in product(range(1, 7), repeat=2 * m):
            if any(n > 2 for n in Counter(word).values()):
                continue
            s = tuple(zip(word[0::2], word[1::2]))
            if split_phi({s: 1}) != split_phi(straighten(s)):
                return CheckResult(
                    "6a-straightening-phi-soundness",
                    False,
                    f"oracle mismatch on {s}",
                )
            checked += 1
    return CheckResult(
        "6a-straightening-phi-soundness",
        True,
        f"exact polynomial identity for {checked} arrays (m <= 3, entries <= 6)",
    )


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


def check_derived_forms() -> CheckResult:
    for source, expected in DERIVED_FORM_FIXTURES.items():
        got = straighten(source)
        if got != expected:
            return CheckResult(
                "6b-straightening-derived-forms",
                False,
                f"{source}: got {got}, want {expected}",
            )
        if not all(is_normal(t) for t in got):
            return CheckResult(
                "6b-straightening-derived-forms",
                False,
                f"{source}: non-normal output",
            )
    return CheckResult(
        "6b-straightening-derived-forms",
        True,
        f"all {len(DERIVED_FORM_FIXTURES)} collected relation forms reproduced "
        "with coefficients in {-1, -2, -1/2}",
    )


def check_independence_ranks() -> CheckResult:
    expected = {1: 1, 2: 3, 3: 10, 4: 35}
    for m, want in expected.items():
        basis = enumerate_normal((1,) * (2 * m))
        if len(basis) != want or independence_rank(basis) != want:
            return CheckResult(
                "7-independence-ranks",
                False,
                f"2m={2 * m}: rank {independence_rank(basis)} of {len(basis)}, want {want}",
            )
    return CheckResult(
        "7-independence-ranks",
        True,
        "multilinear images have full ranks 1, 3, 10, 35 (exact elimination)",
    )


def check_hilbert_three_way() -> CheckResult:
    for k in (1, 2, 3):
        closed = carini_drensky(k, 8)
        tableaux = hilbert_by_tableaux(k, 8)
        dims = hilbert_by_dimension(k, 8)
        if not (closed == tableaux == dims):
            return CheckResult(
                "8-hilbert-three-way",
                False,
                f"k={k}: {closed!r} vs {tableaux!r} vs {dims!r}",
            )
    spot = SymPoly(
        2,
        {(0, 0): Fraction(1), (1, 1): Fraction(1), (2, 2): Fraction(1)},
        maxdeg=8,
    )
    if carini_drensky(2, 8) != spot:
        return CheckResult(
            "8-hilbert-three-way", False, f"k=2 spot value differs: {carini_drensky(2, 8)!r}"
        )
    return CheckResult(
        "8-hilbert-three-way",
        True,
        "closed form = Schur sum = dimension sum for k <= 3, degree <= 8; "
        "k=2 value is 1 + t1*t2 + t1^2*t2^2",
    )


def check_codimension_series() -> CheckResult:
    coeffs = gamma_coefficients(4)
    if any(coeffs[i] for i in range(1, len(coeffs), 2)):
        return CheckResult(
            "9-codimension-series", False, "odd coefficient is nonzero"
        )
    for m in range(1, 5):
        count = len(enumerate_normal((1,) * (2 * m)))
        if coeffs[2 * m] != count:
            return CheckResult(
                "9-codimension-series",
                False,
                f"z^{2 * m}: series {coeffs[2 * m]}, enumeration {count}",
            )
    if coeffs[0] != 1:
        return CheckResult("9-codimension-series", False, "constant term != 1")
    return CheckResult(
        "9-codimension-series",
        True,
        "series matches enumeration (1, 3, 10, 35) at z^2..z^8; odd terms vanish",
    )


def check_identity_c3() -> CheckResult:
    witness = check_identity("c3", samples=100, gens=12, seed=GRASSMANN_SEED)
    if witness is not None:
        return CheckResult(
            "10a-weak-identity-c3", False, f"failed at sample {witness[0]}"
        )
    return CheckResult(
        "10a-weak-identity-c3",
        True,
        f"100 seeded substitutions vanish (g=12, seed={GRASSMANN_SEED})",
    )


def check_identity_p() -> CheckResult:
    witness = check_identity("p", samples=100, gens=16, seed=GRASSMANN_SEED)
    if witness is not None:
        return CheckResult(
            "10b-weak-identity-p", False, f"failed at sample {witness[0]}"
        )
    return CheckResult(
        "10b-weak-identity-p",
        True,
        f"100 seeded substitutions vanish (g=16, seed={GRASSMANN_SEED})",
    )


def check_non_identity() -> CheckResult:
    witness = check_identity("c2", samples=100, gens=12, seed=GRASSMANN_SEED)
    if witness is None:
        return CheckResult(
            "10c-non-identity-witness",
            False,
            "a bare commutator vanished on all 100 samples",
        )
    return CheckResult(
        "10c-non-identity-witness",
        True,
        f"bare commutator fails at sample {witness[0]} (g=12, seed={GRASSMANN_SEED})",
    )


def check_squared_pair_scalar() -> CheckResult:
    for r in (1, 2):
        if not scalar_check(r):
            return CheckResult(
                "10d-squared-pair-scalar",
                False,
                f"r={r}: evaluation {scalar_evaluation(r)!r}",
            )
    return CheckResult(
        "10d-squared-pair-scalar",
        True,
        "scalars 2 and 4 on the pair-ordered monomial for r=1, 2, exact",
    )


ALL_CHECKS = [
    check_bijection_round_trip,
    check_first_row_statistic,
    check_row_bumping,
    check_normal_counts,
    check_content_reduction,
    check_straightening_soundness,
    check_derived_forms,
    check_independence_ranks,
    check_hilbert_three_way,
    check_codimension_series,
    check_identity_c3,
    check_identity_p,
    check_non_identity,
    check_squared_pair_scalar,
]

CHECK_IDS = [
    "1-bijection-round-trip",
    "2-first-row-statistic",
    "3-row-bumping-lemma",
    "4-normal-array-counts",
    "5-content-permutation-reduction",
    "6a-straightening-phi-soundness",
    "6b-straightening-derived-forms",
    "7-independence-ranks",
    "8-hilbert-three-way",
    "9-codimension-series",
    "10a-weak-identity-c3",
    "10b-weak-identity-p",
    "10c-non-identity-witness",
    "10d-squared-pair-scalar",
]


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
