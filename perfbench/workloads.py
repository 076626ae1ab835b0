"""Seeded inputs, operations and output checks of the four workloads.

A workload is a list of operations.  Each operation calls the layer
functions through the namespace it is given (see ``layers.bind``),
returns its output, and carries a check that runs on that output
outside the timed phase, plus a canonical text of the output for the
digest.  The checks use benchmark-local reference code wherever that
is cheap (normal-array generation, normality, semistandardness), and
the library's own oracle only for the polynomial identities.

Input generation is :func:`build`; it is deterministic in the seed and
is all of the set-up work.  What the benchmark's own reference code
supplies (expected answers, and inputs that are reference output
themselves) is derived by the workload's ``prepare``, run once and
untimed after set-up, or lazily by a check.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import comb
from types import SimpleNamespace
from typing import Any, Callable

from carrays.grassmann import M11, GrassmannElem, random_w
from carrays.oracle import phi
from carrays.straighten import lincomb_to_json, multilinearize

# the oracle as the checks use it: never traced, never timed
ORACLE = SimpleNamespace(phi=phi, multilinearize=multilinearize)


@dataclass(frozen=True)
class Op:
    tag: str
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]
    canon: Callable[[Any], str]


@dataclass(frozen=True)
class Workload:
    ops: list
    # fills in the reference data the operations need before their first run
    prepare: Callable[[], None] = lambda: None
    # extra per-layer figures derived from one pass's outputs
    stats: Callable[[list], dict] = lambda outputs: {}


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


# ---------------------------------------------------------------- reference code


def weak_lis(seq) -> int:
    """Length of the longest weakly increasing subsequence."""
    tails: list = []
    for x in seq:
        i = bisect_right(tails, x)
        if i == len(tails):
            tails.append(x)
        else:
            tails[i] = x
    return len(tails)


def ordering_key(s):
    return tuple(a for a, _ in reversed(s)) + tuple(b for _, b in s)


def entries(s) -> list:
    return sorted(x for col in s for x in col)


def is_normal(s) -> bool:
    return (
        all(a > b for a, b in s)
        and list(s) == sorted(s)
        and max(Counter(entries(s)).values(), default=0) <= 2
        and weak_lis(b for _, b in s) <= 2
    )


def classify(s) -> str:
    if not (all(a > b for a, b in s) and list(s) == sorted(s)):
        return "raw"
    return "normal" if is_normal(s) else "c_array"


def normalize(s):
    sign, cols = 1, []
    for a, b in s:
        if a == b:
            return 0, None
        if a < b:
            a, b, sign = b, a, -sign
        cols.append((a, b))
    return sign, tuple(sorted(cols))


@cache
def normal_arrays(counts) -> list:
    """Every normal c-array of a content, sorted by the array order
    (cached: callers must not change the list).

    Values are placed in increasing order; each occurrence either
    closes a column as its top (over a bottom still waiting) or waits
    as a bottom.  Columns are created in sorted order, so the bottom
    row is built left to right and pruned as soon as it holds a weakly
    increasing triple.
    """
    counts = tuple(counts)
    if any(c > 2 for c in counts):
        return []
    left = [sum(counts[v:]) for v in range(len(counts) + 1)]
    out = []

    def grow(v, waiting, cols, tails):
        if len(waiting) > left[v]:
            return
        if v == len(counts):
            if not waiting:
                out.append(tuple(cols))
            return
        value, c = v + 1, counts[v]
        for tops in range(c + 1):
            if tops == 0:
                choices = {()}
            elif tops == 1:
                choices = {(b,) for b in waiting}
            else:
                choices = {
                    (waiting[i], waiting[j])
                    for i in range(len(waiting))
                    for j in range(i + 1, len(waiting))
                }
            for chosen in sorted(choices):
                grown = list(tails)
                for b in chosen:
                    i = bisect_right(grown, b)
                    grown[i:i + 1] = [b]
                if len(grown) > 2:
                    continue
                rest = list(waiting)
                for b in chosen:
                    rest.remove(b)
                grow(
                    v + 1,
                    tuple(rest) + (value,) * (c - tops),
                    cols + [(value, b) for b in chosen],
                    grown,
                )

    grow(0, (), [], [])
    return sorted(out, key=ordering_key)


def is_semistandard(t) -> bool:
    return (
        all(t[i] and len(t[i]) >= len(t[i + 1]) for i in range(len(t) - 1))
        and all(list(row) == sorted(row) for row in t)
        and all(
            t[i][j] < t[i + 1][j] for i in range(len(t) - 1) for j in range(len(t[i + 1]))
        )
    )


def in_shape_family(t) -> bool:
    """Semistandard of shape ``(2^2p, 1^2q)``."""
    lengths = [len(row) for row in t]
    return (
        is_semistandard(t)
        and all(n <= 2 for n in lengths)
        and len(lengths) % 2 == 0
        and all(lengths[i] == lengths[i + 1] for i in range(0, len(lengths), 2))
    )


def shape_family(n: int) -> list:
    return [
        (2,) * (2 * p) + (1,) * (n - 4 * p)
        for p in range(n // 4 + 1)
        if (n - 4 * p) % 2 == 0
    ]


def normal_combination(comb_, s) -> bool:
    """Every term normal with the content of ``s``; no zero coefficient."""
    want = entries(s)
    return all(
        isinstance(c, Fraction) and c and is_normal(t) and entries(t) == want
        for t, c in comb_.items()
    )


def phi_identity(s, lincomb, fns) -> bool:
    """phi(s) == sum of coeff * phi(term), both sides split into
    multilinear arrays first."""
    lhs = Counter(fns.multilinearize(s))
    rhs: dict = {}
    for term, coeff in lincomb.items():
        for t in fns.multilinearize(term):
            rhs[t] = rhs.get(t, 0) + coeff
    return fns.phi(lhs) == fns.phi(rhs)


def random_array(rng: random.Random, m: int, doubled: int):
    """Raw array of ``m`` columns on values ``1..2m-doubled``, ``doubled``
    of them used twice, no column repeating a value."""
    n = 2 * m - doubled
    twice = set(rng.sample(range(1, n + 1), doubled))
    items = [v for v in range(1, n + 1) for _ in range(2 if v in twice else 1)]
    while True:
        rng.shuffle(items)
        cols = tuple(zip(items[0::2], items[1::2]))
        if all(a != b for a, b in cols):
            return cols


def increasing_bottom(m: int):
    """``(2,1)(4,3)...(2m,2m-1)``: every column triple offends, the
    slowest multilinear array to straighten at each degree."""
    return tuple((2 * i, 2 * i - 1) for i in range(1, m + 1))


def arranged_content(rng: random.Random, ones: int, twos: int) -> tuple:
    """A content with the given numbers of ones and twos, in random
    order."""
    counts = [1] * ones + [2] * twos
    rng.shuffle(counts)
    return tuple(counts)


def present_content(rng: random.Random, counts) -> tuple:
    """The same content on other values: up to two unused values put
    before seeded entries, which leaves the enumeration work unchanged."""
    counts = list(counts)
    for _ in range(rng.randint(0, 2)):
        counts.insert(rng.randrange(len(counts)), 0)
    return tuple(counts)


def content_catalogue(profiles) -> list:
    """One fixed arrangement of each (ones, twos) profile: the positions
    of the twos set how many normal arrays a content has, so drawing
    them per seed would swing the work between seeds."""
    rng = random.Random(CATALOGUE_SEED)
    return [arranged_content(rng, ones, twos) for ones, twos in profiles]


def _lincomb_canon(lincomb) -> str:
    return _dumps(lincomb_to_json(lincomb))


# ---------------------------------------------------------------- straighten-deep

# (degree, doubled values, arrays) of the catalogue.  The catalogue is
# drawn once, from a fixed seed, and the workload seed draws each
# array's presentation (see ``present``), which leaves the straightening
# work unchanged.  Drawing the arrays themselves per seed would swing
# wall_s between seeds: at degree 12 a random array takes 0.02 s to
# 2.5 s, with a standard deviation twice the mean.
DEEP_CLASSES = (
    (8, 0, 60), (8, 1, 30),
    (10, 0, 30), (10, 1, 30), (10, 2, 30),
    (12, 0, 4), (12, 2, 10), (12, 3, 20), (12, 4, 20),
)
CATALOGUE_SEED = 20020505


def catalogue(classes, first=()) -> list:
    rng = random.Random(CATALOGUE_SEED)
    arrays = list(first)
    for degree, doubled, count in classes:
        arrays += [random_array(rng, degree // 2, doubled) for _ in range(count)]
    return arrays


def present(rng: random.Random, s, shuffle: bool = True):
    """The same array up to the order of its values, seen differently:
    an order-preserving relabelling into 1..3n, randomly swapped column
    entries and, with ``shuffle``, shuffled columns."""
    values = sorted(set(entries(s)))
    relabel = dict(zip(values, sorted(rng.sample(range(1, 3 * len(values) + 1), len(values)))))
    cols = [(relabel[a], relabel[b]) if rng.random() < 0.5 else (relabel[b], relabel[a])
            for a, b in s]
    if shuffle:
        rng.shuffle(cols)
    return tuple(cols)


def _straighten_run(s, lib):
    return lib.straighten(s)


def _straighten_check(s, out) -> bool:
    return normal_combination(out, s) and phi_identity(s, out, ORACLE)


def build_straighten_deep(rng: random.Random) -> Workload:
    arrays = catalogue(DEEP_CLASSES, [increasing_bottom(m) for m in (4, 5, 6)])
    ops = []
    for s in arrays:
        s = present(rng, s)
        ops.append(Op(f"deg{2 * len(s)}", partial(_straighten_run, s),
                      partial(_straighten_check, s), _lincomb_canon))
    return Workload(ops)


# ---------------------------------------------------------------- certify

CERTIFY_ARRAYS = 2000
# arrays of m = 0..3 columns in the set of acceptance check 6a
SOUNDNESS_SIZES = (1, 36, 1170, 29520)


def soundness_sample(rng: random.Random, count: int) -> list:
    """``count`` distinct arrays drawn uniformly from the set of
    acceptance check 6a: up to 3 columns on entries 1..6, no value more
    than twice."""
    chosen: dict = {}
    while len(chosen) < count:
        m = rng.choices(range(len(SOUNDNESS_SIZES)), SOUNDNESS_SIZES)[0]
        word = [rng.randint(1, 6) for _ in range(2 * m)]
        if max(Counter(word).values(), default=0) <= 2:
            chosen.setdefault(tuple(zip(word[0::2], word[1::2])), None)
    return list(chosen)


def _certify_run(s, lib):
    cls = lib.classify(s)
    norm = lib.normalize(s)
    lincomb = lib.straighten(s)
    return cls, norm, lincomb, phi_identity(s, lincomb, lib)


def _certify_check(s, out) -> bool:
    cls, norm, lincomb, holds = out
    if not holds or cls != classify(s) or norm != normalize(s):
        return False
    if cls == "normal" and lincomb != {s: 1}:
        return False
    return normal_combination(lincomb, s)


def _certify_canon(out) -> str:
    cls, (sign, carr), lincomb, holds = out
    return _dumps([cls, sign, carr, lincomb_to_json(lincomb), holds])


def _rank_run(bases, m, lib):
    return lib.independence_rank(bases[m])


def _rank_check(bases, m, out) -> bool:
    return out == len(bases[m]) == comb(2 * m - 1, m)


def build_certify(rng: random.Random) -> Workload:
    ops = [
        Op(f"m{len(s)}", partial(_certify_run, s), partial(_certify_check, s),
           _certify_canon)
        for s in soundness_sample(rng, CERTIFY_ARRAYS)
    ]
    # m -> the normal basis of content 1^2m, from the reference generator
    bases: dict = {}
    for m in (4, 5):
        ops.append(Op(f"rank{2 * m}", partial(_rank_run, bases, m),
                      partial(_rank_check, bases, m), str))

    def prepare():
        bases.update((m, normal_arrays((1,) * (2 * m))) for m in (4, 5))

    return Workload(ops, prepare)


# ---------------------------------------------------------------- enumerate-series

# (values used once, values used twice) of each enumerated content
ENUM_PROFILES = (
    (14, 0), (10, 1), (8, 3), (8, 2), (6, 4), (6, 1),
    (4, 5), (4, 2), (2, 6), (0, 6), (0, 7),
)
SSYT_PROFILES = (
    (10, 0), (8, 1), (6, 2), (4, 3), (2, 4), (0, 4),
    (8, 0), (6, 1), (4, 2), (2, 3), (0, 3),
    (6, 0), (4, 1), (2, 2), (0, 2), (4, 0), (2, 1), (2, 0),
)
KRS_WORDS = 60
KRS_LENGTH = 14
# (variables, maximal degree, with the tableau method)
HILBERT_CASES = ((6, 8, True), (9, 8, False))
GAMMA_M = 7


def _enum_run(content, lib):
    return lib.enumerate_normal(content), lib.dimension(content)


def _enum_check(content, out) -> bool:
    arrays, dim = out
    expected = normal_arrays(content)
    return arrays == expected and dim == len(expected)


def _enum_canon(out) -> str:
    arrays, dim = out
    return _dumps([arrays, dim])


def _bijection_run(s, lib):
    t = lib.carray_to_dtableau(s)
    return t, lib.dtableau_to_carray(t), lib.first_row_length(s)


def _bijection_check(s, out) -> bool:
    t, back, first = out
    return (
        back == s
        and in_shape_family(t)
        and sorted(x for row in t for x in row) == entries(s)
        and first == len(t[0]) == weak_lis(b for _, b in s)
    )


def _krs_run(word, lib):
    t, rows = (), []
    for x in word:
        t, i = lib.insert(t, x)
        rows.append(i)
    p, ejected = t, []
    for i in reversed(rows):
        t, x = lib.delete(t, i)
        ejected.append(x)
    return p, rows, ejected, t


def _krs_check(word, out) -> bool:
    p, rows, ejected, rest = out
    return (
        rest == ()
        and ejected == list(reversed(word))
        and is_semistandard(p)
        and sorted(x for row in p for x in row) == sorted(word)
        and sum(len(row) for row in p) == len(rows)
    )


def _ssyt_run(content, lib):
    return sum(
        len(lib.enumerate_ssyt(shape, content))
        for shape in shape_family(sum(content))
    )


def _ssyt_check(content, out) -> bool:
    return out == len(normal_arrays(content))


def _hilbert_run(k, maxdeg, with_tableaux, lib):
    return (
        lib.carini_drensky(k, maxdeg),
        lib.hilbert_by_tableaux(k, maxdeg) if with_tableaux else None,
        lib.hilbert_by_dimension(k, maxdeg),
    )


def _hilbert_check(out) -> bool:
    closed, tableaux, dims = out
    return closed == dims and (tableaux is None or tableaux == dims)


def _hilbert_canon(out) -> str:
    return _dumps([repr(series) for series in out])


def _gamma_run(lib):
    return lib.gamma_coefficients(GAMMA_M)


def _gamma_check(out) -> bool:
    counts = [len(normal_arrays((1,) * (2 * m))) for m in range(GAMMA_M + 1)]
    want = [Fraction(1)] + [
        Fraction(counts[n // 2]) if n % 2 == 0 else Fraction(0)
        for n in range(1, 2 * GAMMA_M + 1)
    ]
    return out == want


def build_enumerate_series(rng: random.Random) -> Workload:
    ops = []
    contents = [present_content(rng, c) for c in content_catalogue(ENUM_PROFILES)]
    for (ones, twos), content in zip(ENUM_PROFILES, contents):
        ops.append(Op(f"enum-{ones}-{twos}", partial(_enum_run, content),
                      partial(_enum_check, content), _enum_canon))
    for _ in range(KRS_WORDS):
        word = [rng.randint(1, 8) for _ in range(KRS_LENGTH)]
        ops.append(Op("krs", partial(_krs_run, word), partial(_krs_check, word), _dumps))
    for content in content_catalogue(SSYT_PROFILES):
        content = present_content(rng, content)
        ops.append(Op("ssyt", partial(_ssyt_run, content), partial(_ssyt_check, content), str))
    for k, maxdeg, with_tableaux in HILBERT_CASES:
        ops.append(Op(f"hilbert{k}", partial(_hilbert_run, k, maxdeg, with_tableaux),
                      _hilbert_check, _hilbert_canon))
    ops.append(Op("gamma", _gamma_run, _gamma_check,
                  lambda out: _dumps([str(c) for c in out])))

    def prepare():
        # one bijection round trip per normal array of each enumerated
        # content; the arrays come from the reference generator, so
        # they are derived here rather than in set-up
        ops.extend(
            Op(f"bijection{2 * len(s)}", partial(_bijection_run, s),
               partial(_bijection_check, s), _dumps)
            for content in contents for s in normal_arrays(content)
        )

    return Workload(ops, prepare)


# ---------------------------------------------------------------- identities

# (identity, expected to vanish, generators, samples, operations per pass)
IDENTITY_CASES = (
    ("c3", True, 12, 1, 40), ("p", True, 16, 1, 40), ("c2", False, 12, 3, 20),
)
MATRIX_GENS = 16
# (degree, doubled values, arrays) of the catalogue, whose arrays the
# seed only presents differently, as in straighten-deep: the number of
# terms an array straightens to sets how many evaluations its check
# costs (1 to 14 at degree 8).  The matrices come from the catalogue
# too, because the number of Grassmann terms a product keeps depends on
# which monomials of the random entries overlap (one degree-8 check
# takes 20 ms to 250 ms); the seed relabels their generators.
MATRIX_CLASSES = (
    (4, 0, 20), (4, 1, 10), (6, 0, 16), (6, 1, 16), (8, 0, 6), (8, 1, 10), (8, 2, 10),
)


def relabel_generators(w: M11, perm: dict) -> M11:
    """``w`` under the automorphism ``e_i -> e_perm[i]`` of the exterior
    algebra: every product keeps its number of terms, so the matrix
    model costs the same and agrees or disagrees as before."""

    def image(x: GrassmannElem) -> GrassmannElem:
        terms = {}
        for mono, coeff in x.terms.items():
            moved = [perm[g] for g in mono]
            inversions = sum(a > b for i, a in enumerate(moved) for b in moved[i + 1:])
            terms[tuple(sorted(moved))] = -coeff if inversions % 2 else coeff
        return GrassmannElem(x.gens, terms)

    return M11(image(w.a), image(w.b), image(w.c), image(w.d))


def _verify_run(name, gens, samples, seed, lib):
    return lib.verify_weak_identity(name, samples=samples, gens=gens, seed=seed)


def _verify_check(expected, out) -> bool:
    return out is expected


def _matrix_run(s, assignment, lib):
    lincomb = lib.straighten(s)
    lhs = lib.eval_array(s, assignment)
    rhs = M11.zero(MATRIX_GENS)
    for term, coeff in lincomb.items():
        rhs = rhs + lib.eval_array(term, assignment) * coeff
    return lincomb, lhs, (lhs - rhs).is_zero()


def _matrix_check(s, out) -> bool:
    lincomb, _, agrees = out
    return agrees and normal_combination(lincomb, s)


def _matrix_canon(out) -> str:
    lincomb, lhs, agrees = out
    return _dumps([lincomb_to_json(lincomb), repr(lhs), agrees])


def _matrix_stats(outputs) -> dict:
    lhs = [out[1] for out in outputs if isinstance(out, tuple) and len(out) == 3]
    return {"grassmann.eval_array.nonzero_ratio": sum(map(bool, lhs)) / len(lhs)}


def build_identities(rng: random.Random) -> Workload:
    ops = []
    for name, vanishes, gens, samples, count in IDENTITY_CASES:
        for _ in range(count):
            seed = rng.randrange(2**32)
            ops.append(Op(name, partial(_verify_run, name, gens, samples, seed),
                          partial(_verify_check, vanishes), str))
    matrices = random.Random(CATALOGUE_SEED)
    for s in catalogue(MATRIX_CLASSES, [increasing_bottom(4)]):
        fixed = [random_w(MATRIX_GENS, matrices) for _ in set(entries(s))]
        # the matrix model multiplies the columns in the order given,
        # and the size of the partial products depends on that order
        s = present(rng, s, shuffle=False)
        generators = list(range(1, MATRIX_GENS + 1))
        rng.shuffle(generators)
        perm = dict(zip(range(1, MATRIX_GENS + 1), generators))
        # the i-th smallest value gets the i-th catalogue matrix
        assignment = {v: relabel_generators(w, perm)
                      for v, w in zip(sorted(set(entries(s))), fixed)}
        ops.append(Op(f"matrix{2 * len(s)}", partial(_matrix_run, s, assignment),
                      partial(_matrix_check, s), _matrix_canon))
    return Workload(ops, stats=_matrix_stats)


WORKLOADS = {
    "straighten-deep": build_straighten_deep,
    "certify": build_certify,
    "enumerate-series": build_enumerate_series,
    "identities": build_identities,
}


def build(name: str, seed: int) -> Workload:
    """All inputs of one workload, from its seed alone."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
