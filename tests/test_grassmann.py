import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from carrays import grassmann
from carrays.grassmann import (
    IDENTITIES,
    GrassmannElem,
    M11,
    check_identity,
    commutator,
    eval_array,
    random_w,
    scalar_check,
    scalar_evaluation,
    squared_pair_array,
    verify_weak_identity,
)
from carrays.straighten import straighten


def e(gens, *indices):
    return GrassmannElem.monomial(gens, indices)


def _merge_monomials(m1, m2):
    """Merge two sorted generator tuples; sign counts the crossings.
    The tuple-merging product the mask kernel replaced, kept as its
    reference."""
    out = []
    sign = 1
    i = j = 0
    while i < len(m1) and j < len(m2):
        if m1[i] == m2[j]:
            return None, 0
        if m1[i] < m2[j]:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
            if (len(m1) - i) % 2:
                sign = -sign
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out), sign


def reference_product(x, y):
    terms = {}
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            key, sign = _merge_monomials(k1, k2)
            if sign:
                terms[key] = terms.get(key, 0) + sign * c1 * c2
    return {k: c for k, c in terms.items() if c}


def random_elem(rng, gens, coeffs):
    """Up to six terms of degree 0..5 on ``1..gens``; zero terms give
    the zero element, and few generators force overlaps."""
    terms = {}
    for _ in range(rng.randint(0, 6)):
        size = rng.randint(0, min(5, gens))
        terms[tuple(sorted(rng.sample(range(1, gens + 1), size)))] = rng.choice(coeffs)
    return GrassmannElem(gens, terms)


def test_mask_product_matches_merge_reference():
    rng = random.Random(20)
    pools = ([-3, -1, 1, 2], [Fraction(-1, 2), Fraction(3, 7), 2, -1])
    for trial in range(600):
        gens = rng.randint(0, 10)
        integral = trial % 2 == 0
        x, y, z = (random_elem(rng, gens, pools[trial % 2]) for _ in range(3))
        for left, right in ((x, y), (y, x), (x, GrassmannElem(gens)),
                            (GrassmannElem.scalar(gens, -2), y), (x, x)):
            product_ = left * right
            assert product_.terms == reference_product(left, right), (left, right)
            assert all(
                all(a < b for a, b in zip(k, k[1:])) for k in product_.terms
            )
            if integral:
                assert all(type(c) is int for c in product_.terms.values())
        assert (x * y) * z == x * (y * z)


def test_int_coefficients_stay_int():
    x = GrassmannElem(4, {(1,): 2, (2, 3): Fraction(1, 2), (): Fraction(3)})
    assert type(x.terms[(1,)]) is int
    assert x.terms[(2, 3)] == Fraction(1, 2) and x.terms[()] == 3
    for elem in (
        GrassmannElem.scalar(4, 1),
        GrassmannElem.generator(4, 2),
        GrassmannElem.monomial(4, (1, 2), -3),
        GrassmannElem.monomial(4, (1, 2)) * 5,
    ):
        assert all(type(c) is int for c in elem.terms.values())
    w = random_w(6, random.Random(4))
    assert all(type(c) is int for x in (w.a, w.b, w.c, w.d) for c in x.terms.values())


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False, "1/2", None])
def test_grassmann_rejects_inexact_coefficients(bad):
    with pytest.raises(TypeError):
        GrassmannElem(2, {(): bad})
    with pytest.raises(TypeError):
        GrassmannElem.scalar(2, bad)
    with pytest.raises(TypeError):
        GrassmannElem.monomial(2, (1,), bad)


@pytest.mark.parametrize("bad", [True, 0.5])
def test_scalar_products_reject_inexact_factors(bad):
    x = GrassmannElem.scalar(2, 3)
    with pytest.raises(TypeError):
        x * bad
    with pytest.raises(TypeError):
        bad * x
    with pytest.raises(TypeError):
        M11.identity(2) * bad


def test_wedge_basic():
    assert e(4, 1) * e(4, 2) == e(4, 1, 2)
    assert e(4, 2) * e(4, 1) == -1 * e(4, 1, 2)
    assert (e(4, 1) * e(4, 1)).is_zero()


def test_wedge_generator_mismatch():
    with pytest.raises(ValueError):
        e(4, 1) * e(5, 1)
    with pytest.raises(ValueError):
        e(4, 1) + e(5, 1)


def test_grassmann_repr():
    x = GrassmannElem(
        4, {(1, 2): -1, (): 2, (3,): Fraction(1, 2), (1, 2, 4): 1, (2,): -3}
    )
    assert repr(x) == "2 - 3*e2 + 1/2*e3 - e1^e2 + e1^e2^e4"
    assert repr(x - x) == "0" and (x - x).terms == {}
    assert repr(random_w(4, random.Random(1))) == (
        "[[-2 - 3*e1^e2, -3*e2 + 3*e4], [2*e1 - e4 - e1^e2^e3, -2 - 3*e1^e2]]"
    )


def test_parity():
    assert e(4, 1, 2).is_even()
    assert e(4, 3).is_odd()
    assert GrassmannElem(4).is_even() and GrassmannElem(4).is_odd()


def test_m11_parity_enforced():
    gens = 4
    with pytest.raises(ValueError):
        M11(e(gens, 1), e(gens, 2), e(gens, 3), GrassmannElem.scalar(gens, 1))


def test_supertrace():
    ident = M11.identity(4)
    assert ident.supertrace().is_zero()
    a = M11.antidiag(e(4, 1), e(4, 2))
    sq = a * a
    assert sq.a == e(4, 1, 2) and sq.d == -1 * e(4, 1, 2)
    assert sq.supertrace() == 2 * e(4, 1, 2)
    assert (a + a).supertrace() == a.supertrace() + a.supertrace()


def test_eval_array_single_commutator():
    gens = 4
    w1 = M11.antidiag(e(gens, 1), e(gens, 2))
    w2 = M11.antidiag(e(gens, 3), e(gens, 4))
    value = eval_array(((2, 1),), {1: w1, 2: w2})
    expected = commutator(w2, w1)
    assert value == expected
    assert value.b.is_zero() and value.c.is_zero()
    assert value.a == value.d  # central scalar matrix


def test_eval_array_empty_is_identity():
    assert eval_array((), {}) == M11.identity(0)
    w = random_w(5, random.Random(2))
    assert eval_array((), {1: w}) == M11.identity(w.gens)


def test_eval_array_requires_supertrace_zero():
    gens = 4
    bad = M11(
        GrassmannElem.scalar(gens, 1),
        e(gens, 1),
        e(gens, 2),
        GrassmannElem(gens),
    )
    with pytest.raises(ValueError):
        eval_array(((2, 1),), {1: bad, 2: bad})
    with pytest.raises(ValueError):
        eval_array(((2, 1),), {1: M11.identity(gens)})


def test_commutators_are_central():
    rng = random.Random(7)
    for _ in range(100):
        w1, w2, w3 = (random_w(12, rng) for _ in range(3))
        k = commutator(w1, w2)
        assert commutator(k, w3).is_zero()


def test_central_diagonal_part_is_invisible():
    rng = random.Random(11)
    gens = 8
    for _ in range(10):
        ws = {i: random_w(gens, rng) for i in (1, 2, 3, 4)}
        s = ((2, 1), (4, 3))
        base = eval_array(s, ws)
        shifted = {}
        for i, w in ws.items():
            center = GrassmannElem.scalar(gens, rng.randint(-3, 3))
            mono = tuple(sorted(rng.sample(range(1, gens + 1), 2)))
            center = center + GrassmannElem.monomial(gens, mono, rng.randint(-3, 3))
            shifted[i] = w + M11.central(center)
        assert eval_array(s, shifted) == base


def cached_eval(s, assignment, cache, gens):
    acc = M11.identity(gens)
    for a, b in s:
        key = (a, b)
        if key not in cache:
            cache[key] = commutator(assignment[a], assignment[b])
        acc = acc * cache[key]
    return acc


def test_straightening_matches_matrix_model():
    # eval(S) - sum coeff * eval(term) vanishes on shared random draws
    rng = random.Random(3)
    gens = 8
    assignments = []
    for _ in range(20):
        assignments.append({i: random_w(gens, rng) for i in (1, 2, 3, 4)})

    for word in product(range(1, 5), repeat=4):
        s = tuple(zip(word[0::2], word[1::2]))
        result = straighten(s)
        for assignment in assignments:
            cache = {}
            value = cached_eval(s, assignment, cache, gens)
            for term, coeff in result.items():
                value = value - cached_eval(term, assignment, cache, gens) * coeff
            assert value.is_zero(), (s, result)


def test_degree_6_straightening_matches_matrix_model():
    # every raw multilinear array on 1..6 against one seeded draw; at
    # least half of the left-hand sides must be nonzero, or the
    # agreement would say little
    gens = 10
    rng = random.Random(6)
    assignment = {i: random_w(gens, rng) for i in range(1, 7)}
    cache = {}
    normal = {}
    nonzero = 0
    for word in permutations(range(1, 7)):
        s = tuple(zip(word[0::2], word[1::2]))
        lhs = cached_eval(s, assignment, cache, gens)
        nonzero += bool(lhs)
        rhs = M11.zero(gens)
        for term, coeff in straighten(s).items():
            if term not in normal:
                normal[term] = cached_eval(term, assignment, cache, gens)
            rhs = rhs + normal[term] * coeff
        assert lhs == rhs, s
    assert nonzero >= 360, nonzero


def test_verify_weak_identity_c3():
    assert verify_weak_identity("c3", samples=50, gens=12, seed=5)


def test_verify_weak_identity_p():
    assert verify_weak_identity("p", samples=25, gens=16, seed=5)


def test_bare_commutator_is_not_an_identity():
    witness = check_identity("c2", samples=100, gens=12, seed=5)
    assert witness is not None
    index, matrices = witness
    assert len(matrices) == 2


def test_lincomb_difference_verification():
    s = ((3, 1), (3, 1), (4, 2))
    diff = {s: Fraction(1)}
    for term, coeff in straighten(s).items():
        diff[term] = diff.get(term, Fraction(0)) - coeff
    assert verify_weak_identity(diff, samples=10, gens=10, seed=1)


def test_identity_table_pins_variables_and_generators():
    assert {name: entry[:2] for name, entry in IDENTITIES.items()} == {
        "c3": (3, 12),
        "p": (4, 16),
        "c2": (2, 12),
    }


def test_identity_table_polynomials():
    # c3 and p vanish on supertrace-zero matrices, so the table is also
    # compared on general supermatrices, where every value is nonzero
    def bracket(x, y):
        return x * y - y * x

    def written_out(w):
        return {
            "c3": bracket(bracket(w[1], w[2]), w[3]),
            "p": bracket(w[2], w[1]) * bracket(w[3], w[1]) * bracket(w[4], w[1]),
            "c2": bracket(w[1], w[2]),
        }

    rng = random.Random(9)
    for _ in range(10):
        w = {i: random_w(8, rng) for i in (1, 2, 3, 4)}
        general = {i: M11(x.a, x.b, x.c, random_w(8, rng).d) for i, x in w.items()}
        expected, expected_general = written_out(w), written_out(general)
        for name in ("p", "c2"):
            (s,) = IDENTITIES[name][2]
            assert eval_array(s, w) == expected[name]
        assert IDENTITIES["c3"][2](w) == expected["c3"]
        for name, (_, _, polynomial) in IDENTITIES.items():
            value = grassmann._evaluate(polynomial, general)
            assert value and value == expected_general[name]


def test_combination_computes_each_column_once(monkeypatch):
    # the 13 arrays of S - straighten(S) share 16 distinct columns
    s = ((5, 1), (6, 2), (7, 3), (8, 4))
    diff = {s: 1}
    for term, coeff in straighten(s).items():
        diff[term] = diff.get(term, 0) - coeff
    assert len(diff) == 13
    calls = []

    def counted(x, y):
        calls.append(1)
        return x * y - y * x

    monkeypatch.setattr(grassmann, "commutator", counted)
    assert check_identity(diff, samples=1, gens=16, seed=0) is None
    assert len(calls) == 16


def test_unknown_identity_name():
    with pytest.raises(ValueError):
        check_identity("c4")


def test_squared_pair_array_layout():
    assert squared_pair_array(1) == ((2, 1), (2, 1))
    assert squared_pair_array(2) == ((3, 2), (3, 2), (4, 1), (4, 1))


def test_scalar_evaluation_exact_values():
    # grouped-monomial coefficients: (-2)^r on e1..e_{4r}
    value = scalar_evaluation(1)
    full = GrassmannElem.monomial(4, (1, 2, 3, 4), -2)
    assert value == M11.central(full)

    value = scalar_evaluation(2)
    full = GrassmannElem.monomial(8, tuple(range(1, 9)), 4)
    assert value == M11.central(full)


def test_scalar_check():
    assert scalar_check(0)
    assert scalar_check(1)
    assert scalar_check(2)
    assert scalar_check(3)


@st.composite
def grassmann_strategy(draw, gens=5, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        size = draw(st.integers(0, gens))
        mono = tuple(sorted(draw(st.permutations(range(1, gens + 1)))[:size]))
        terms[mono] = terms.get(mono, 0) + draw(st.integers(-3, 3))
    return GrassmannElem(5, terms)


@given(x=grassmann_strategy(), y=grassmann_strategy(), z=grassmann_strategy())
@settings(max_examples=60, deadline=None)
def test_wedge_ring_axioms(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(x=grassmann_strategy(), y=grassmann_strategy())
@settings(max_examples=60, deadline=None)
def test_odd_elements_anticommute(x, y):
    x_odd = GrassmannElem(5, {m: c for m, c in x.terms.items() if len(m) % 2})
    y_odd = GrassmannElem(5, {m: c for m, c in y.terms.items() if len(m) % 2})
    assert x_odd * y_odd == -1 * (y_odd * x_odd)
