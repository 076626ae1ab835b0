"""Exterior-algebra arithmetic and supermatrix verification.

``GrassmannElem`` is an exact element of the exterior algebra on a
fixed number of anticommuting generators ``e1..eg`` over the
rationals; ``M11`` is a 2x2 matrix over it whose diagonal entries are
even and off-diagonal entries odd.  The supertrace of such a matrix is
``a - d``, and the supertrace-zero matrices are the substitution space
for the weak-identity checks: the triple commutator ``[[x1,x2],x3]``
and the product ``[x2,x1][x3,x1][x4,x1]`` vanish on it identically,
while a bare commutator does not.  ``IDENTITIES`` tables the three;
the product and the bare commutator are the arrays ``(2,1)(3,1)(4,1)``
and ``(1,2)``, evaluated like any other array.

Randomized verification draws matrices whose entries mix monomial
degrees (0 and 2 on the diagonal, 1 and 3 off it) with small integer
coefficients from a seeded generator, so failures are reproducible.
"""

from __future__ import annotations

import random
from functools import reduce
from typing import Mapping

from .carray import TwoRowArray, array
from .sparse import Sparse, _is_exact, accumulate, exact_coeff
from .tableaux import _integers


def _wedge(left: dict, right: dict) -> dict:
    """Exterior product of two term dicts, on generator bitmasks.

    A monomial ``k`` has the mask ``m`` with bit ``g`` set for each
    ``g`` in ``k``.  Two monomials multiply to zero when their masks
    meet; otherwise sorting the concatenation ``k1 + k2`` crosses each
    ``h`` of ``k2`` over the generators of ``k1`` above it.  Bit ``b``
    of ``above``, the XOR of ``(1 << g) - 1`` over ``g`` in ``k1``, is
    the parity of the generators of ``k1`` above ``b``, so the sign is
    ``-1`` exactly when ``above & m2`` has an odd number of bits.  The
    set-up per term is proportional to its length, and a sorted key is
    built only for the masks that survive cancellation.
    """
    rights = []
    for k2, c2 in right.items():
        m2 = 0
        for g in k2:
            m2 |= 1 << g
        rights.append((m2, c2, -c2))
    out: dict = {}
    get = out.get
    for k1, c1 in left.items():
        m1 = above = 0
        for g in k1:
            bit = 1 << g
            m1 |= bit
            above ^= bit - 1
        for m2, c2, minus_c2 in rights:
            if m1 & m2:
                continue
            c = c1 * (minus_c2 if (above & m2).bit_count() & 1 else c2)
            key = m1 | m2
            old = get(key)
            out[key] = c if old is None else old + c
    return {_generators(m): c for m, c in out.items() if c}


def _generators(mask: int) -> tuple[int, ...]:
    """The strictly increasing generators of a mask."""
    gens = []
    while mask:
        low = mask & -mask
        gens.append(low.bit_length() - 1)
        mask ^= low
    return tuple(gens)


class GrassmannElem(Sparse):
    """Exterior-algebra element: exact ``int`` or ``Fraction``
    coefficients on strictly increasing generator subsets, multiplied
    on their bitmasks by ``_wedge``."""

    __slots__ = ("gens",)

    _SPACE_NAME = "generator counts"

    def __init__(self, gens: int, terms=None):
        if type(gens) is not int:
            raise TypeError(f"generator count must be an integer: {gens!r}")
        if gens < 0:
            raise ValueError("generator count must be nonnegative")
        self.gens = gens
        pairs = []
        for mono, coeff in (terms or {}).items():
            mono = _integers(mono, "generator indices")
            if any(g < 1 or g > gens for g in mono):
                raise ValueError(f"generator index out of range 1..{gens}: {mono}")
            if any(mono[k] >= mono[k + 1] for k in range(len(mono) - 1)):
                raise ValueError(f"monomial must be strictly increasing: {mono}")
            pairs.append((mono, exact_coeff(coeff)))
        self.terms = accumulate(pairs)

    @classmethod
    def scalar(cls, gens: int, value) -> "GrassmannElem":
        return cls(gens, {(): value})

    @classmethod
    def generator(cls, gens: int, index: int) -> "GrassmannElem":
        return cls(gens, {(index,): 1})

    @classmethod
    def monomial(cls, gens: int, indices, coeff=1) -> "GrassmannElem":
        return cls(gens, {tuple(indices): coeff})

    def _space(self) -> int:
        return self.gens

    def _new(self, terms: dict, other=None) -> "GrassmannElem":
        elem = super()._new(terms)
        elem.gens = self.gens
        return elem

    def __mul__(self, other):
        if not isinstance(other, GrassmannElem):
            return super().__mul__(other)
        self._require_same(other)
        return self._new(_wedge(self.terms, other.terms))

    @staticmethod
    def _sort_key(mono: tuple[int, ...]):
        return len(mono), mono

    @staticmethod
    def _key_text(mono: tuple[int, ...]) -> str:
        return "^".join(f"e{g}" for g in mono)

    def is_even(self) -> bool:
        return all(len(m) % 2 == 0 for m in self.terms)

    def is_odd(self) -> bool:
        return all(len(m) % 2 == 1 for m in self.terms)


class M11:
    """2x2 supermatrix ``[[a, b], [c, d]]``: a, d even; b, c odd."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        for even in (a, d):
            if not even.is_even():
                raise ValueError(f"diagonal entry must be even: {even!r}")
        for odd in (b, c):
            if not odd.is_odd():
                raise ValueError(f"off-diagonal entry must be odd: {odd!r}")
        a._require_same(b)
        a._require_same(c)
        a._require_same(d)
        self.a, self.b, self.c, self.d = a, b, c, d

    @property
    def gens(self) -> int:
        return self.a.gens

    @classmethod
    def zero(cls, gens: int) -> "M11":
        z = GrassmannElem(gens)
        return cls(z, z, z, z)

    @classmethod
    def identity(cls, gens: int) -> "M11":
        one = GrassmannElem.scalar(gens, 1)
        z = GrassmannElem(gens)
        return cls(one, z, z, one)

    @classmethod
    def antidiag(cls, upper: GrassmannElem, lower: GrassmannElem) -> "M11":
        z = GrassmannElem(upper.gens)
        return cls(z, upper, lower, z)

    @classmethod
    def central(cls, value: GrassmannElem) -> "M11":
        z = GrassmannElem(value.gens)
        return cls(value, z, z, value)

    def supertrace(self) -> GrassmannElem:
        return self.a - self.d

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, M11)
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __add__(self, other: "M11") -> "M11":
        return M11(
            self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d
        )

    def __sub__(self, other: "M11") -> "M11":
        return M11(
            self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d
        )

    def __neg__(self) -> "M11":
        return M11(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if _is_exact(other):
            return M11(
                self.a * other, self.b * other, self.c * other, self.d * other
            )
        if not isinstance(other, M11):
            return NotImplemented
        return M11(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __rmul__(self, other):
        if _is_exact(other):
            return self * other
        return NotImplemented

    def __repr__(self) -> str:
        return f"[[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]]"


def commutator(x: M11, y: M11) -> M11:
    return x * y - y * x


def eval_array(s: TwoRowArray, assignment: Mapping[int, M11]) -> M11:
    """Evaluate the product of column commutators at supertrace-zero
    matrices; the empty array gives the identity matrix on the
    assignment's generators, or on 0 when the assignment is empty."""
    s = array(s)
    for v in sorted({x for col in s for x in col}):
        if v not in assignment:
            raise ValueError(f"variable {v} has no assigned matrix")
        if assignment[v].supertrace():
            raise ValueError(f"assigned matrix for variable {v} has nonzero supertrace")
    return _evaluate({s: 1}, assignment)


def _evaluate(f, assignment: Mapping[int, M11]):
    """``f``, a function of the assignment or a combination of arrays,
    at the assignment (``None`` for the empty combination).  An array is
    its column commutators multiplied from the first one; each distinct
    column's commutator is computed once, however many arrays share it."""
    if callable(f):
        return f(assignment)
    commutators: dict = {}
    total = None
    for s, c in f.items():
        for a, b in s:
            if (a, b) not in commutators:
                commutators[a, b] = commutator(assignment[a], assignment[b])
        if s:
            value = reduce(M11.__mul__, [commutators[col] for col in s])
        else:
            gens = next(iter(assignment.values())).gens if assignment else 0
            value = M11.identity(gens)
        value = value if c == 1 else value * c
        total = value if total is None else total + value
    return total


def random_w(gens: int, rng: random.Random) -> M11:
    """Random supertrace-zero matrix with small exact coefficients.

    Diagonal entries mix degrees 0 and 2, off-diagonal entries degrees
    1 and 3; coefficients are integers in -3..3.
    """
    if gens < 3:
        raise ValueError("need at least 3 generators for degree-3 monomials")

    def coeff() -> int:
        return rng.randint(-3, 3)

    def entry(sizes) -> GrassmannElem:
        pairs = [
            (tuple(sorted(rng.sample(range(1, gens + 1), size))), coeff())
            for size in sizes
        ]
        return GrassmannElem(gens, accumulate(pairs))

    diag = entry((0, 2, 2))
    return M11(diag, entry((1, 1, 3)), entry((1, 1, 3)), diag)


# name -> (variables, default generators, polynomial).  A polynomial
# that is a product of column commutators is written as its array and
# evaluated like any combination; only the nested c3 keeps a function.
IDENTITIES = {
    "c3": (3, 12, lambda w: commutator(commutator(w[1], w[2]), w[3])),
    "p": (4, 16, {((2, 1), (3, 1), (4, 1)): 1}),
    "c2": (2, 12, {((1, 2),): 1}),
}


def check_identity(f, samples: int = 100, gens: int = 12, seed: int = 0):
    """Evaluate ``f`` on seeded random supertrace-zero substitutions.

    ``f`` is a name of :data:`IDENTITIES` (``"c2"`` is not an identity)
    or a linear combination mapping arrays to coefficients.  Returns
    ``None`` when every sample vanishes, else ``(sample_index,
    matrices)`` for the first counterexample.  ``samples`` must be
    positive: zero samples would vanish on any ``f``.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if isinstance(f, str):
        if f not in IDENTITIES:
            raise ValueError(f"unknown identity name: {f!r}")
        arity, _, f = IDENTITIES[f]
    else:
        f = {array(s): exact_coeff(c) for s, c in f.items()}
        arity = max((x for s in f for col in s for x in col), default=0)
    rng = random.Random(seed)
    for index in range(samples):
        ws = [random_w(gens, rng) for _ in range(arity)]
        if _evaluate(f, dict(enumerate(ws, start=1))):
            return index, ws
    return None


def verify_weak_identity(f, samples: int = 100, gens: int = 12, seed: int = 0) -> bool:
    """True when all sampled substitutions send ``f`` to the zero matrix."""
    return check_identity(f, samples=samples, gens=gens, seed=seed) is None


def squared_pair_array(r: int) -> TwoRowArray:
    """The normal c-array ``[(r+j, r+1-j) twice, j = 1..r]``: each of r
    commutators squared, on 2r distinct values each used twice."""
    cols = []
    for j in range(1, r + 1):
        cols.extend([(r + j, r + 1 - j)] * 2)
    return tuple(cols)


def scalar_evaluation(r: int) -> M11:
    """Evaluate the squared-pair array at ``w_i = antidiag(u_i, v_i)``
    on 4r distinct generators (``u_i = e_i``, ``v_i = e_{2r+i}``)."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    gens = 4 * r
    assignment = {
        i: M11.antidiag(
            GrassmannElem.generator(gens, i),
            GrassmannElem.generator(gens, 2 * r + i),
        )
        for i in range(1, 2 * r + 1)
    }
    return eval_array(squared_pair_array(r), assignment)


def scalar_check(r: int) -> bool:
    """Exact closed form of the squared-pair evaluation.

    The value is the scalar matrix ``2^r * (u_1^v_1)(u_2^v_2)...(u_2r^v_2r) * I``,
    the reference monomial multiplying each matrix's generator pair in
    matrix order.  (Rewritten on the grouped monomial
    ``u_1..u_2r v_1..v_2r`` the same value carries the coefficient
    ``(-2)^r``.)
    """
    gens = 4 * r
    reference = GrassmannElem.scalar(gens, 2**r)
    for i in range(1, 2 * r + 1):
        reference = reference * GrassmannElem.generator(gens, i)
        reference = reference * GrassmannElem.generator(gens, 2 * r + i)
    return scalar_evaluation(r) == M11.central(reference)
