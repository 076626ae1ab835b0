"""Dimension formula, Hilbert series and the codimension series.

The multigraded dimension of the normal-array span depends only on how
many values occur once (``l = 2s``) and twice (``q``) in the content:
it is ``C(2s-1, s)`` when ``l > 0``, ``1`` when ``l = 0`` and ``q`` is
even, and ``0`` otherwise (including odd total degree and any value
occurring more than twice).

The Hilbert series in ``k`` variables is computed two independent
ways and must agree coefficient by coefficient:

* the closed half-sum ``(1/2) * sum_i [e_i^2 + (-1)^i e_i(t^2)]`` over
  elementary symmetric polynomials, and
* the sum of Schur polynomials over the shape family
  ``(2^2p, 1^2q)``, each Schur polynomial obtained by enumerating
  semistandard tableaux.

The codimension generating function is the even series
``(1/2) * (1 + (1 - 4z^2)^(-1/2))``, expanded with the generalized
binomial series; its ``z^{2m}`` coefficient is ``C(2m, m)/2`` for
``m >= 1``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial
from typing import Iterable

from .sparse import Sparse, accumulate, exact_coeff
from .tableaux import _integers, enumerate_ssyt, shape as validate_shape, trim_content

Exponents = tuple[int, ...]


class SymPoly(Sparse):
    """Exact polynomial in ``t1..tk`` truncated at a total degree.

    ``maxdeg`` is ``None`` for untruncated values; arithmetic truncates
    to the smaller of the operands' bounds.
    """

    __slots__ = ("nvars", "maxdeg")

    _SPACE_NAME = "variable counts"

    def __init__(self, nvars: int, terms=None, maxdeg: int | None = None):
        if type(nvars) is not int:
            raise TypeError(f"variable count must be an integer: {nvars!r}")
        self.nvars = nvars
        self.maxdeg = maxdeg
        pairs = []
        for expo, coeff in (terms or {}).items():
            expo = _integers(expo, "exponents")
            if len(expo) != self.nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector: {expo}")
            if maxdeg is None or sum(expo) <= maxdeg:
                pairs.append((expo, exact_coeff(coeff)))
        self.terms = accumulate(pairs)

    @classmethod
    def constant(cls, nvars: int, value, maxdeg: int | None = None) -> "SymPoly":
        return cls(nvars, {(0,) * nvars: value}, maxdeg=maxdeg)

    @classmethod
    def monomial(cls, nvars: int, exponents, coeff=1) -> "SymPoly":
        return cls(nvars, {tuple(exponents): coeff})

    def _space(self) -> int:
        return self.nvars

    def _new(self, terms: dict, other: "SymPoly | None" = None) -> "SymPoly":
        """Truncate to ``maxdeg``, the smaller bound of the two operands."""
        maxdeg = self.maxdeg
        if other is not None and other.maxdeg is not None:
            maxdeg = other.maxdeg if maxdeg is None else min(maxdeg, other.maxdeg)
        if maxdeg is not None:
            terms = {e: c for e, c in terms.items() if sum(e) <= maxdeg}
        result = super()._new(terms)
        result.nvars, result.maxdeg = self.nvars, maxdeg
        return result

    def __mul__(self, other):
        if not isinstance(other, SymPoly):
            return super().__mul__(other)
        self._require_same(other)
        pairs = (
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )
        return self._new(accumulate(pairs), other)

    @staticmethod
    def _sort_key(expo: Exponents):
        return sum(expo), expo

    @staticmethod
    def _key_text(expo: Exponents) -> str:
        return "*".join(
            f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}" for i, e in enumerate(expo) if e
        )

    def truncate(self, maxdeg: int) -> "SymPoly":
        return SymPoly(self.nvars, self.terms, maxdeg=maxdeg)

    def coefficient(self, exponents) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def substitute_squares(self) -> "SymPoly":
        """Replace every variable by its square."""
        bound = None if self.maxdeg is None else 2 * self.maxdeg
        return SymPoly(
            self.nvars,
            {tuple(2 * e for e in expo): c for expo, c in self.terms.items()},
            maxdeg=bound,
        )


def elementary_symmetric(i: int, k: int) -> SymPoly:
    """Sum of all products of ``i`` distinct variables out of ``k``."""
    if not 0 <= i <= k:
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    terms: dict[Exponents, Fraction] = {}
    for subset in combinations(range(k), i):
        expo = [0] * k
        for idx in subset:
            expo[idx] = 1
        terms[tuple(expo)] = Fraction(1)
    return SymPoly(k, terms)


def _elementary_square(i: int, k: int) -> SymPoly:
    """``e_i^2`` in ``k`` variables, built without a polynomial product.

    Every monomial has exponents in ``{0, 1, 2}``.  One with ``l`` ones
    and ``(2i - l)/2`` twos arises from the pairs of ``i``-subsets that
    both hold the twos and split the ones evenly, so its coefficient is
    ``C(l, l/2)``.
    """
    terms: dict[Exponents, Fraction] = {}
    for twos in range(max(0, 2 * i - k), i + 1):
        ones = 2 * (i - twos)
        coeff = Fraction(comb(ones, ones // 2))
        for doubled in combinations(range(k), twos):
            rest = [x for x in range(k) if x not in doubled]
            for single in combinations(rest, ones):
                expo = [0] * k
                for idx in doubled:
                    expo[idx] = 2
                for idx in single:
                    expo[idx] = 1
                terms[tuple(expo)] = coeff
    return SymPoly(k, terms)


def carini_drensky(k: int, maxdeg: int) -> SymPoly:
    """Hilbert series as the elementary-symmetric half-sum, truncated."""
    if k < 1:
        raise ValueError("need at least one variable")
    total = SymPoly(k)
    # e_i^2 and e_i(t^2) are homogeneous of degree 2i: larger i only
    # adds terms the truncation drops
    for i in range(min(k, maxdeg // 2) + 1):
        e = elementary_symmetric(i, k)
        term = _elementary_square(i, k) + (-1) ** i * e.substitute_squares()
        total = total + term
    return (total * Fraction(1, 2)).truncate(maxdeg)


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def schur(shape, k: int, maxdeg: int) -> SymPoly:
    """Schur polynomial from semistandard tableau enumeration:
    the sum of ``t^content`` over english-semistandard tableaux of the
    given shape with entries at most ``k``."""
    sh = validate_shape(shape)
    n = sum(sh)
    if n > maxdeg:
        return SymPoly(k, maxdeg=maxdeg)
    terms: dict[Exponents, Fraction] = {}
    for content in _compositions(n, k):
        count = len(enumerate_ssyt(sh, content))
        if count:
            terms[content] = Fraction(count)
    return SymPoly(k, terms, maxdeg=maxdeg)


def double_hook_free_shapes(maxdeg: int) -> list[tuple[int, ...]]:
    """The shape family ``(2^2p, 1^2q)`` with ``4p + 2q <= maxdeg``."""
    shapes = []
    for p in range(maxdeg // 4 + 1):
        for q in range((maxdeg - 4 * p) // 2 + 1):
            shapes.append((2,) * (2 * p) + (1,) * (2 * q))
    return sorted(shapes, key=lambda sh: (sum(sh), sh))


def hilbert_by_tableaux(k: int, maxdeg: int) -> SymPoly:
    """Hilbert series as the Schur sum over the shape family
    ``(2^2p, 1^2q)``, truncated."""
    if k < 1:
        raise ValueError("need at least one variable")
    total = SymPoly(k, maxdeg=maxdeg)
    for sh in double_hook_free_shapes(maxdeg):
        total = total + schur(sh, k, maxdeg)
    return total


def dimension(content) -> int:
    """Multigraded dimension of the normal-array span for a content."""
    counts = trim_content(content)
    n = sum(counts)
    if n % 2:
        return 0
    if any(c > 2 for c in counts):
        return 0
    ones = sum(1 for c in counts if c == 1)
    twos = sum(1 for c in counts if c == 2)
    if ones == 0:
        # the all-twos case collapses to a single array when paired evenly
        return 1 if twos % 2 == 0 else 0
    return comb(ones - 1, ones // 2)


def hilbert_by_dimension(k: int, maxdeg: int) -> SymPoly:
    """Hilbert series directly from the dimension formula."""
    if k < 1:
        raise ValueError("need at least one variable")
    terms: dict[Exponents, Fraction] = {}
    for content in product((0, 1, 2), repeat=k):
        if sum(content) > maxdeg:
            continue
        d = dimension(content)
        if d:
            terms[content] = Fraction(d)
    return SymPoly(k, terms, maxdeg=maxdeg)


def gamma_coefficients(max_m: int) -> list[Fraction]:
    """Codimension series coefficients up to ``z^{2 max_m}``.

    Expands ``(1/2) * (1 + (1 - 4z^2)^(-1/2))`` with the generalized
    binomial series; odd coefficients vanish and the ``z^{2m}``
    coefficient equals ``C(2m, m)/2`` for ``m >= 1``, with 1 at
    ``z^0``.
    """
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    coeffs = [Fraction(0)] * (2 * max_m + 1)
    for n in range(max_m + 1):
        binom = Fraction(1)
        for j in range(n):
            binom *= Fraction(-1, 2) - j
        binom /= factorial(n)
        coeffs[2 * n] = binom * Fraction(-4) ** n / 2
    coeffs[0] += Fraction(1, 2)
    return coeffs
