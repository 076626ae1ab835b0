"""Exact sparse combinations: the one place that stores, adds and
cancels terms.

A combination is a dict from keys (monomials, exponent vectors, arrays)
to nonzero coefficients; a coefficient that cancels is removed, so two
combinations are equal exactly when their dicts are.  ``accumulate`` is
the add-and-cancel step every combination in the package goes through.
``Sparse`` is the arithmetic shared by ``Poly``, ``SymPoly`` and
``GrassmannElem``; a subclass says only how its constructor validates,
which space its elements live in and how a key sorts and prints.
``Sparse`` adds, negates and scales; ``SymPoly`` and ``GrassmannElem``
each own their product of two elements (exponent vectors add,
generator bitmasks wedge), and ``Poly`` is only ever added and
scaled.  Every constructor takes its coefficients through
``exact_coeff``, so a coefficient is an ``int`` or a ``Fraction`` and
an exact integer stays ``int``.
"""

from __future__ import annotations

from fractions import Fraction


def accumulate(pairs, into=None) -> dict:
    """Add ``(key, coeff)`` pairs into ``into`` (a new dict when it is
    ``None``) and drop every key whose coefficient cancels to zero."""
    out = {} if into is None else into
    get = out.get
    for key, coeff in pairs:
        old = get(key)
        if old is not None:
            coeff = old + coeff
        if coeff:
            out[key] = coeff
        elif old is not None:
            del out[key]
    return out


def _is_exact(value) -> bool:
    """True for an ``int`` (not a ``bool``) or a ``Fraction``: the
    values a coefficient or a scalar factor may take."""
    return type(value) is int or isinstance(value, Fraction)


def exact_coeff(value):
    """``value`` itself when it is an ``int`` or a ``Fraction``; a
    ``TypeError`` for anything else, ``bool`` and ``float`` included, so
    no inexact or accidental value becomes a coefficient."""
    if _is_exact(value):
        return value
    raise TypeError(
        f"coefficient must be an int or a Fraction, not {type(value).__name__}:"
        f" {value!r}"
    )


class Sparse:
    """Exact linear combination of keys with nonzero ``int`` or
    ``Fraction`` coefficients in ``terms``.

    Subclasses supply ``_sort_key`` and ``_key_text`` for printing;
    those living in a space (a number of variables or generators)
    override ``_space``, ``_SPACE_NAME`` and ``_new``.  Multiplication
    here is by an exact scalar only; a subclass that multiplies two
    elements overrides ``__mul__``.
    """

    __slots__ = ("terms",)

    _SPACE_NAME = ""
    _sort_key = None

    def _space(self):
        """What two operands must share; elements of different spaces
        neither compare equal nor combine."""
        return None

    def _require_same(self, other: "Sparse") -> None:
        if self._space() != other._space():
            raise ValueError(
                f"{self._SPACE_NAME} differ: {self._space()} vs {other._space()}"
            )

    def _new(self, terms: dict, other: "Sparse | None" = None) -> "Sparse":
        """Wrap already clean ``terms`` as a result of an operation on
        ``self`` (and ``other``, for a binary one)."""
        result = object.__new__(type(self))
        result.terms = terms
        return result

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._space() == other._space()
            and self.terms == other.terms
        )

    def __add__(self, other):
        self._require_same(other)
        return self._new(accumulate(other.terms.items(), dict(self.terms)), other)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if _is_exact(other):
            return self._new(
                {k: other * c for k, c in self.terms.items()} if other else {}
            )
        return NotImplemented

    def __rmul__(self, other):
        if _is_exact(other):
            return self * other
        return NotImplemented

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=self._sort_key):
            coeff = self.terms[key]
            body = self._key_text(key)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        return " + ".join(parts).replace("+ -", "- ")
