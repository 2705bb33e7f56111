"""Sparse integer Laurent polynomials in v.

Values are immutable; the coefficient dict never stores zeros.  Rendering is
canonical ("v^-1 + 2 + v^3") so tables can be compared bit for bit.
"""

from __future__ import annotations

from .errors import UsageError


class LaurentPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return LaurentPoly()

    @staticmethod
    def const(c):
        return LaurentPoly({0: c})

    @staticmethod
    def v(exp=1, coeff=1):
        return LaurentPoly({exp: coeff})

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly.const(other)
        if isinstance(other, LaurentPoly):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise UsageError("LaurentPoly power needs an integer k >= 0, got %r" % (k,))
        out = LaurentPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    # -- queries -----------------------------------------------------------

    def coeff(self, k):
        return self.coeffs.get(k, 0)

    def is_zero(self):
        return not self.coeffs

    def is_nonneg(self):
        return all(c >= 0 for c in self.coeffs.values())

    def leq_coeffwise(self, other):
        return (other - self).is_nonneg()

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else "%d*" % abs(c)
                body = "%sv" % mag if e == 1 else "%sv^%d" % (mag, e)
            if not parts:
                parts.append("-" + body if c < 0 else body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    __repr__ = __str__


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.const(1)
V = LaurentPoly.v()
VINV = LaurentPoly.v(-1)
