"""Reference field arithmetic for the tests, outside the library.

`CycRat` is Frac(K) with coordinates in Fraction, the tests' reference for
every value the library carries as an integral K tuple over a positive
integer.  `prime_field_ops` gives the element operations of a `PrimeFieldK`
(zero, one, is_zero, sub, mul, inv) for the tests' Gauss-Jordan ranks.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

from coxkit.errors import CoxkitError, NotInvertibleError
from coxkit.scalars import CycInt, _pmod_mulmod, _pmod_powmod


class CycRat:
    """An element of the fraction field Q(theta) of K = Z[theta],
    coordinates in Fraction."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @staticmethod
    def from_cycint(a):
        return CycRat(a.ring, a.coeffs)

    def _coerce(self, other):
        if isinstance(other, CycRat):
            return other
        if isinstance(other, int):
            return CycRat(self.ring, (other,) + (0,) * (self.ring.deg - 1))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycRat(self.ring, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycRat(self.ring, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ring = self.ring
        out = [Fraction(0)] * (2 * ring.deg - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    if y:
                        out[i + j] += x * y
        # reduce mod p_N over Q
        p = ring.poly
        for k in range(len(out) - 1, ring.deg - 1, -1):
            c = out[k]
            if c:
                out[k] = Fraction(0)
                for j in range(ring.deg):
                    out[k - ring.deg + j] -= c * p[j]
        return CycRat(ring, out[: ring.deg])

    def inverse(self):
        """With self = a / den for integral a, 1/self = den * adj / N(a)
        by ScalarRing.adjugate."""
        if self.is_zero():
            raise NotInvertibleError("inverse of zero in K")
        den = math.lcm(*(c.denominator for c in self.coeffs))
        adj, det = self.ring.adjugate(c.numerator * (den // c.denominator)
                                      for c in self.coeffs)
        return CycRat(self.ring, (Fraction(den * a, det) for a in adj))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ring.n == other.ring.n and self.coeffs == other.coeffs

    def is_zero(self):
        return not any(self.coeffs)

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs)

    def to_cycint(self):
        if not self.is_integral():
            raise CoxkitError("%r is not integral" % (self,))
        return CycInt(self.ring, (int(c) for c in self.coeffs))

    def __repr__(self):
        return "CycRat%r" % (self.coeffs,)


def prime_field_ops(field):
    """The element operations of the PrimeFieldK `field`, F_p[y]/(p_N), on
    coefficient tuples of ints in [0, p)."""
    p, deg = field.p, field.deg
    poly = [c % p for c in field.ring.poly]

    def pad(a):
        return tuple(a + [0] * (deg - len(a)))

    def inv(a):
        if not any(a):
            raise NotInvertibleError("inverse of zero in F_%d^%d" % (p, deg))
        return pad(_pmod_powmod(list(a), p ** deg - 2, poly, p))

    return SimpleNamespace(
        zero=lambda: (0,) * deg,
        one=lambda: (1,) + (0,) * (deg - 1),
        is_zero=lambda a: not any(a),
        sub=lambda a, b: tuple((x - y) % p for x, y in zip(a, b)),
        mul=lambda a, b: pad(_pmod_mulmod(list(a), list(b), poly, p)),
        inv=inv)
