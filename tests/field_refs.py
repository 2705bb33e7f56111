"""Reference field arithmetic for the tests, outside the library.

`CycRat` is Frac(K) with coordinates in Fraction, the tests' reference for
every value the library carries as an integral K tuple over a positive
integer.  `sign` and `root_sign` are the root-sign oracle: the exact sign
of an element of K as a real number.  `prime_field_ops` gives the element
operations of a `PrimeFieldK` (zero, one, is_zero, sub, mul, inv) for the
tests' Gauss-Jordan ranks, and `reduce` the image of an element of Frac(K)
in it, the reference for the refusal of `LocalCalculus._rank`.  `evaluate` is a polynomial of R at an integer
point.
"""

import math
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from coxkit.errors import (CoxkitError, NotInvertibleError,
                           UnsupportedCharacteristicError)
from coxkit.scalars import _pmod_mulmod, _pmod_powmod


class CycRat:
    """An element of the fraction field Q(theta) of K = Z[theta],
    coordinates in Fraction."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(Fraction(c) for c in coeffs)

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

    def to_integral(self):
        """self as an element of K, an integral coefficient tuple."""
        if not self.is_integral():
            raise CoxkitError("%r is not integral" % (self,))
        return tuple(int(c) for c in self.coeffs)

    def __repr__(self):
        return "CycRat%r" % (self.coeffs,)


def _poly_sign(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


@lru_cache(maxsize=None)
def _theta_bracket(ring, rounds):
    """A rational interval [lo, hi] around theta = 2cos(pi/N), deg K >= 2,
    after `rounds` bisections.  theta is the largest root of p_N, and the
    next one is 2cos(k pi / N) for the least k > 1 coprime to 2N, so the
    start [midpoint of the two, 2] isolates theta."""
    second = max((2 * math.cos(math.pi * k / ring.n) for k in range(2, ring.n + 1)
                  if math.gcd(k, 2 * ring.n) == 1), default=-2.0)
    lo, hi = Fraction((2 * math.cos(math.pi / ring.n) + second) / 2), Fraction(2)
    slo = _poly_sign(ring.poly, lo)
    if slo * _poly_sign(ring.poly, hi) >= 0:
        raise CoxkitError("bracket does not isolate theta for N = %d" % ring.n)
    for _ in range(rounds):
        mid = (lo + hi) / 2
        if _poly_sign(ring.poly, mid) == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def sign(ring, a):
    """Exact sign of the real number a(theta), a in K: a is evaluated over
    ever finer rational intervals around theta until the value interval
    excludes 0.  Zero is the zero tuple."""
    if not any(a[1:]):
        return (a[0] > 0) - (a[0] < 0)
    rounds = 64
    while True:
        lo, hi = _theta_bracket(ring, rounds)
        vlo = vhi = Fraction(0)
        for c in reversed(a):
            cand = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
            vlo, vhi = min(cand) + c, max(cand) + c
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        rounds *= 2


def root_sign(ring, root):
    """+1 / -1 for a positive / negative root, per the sign dichotomy."""
    signs = {sign(ring, c) for c in root}
    if {1, -1} <= signs:
        raise CoxkitError("root with mixed coordinate signs")
    return -1 if -1 in signs else 1


def evaluate(f, point):
    """The Poly f at integer coordinates alpha_s = point[s], in K."""
    total = f.pr.ring.zero()
    for m, c in f.coeffs.items():
        k = math.prod(p ** e for p, e in zip(point, m))
        total = tuple(a + k * b for a, b in zip(total, c))
    return total


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


def reduce(field, coeffs, den):
    """The image in the PrimeFieldK `field` of the element coeffs / den of
    Frac(K), den > 0; refused when p divides den in lowest terms."""
    g = math.gcd(den, *coeffs)
    den //= g
    if den % field.p == 0:
        raise UnsupportedCharacteristicError(
            "denominator divisible by %d in scalar reduction" % field.p)
    inv = pow(den, -1, field.p)
    return tuple(a // g * inv % field.p for a in coeffs)
