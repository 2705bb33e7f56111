"""Exact arithmetic in K = Z[theta], theta = 2cos(pi/N).

The ring parameter N is fixed once per Coxeter system (the lcm of the finite
Coxeter matrix entries; N = 1 gives K = Z).  Elements are integer coefficient
vectors modulo the minimal polynomial p_N of theta, which is obtained from the
cyclotomic polynomial Phi_{2N} through the substitution

    Phi_{2N}(z) = z^(deg/2) * p_N(z + 1/z).

Signs of nonzero elements are decided by evaluating at a shrinking exact
rational interval around theta; zero is decided algebraically (the canonical
coefficient vector is zero).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import math

from .errors import (CoxkitError, NotInvertibleError, RingParameterError,
                     UnsupportedCharacteristicError)


def _poly_divmod(num, den):
    """Exact division of integer polynomials (coefficient lists, low->high)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        c //= den[-1]
        q[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    return q, num


@lru_cache(maxsize=None)
def cyclotomic(n):
    """Coefficients of Phi_n, low->high."""
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            q, rem = _poly_divmod(poly, cyclotomic(d))
            if any(rem):
                raise CoxkitError("Phi_%d does not divide x^%d - 1" % (d, n))
            poly = q
    return tuple(poly)


@lru_cache(maxsize=None)
def minimal_poly(n):
    """p_N for theta = 2cos(pi/N), monic, coefficients low->high."""
    if n == 1:
        return (2, 1)  # theta = -2
    c = list(cyclotomic(2 * n))
    half = (len(c) - 1) // 2
    # Solve Phi_{2N}(z) = z^half * p(z + 1/z) for p, top coefficient down.
    p = [0] * (half + 1)
    for k in range(half, -1, -1):
        coeff = c[half + k]
        p[k] = coeff
        # subtract coeff * z^half (z + 1/z)^k
        for j in range(k + 1):
            c[half + k - 2 * j] -= coeff * math.comb(k, j)
    if any(c) or p[-1] != 1:
        raise CoxkitError("palindromic substitution failed for N = %d" % n)
    return tuple(p)


def _float_root(n, k):
    return 2.0 * math.cos(math.pi * k / n)


class ScalarRing:
    """The ring Z[theta] with theta = 2cos(pi/N)."""

    def __init__(self, n):
        if n < 1:
            raise RingParameterError("N must be >= 1")
        self.n = n
        self.poly = minimal_poly(n)
        self.deg = len(self.poly) - 1
        self._bracket = None
        self._bracket_rounds = 0

    def __repr__(self):
        return "ScalarRing(N=%d)" % self.n

    def __eq__(self, other):
        return isinstance(other, ScalarRing) and other.n == self.n

    def __hash__(self):
        return hash(("ScalarRing", self.n))

    # -- element constructors -------------------------------------------

    def embed(self, k):
        return CycInt(self, (k,) + (0,) * (self.deg - 1))

    def zero(self):
        return self.embed(0)

    def one(self):
        return self.embed(1)

    def theta(self):
        if self.deg == 1:
            # theta is rational: p = x - p[0]... solve linear minimal poly.
            return self.embed(-self.poly[0])
        coeffs = [0] * self.deg
        coeffs[1] = 1
        return CycInt(self, tuple(coeffs))

    def cos_entry(self, m):
        """-2cos(pi/m) as an element of K; m = None means infinity."""
        if m is None or m == math.inf:
            return self.embed(-2)
        if m < 2:
            raise RingParameterError("Coxeter entry must be >= 2 or infinity")
        if self.n % m != 0:
            raise RingParameterError("m = %d does not divide N = %d" % (m, self.n))
        # Dickson recursion: D_0 = 2, D_1 = theta, D_k(2cos x) = 2cos(kx);
        # k = N/m >= 1 as m divides N
        k = self.n // m
        prev, cur = self.embed(2), self.theta()
        for _ in range(k - 1):
            prev, cur = cur, cur * self.theta() - prev
        return -cur

    # -- internals -------------------------------------------------------

    def _reduce(self, coeffs):
        p = self.poly
        for k in range(len(coeffs) - 1, self.deg - 1, -1):
            c = coeffs[k]
            if c:
                coeffs[k] = 0
                for j in range(self.deg):
                    coeffs[k - self.deg + j] -= c * p[j]
        coeffs = coeffs[: self.deg]
        coeffs += [0] * (self.deg - len(coeffs))
        return tuple(coeffs)

    def _mul_coeffs(self, a, b):
        if self.deg == 1:
            return (a[0] * b[0],)
        out = [0] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return self._reduce(out)

    def _theta_bracket(self):
        """Exact rational bracket [lo, hi] isolating theta, p(lo) and p(hi)
        of opposite signs (lo below theta, hi above)."""
        if self._bracket is None:
            if self.deg == 1:
                v = Fraction(-self.poly[0])
                self._bracket = (v, v)
            else:
                # theta = 2cos(pi/N) is the largest root of p_N; the other
                # roots are 2cos(k pi / N) for k > 1 coprime to 2N.
                second = max(
                    (_float_root(self.n, k) for k in range(2, self.n + 1)
                     if math.gcd(k, 2 * self.n) == 1),
                    default=-2.0,
                )
                lo = Fraction(*((_float_root(self.n, 1) + second) / 2.0).as_integer_ratio())
                hi = Fraction(2)
                if self._eval_sign(lo) * self._eval_sign(hi) >= 0:
                    raise CoxkitError("bracket does not isolate theta for N = %d"
                                      % self.n)
                self._bracket = (lo, hi)
        return self._bracket

    def _eval_sign(self, x):
        acc = Fraction(0)
        for c in reversed(self.poly):
            acc = acc * x + c
        return (acc > 0) - (acc < 0)

    def _refine_bracket(self, rounds):
        # rounds counts total bisections since the initial bracket; the
        # stored bracket is reused, never re-refined past what was asked
        lo, hi = self._theta_bracket()
        if lo == hi or rounds <= self._bracket_rounds:
            return lo, hi
        slo = self._eval_sign(lo)
        for _ in range(rounds - self._bracket_rounds):
            mid = (lo + hi) / 2
            sm = self._eval_sign(mid)
            if sm == 0:
                raise CoxkitError("rational root of irreducible p_N")
            if sm == slo:
                lo = mid
            else:
                hi = mid
        self._bracket = (lo, hi)
        self._bracket_rounds = rounds
        return lo, hi


class CycRat:
    """An element of the fraction field Q(theta), coordinates in Fraction.

    Used for linear algebra (ranks, determinants, inverses) where division
    is required; CycInt stays the exact integral representation.
    """

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
        if isinstance(other, CycInt):
            return CycRat.from_cycint(other)
        if isinstance(other, (int, Fraction)):
            return CycRat(self.ring, (other,) + (0,) * (self.ring.deg - 1))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycRat(self.ring, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycRat(self.ring, (-a for a in self.coeffs))

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

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse, via the multiplication matrix."""
        ring = self.ring
        if self.is_zero():
            raise NotInvertibleError("inverse of zero in K")
        d = ring.deg
        # columns: self * theta^j expressed in the power basis
        cols = []
        cur = self
        basis_theta = CycRat(ring, [0, 1][:d] + [0] * (d - 2)) if d > 1 else None
        for _ in range(d):
            cols.append(cur.coeffs)
            if d > 1:
                cur = cur * basis_theta
        # solve M b = e_0 by Gaussian elimination over Q
        aug = [[cols[j][i] for j in range(d)] + [Fraction(1 if i == 0 else 0)]
               for i in range(d)]
        for col in range(d):
            piv = next(r for r in range(col, d) if aug[r][col])
            aug[col], aug[piv] = aug[piv], aug[col]
            pv = aug[col][col]
            aug[col] = [a / pv for a in aug[col]]
            for r in range(d):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
        return CycRat(ring, (aug[i][d] for i in range(d)))

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

    def __hash__(self):
        return hash((self.ring.n, self.coeffs))

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


class CycInt:
    """An element of Z[theta], canonical remainder mod p_N."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(coeffs)

    def _check(self, other):
        if not isinstance(other, CycInt):
            if isinstance(other, int):
                return self.ring.embed(other)
            return NotImplemented
        if other.ring.n != self.ring.n:
            raise RingParameterError("mixed scalar rings N=%d vs N=%d"
                                     % (self.ring.n, other.ring.n))
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self.ring, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycInt(self.ring, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self.ring, self.ring._mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.embed(other)
        return isinstance(other, CycInt) and other.ring.n == self.ring.n \
            and other.coeffs == self.coeffs

    def __hash__(self):
        return hash((self.ring.n, self.coeffs))

    def is_zero(self):
        return not any(self.coeffs)

    def is_integer(self):
        return not any(self.coeffs[1:])

    def as_integer(self):
        if not self.is_integer():
            raise CoxkitError("%r is not an integer" % (self,))
        return self.coeffs[0]

    def sign(self):
        """Exact sign of the real number self(theta)."""
        if self.is_zero():
            return 0
        if self.is_integer():
            c = self.coeffs[0]
            return (c > 0) - (c < 0)
        rounds = 64
        while True:
            lo, hi = self.ring._refine_bracket(rounds)
            vlo, vhi = self._interval_eval(lo, hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            rounds *= 2

    def norm(self):
        """Field norm (determinant of the multiplication-by-self matrix)."""
        ring = self.ring
        d = ring.deg
        if d == 1:
            return self.coeffs[0]
        cols = []
        cur = self.coeffs
        for j in range(d):
            cols.append(cur)
            if j < d - 1:
                shifted = [0] + list(cur)
                cur = ring._reduce(shifted)
        mat = [[Fraction(cols[j][i]) for j in range(d)] for i in range(d)]
        det = Fraction(1)
        for col in range(d):
            piv = next((r for r in range(col, d) if mat[r][col]), None)
            if piv is None:
                return 0
            if piv != col:
                mat[col], mat[piv] = mat[piv], mat[col]
                det = -det
            det *= mat[col][col]
            inv = 1 / mat[col][col]
            for r in range(col + 1, d):
                if mat[r][col]:
                    f = mat[r][col] * inv
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
        if det.denominator != 1:
            raise CoxkitError("norm of an integral element is not an integer")
        return int(det)

    def is_unit(self):
        return abs(self.norm()) == 1

    def _interval_eval(self, lo, hi):
        vlo = vhi = Fraction(0)
        for c in reversed(self.coeffs):
            cand = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
            vlo, vhi = min(cand) + c, max(cand) + c
        return vlo, vhi

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("%d*th" % c if c != 1 else "th")
            else:
                terms.append("%d*th^%d" % (c, i) if c != 1 else "th^%d" % i)
        return " + ".join(terms) if terms else "0"


def _pmod_trim(a, p):
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod_mulmod(a, b, f, p):
    """(a*b) mod f mod p; f monic, coefficient lists low->high."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % p
    n = len(f) - 1
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(n):
                out[k - n + j] = (out[k - n + j] - c * f[j]) % p
    return _pmod_trim(out[:n], p)


def _pmod_powmod(a, e, f, p):
    result = [1]
    base = a
    while e:
        if e & 1:
            result = _pmod_mulmod(result, base, f, p)
        base = _pmod_mulmod(base, base, f, p)
        e >>= 1
    return result


def _pmod_gcd(a, b, p):
    a, b = _pmod_trim(a, p), _pmod_trim(b, p)
    while b:
        inv = pow(b[-1], p - 2, p)
        r = list(a)
        for k in range(len(r) - 1, len(b) - 2, -1):
            c = (r[k] * inv) % p
            if c:
                for j in range(len(b)):
                    r[k - len(b) + 1 + j] = (r[k - len(b) + 1 + j] - c * b[j]) % p
        a, b = b, _pmod_trim(r, p)
    return a


def _irreducible_mod_p(f, p):
    """Rabin's test for the monic polynomial f over F_p."""
    n = len(f) - 1
    if n == 1:
        return True
    x = [0, 1]
    if _pmod_powmod(x, p ** n, f, p) != x:
        return False
    for q in set(_prime_factors(n)):
        g = _pmod_powmod(x, p ** (n // q), f, p)
        diff = _pmod_trim([a - b for a, b in
                           zip(g + [0] * (2 - len(g)), [0, 1])] +
                          list(g[2:]), p)
        if len(_pmod_gcd(f, diff, p)) != 1:
            return False
    return True


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class PrimeFieldK:
    """The residue field F_p[y]/(p_N), for primes where p_N stays irreducible.

    Elements are coefficient tuples (length deg) of ints in [0, p).
    """

    def __init__(self, ring, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise UnsupportedCharacteristicError("characteristic must be prime")
        self.ring = ring
        self.p = p
        self.poly = [c % p for c in ring.poly]
        if not _irreducible_mod_p(self.poly, p):
            raise UnsupportedCharacteristicError(
                "minimal polynomial is reducible mod %d; the scalar ring does "
                "not reduce to a field" % p)
        self.deg = ring.deg

    def zero(self):
        return (0,) * self.deg

    def one(self):
        return (1,) + (0,) * (self.deg - 1)

    def from_cycrat(self, c):
        out = []
        for q in c.coeffs:
            if q.denominator % self.p == 0:
                raise UnsupportedCharacteristicError(
                    "denominator divisible by %d in scalar reduction" % self.p)
            out.append(q.numerator * pow(q.denominator, self.p - 2, self.p) % self.p)
        return tuple(out)

    def is_zero(self, a):
        return not any(a)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        out = _pmod_mulmod(list(a), list(b), self.poly, self.p)
        return tuple(out + [0] * (self.deg - len(out)))

    def inv(self, a):
        if self.is_zero(a):
            raise NotInvertibleError("inverse of zero in F_%d^%d" % (self.p, self.deg))
        out = _pmod_powmod(list(a), self.p ** self.deg - 2, self.poly, self.p)
        return tuple(out + [0] * (self.deg - len(out)))
