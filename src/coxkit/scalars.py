"""Exact arithmetic in K = Z[theta], theta = 2cos(pi/N).

The ring parameter N is fixed once per Coxeter system (the lcm of the finite
Coxeter matrix entries m >= 4, since -2cos(pi/m) is 0 or -1 for m = 2, 3;
N = 1 gives K = Z).  Elements are integer coefficient
vectors modulo the minimal polynomial p_N of theta, which is obtained from the
cyclotomic polynomial Phi_{2N} through the substitution

    Phi_{2N}(z) = z^(deg/2) * p_N(z + 1/z).

An element of K is a tuple of `deg` ints, its coefficients in the basis
1, theta, ..., theta^(deg-1); ScalarRing is the one place that does
arithmetic on it (add, sub, neg, mul, norm, is_unit).  Zero is the zero
tuple.  An element of Frac(K) is an integral coefficient tuple over a
positive integer, and r in K is inverted as r * adj = N(r)
(ScalarRing.adjugate), so no fraction field is built.  Every rank, norm and
inverse is one integer elimination: a matrix over K becomes an integer
matrix in the regular representation (ScalarRing.regular), ranked over Q by
fraction-free bareiss and over F_p by rank_mod_p; PrimeFieldK only ranks
integral matrices over F_p[y]/(p_N), reducing their entries mod p.
"""

from __future__ import annotations

from functools import lru_cache
import math
import operator

from .errors import CoxkitError, RingParameterError, UnsupportedCharacteristicError


def _poly_divmod(num, den):
    """Exact division of integer polynomials (coefficient lists, low->high)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1] != 0:
            raise CoxkitError("non-exact polynomial division")
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


class ScalarRing:
    """The ring Z[theta] with theta = 2cos(pi/N)."""

    def __init__(self, n):
        if n < 1:
            raise RingParameterError("N must be >= 1")
        self.n = n
        self.poly = minimal_poly(n)
        self.deg = len(self.poly) - 1

    def __repr__(self):
        return "ScalarRing(N=%d)" % self.n

    def __eq__(self, other):
        return isinstance(other, ScalarRing) and other.n == self.n

    def __hash__(self):
        return hash(("ScalarRing", self.n))

    # -- element constructors -------------------------------------------

    def embed(self, k):
        return (k,) + (0,) * (self.deg - 1)

    def zero(self):
        return self.embed(0)

    def one(self):
        return self.embed(1)

    def theta(self):
        if self.deg == 1:
            # theta is rational: p = x - p[0]... solve linear minimal poly.
            return self.embed(-self.poly[0])
        return (0, 1) + (0,) * (self.deg - 2)

    def cos_entry(self, m):
        """-2cos(pi/m) as an element of K; m = None means infinity.  The
        entries 0 (m = 2) and -1 (m = 3) are integers, in every ring; m >= 4
        must divide N."""
        if m is None or m == math.inf:
            return self.embed(-2)
        if m < 2:
            raise RingParameterError("Coxeter entry must be >= 2 or infinity")
        if m <= 3:
            return self.embed(2 - m)
        if self.n % m != 0:
            raise RingParameterError("m = %d does not divide N = %d" % (m, self.n))
        # Dickson recursion: D_0 = 2, D_1 = theta, D_k(2cos x) = 2cos(kx);
        # k = N/m >= 1 as m divides N
        k = self.n // m
        theta = self.theta()
        prev, cur = self.embed(2), theta
        for _ in range(k - 1):
            prev, cur = cur, self.sub(self.mul(cur, theta), prev)
        return self.neg(cur)

    # -- arithmetic on elements -------------------------------------------

    def add(self, a, b):
        return tuple(map(operator.add, a, b))

    def sub(self, a, b):
        return tuple(map(operator.sub, a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        if self.deg == 1:
            return (a[0] * b[0],)
        out = [0] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return self._reduce(out)

    def norm(self, a):
        """Field norm: the determinant of multiplication by a."""
        if self.deg == 1:
            return a[0]
        return self.adjugate(a)[1]

    def is_unit(self, a):
        return abs(self.norm(a)) == 1

    def format(self, a):
        """a as a polynomial in th = theta, e.g. '1 + 2*th + th^2'."""
        terms = [str(a[0])] if a[0] else []
        for i, c in enumerate(a[1:], 1):
            if c:
                power = "th" if i == 1 else "th^%d" % i
                terms.append(power if c == 1 else "%d*%s" % (c, power))
        return " + ".join(terms) or "0"

    def mul_columns(self, coeffs):
        """The columns r, r theta, ..., r theta^(deg-1) of the integer matrix
        of multiplication by r, given by its integral coefficients."""
        cols = [tuple(coeffs)]
        for _ in range(self.deg - 1):
            cols.append(self._reduce([0] + list(cols[-1])))  # times theta
        return cols

    def adjugate(self, coeffs):
        """(adj, det) for r in K given by its integral coefficients, with
        r * adj == det: det is the norm N(r), the determinant of the matrix
        M of multiplication by r, and adj the first column of M's
        adjugate, its cofactors along the first row, so M adj = det e_0.
        One fraction-free (Bareiss) elimination of [M | e_0] gives det as
        its last pivot, signed by the row swaps; back-substitution then
        solves U adj = det b for the triangular U and the column b it
        leaves, and each division is exact because adj is integral.  r = 0
        gives det = 0."""
        coeffs = tuple(coeffs)
        d = self.deg
        if d == 1:
            return (1,), coeffs[0]
        if not any(coeffs):
            return self.zero(), 0
        cols = self.mul_columns(coeffs)
        rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(d)]
        prev, sign = 1, 1
        for k in range(d):
            # K is a field and r != 0, so M is invertible: a pivot exists
            piv = next(i for i in range(k, d) if rows[i][k])
            if piv != k:
                rows[k], rows[piv] = rows[piv], rows[k]
                sign = -sign
            prow = rows[k][k + 1:]
            p = rows[k][k]
            for i in range(k + 1, d):
                row = rows[i]
                a = row[k]
                # columns <= k of the rows below are never read again
                row[k + 1:] = [(p * x - a * y) // prev
                               for x, y in zip(row[k + 1:], prow)]
            prev = p
        det = sign * prev
        adj = [0] * d
        for i in range(d - 1, -1, -1):
            row = rows[i]
            rest = sum(row[j] * adj[j] for j in range(i + 1, d))
            adj[i] = (det * row[d] - rest) // row[i]
        return tuple(adj), det

    def regular(self, rows):
        """The integer matrix of a matrix over K (integral coefficient
        tuples) in the regular representation: each entry r becomes the
        deg x deg block of multiplication by r.  It is a ring map, so the
        rank over Q is deg times the rank over Frac(K), and the determinant
        is the norm of the determinant over K.  At deg 1 each block is the
        entry itself."""
        out = []
        for row in rows:
            blocks = [self.mul_columns(c) for c in row]
            out.extend([col[i] for cols in blocks for col in cols]
                       for i in range(self.deg))
        return out

    def rank(self, rows):
        """Rank over Frac(K) of a matrix of integral coefficient tuples."""
        return bareiss(self.regular(rows))[0] // self.deg

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


def bareiss(rows):
    """(rank, det) of an integer matrix by fraction-free Bareiss elimination
    (Math. Comp. 22, 1968).  After k pivots every entry left below them is
    a (k+1)-minor, so the division by the previous pivot is exact (Sylvester's
    identity).  The last pivot is the leading minor of the rows in pivot
    order, so det, the determinant of a square matrix, is that pivot times
    the sign of the order, and zero below full rank or when the matrix is
    not square.

    A row whose leading entry is zero would only be scaled, by p / prev;
    the scalings telescope, so each row is kept as it was last computed,
    with the pivot d it was computed at (1 at the start), and its true
    entries are the kept ones times prev / d.  Its next update divides by
    d instead of prev, and a pivot row is scaled once when it is taken."""
    n = len(rows)
    square = all(len(row) == n for row in rows)
    rows = [(1, row) for row in rows if any(row)]
    rank, prev, sign = 0, 1, 1
    while rows and rows[0][1]:
        cands = [i for i, (_, row) in enumerate(rows) if row[0]]
        if not cands:
            rows = [(d, row[1:]) for d, row in rows]
            continue
        # the sparsest pivot row fills in the fewest entries below it
        k = min(cands, key=lambda i: len(rows[i][1]) - rows[i][1].count(0))
        d, piv = rows.pop(k)   # moved up past k rows
        if k % 2:
            sign = -sign
        rank += 1
        if d != prev:
            piv = [x * prev // d for x in piv]
        p, prow = piv[0], piv[1:]
        new_rows = []
        for d, row in rows:
            a = row[0]
            if not a:
                new_rows.append((d, row[1:]))   # nonzero, as row was
                continue
            new = [(p * x - a * y) // d for x, y in zip(row[1:], prow)]
            if any(new):
                new_rows.append((p, new))
        rows = new_rows
        prev = p
    if not square or rank < n:
        return rank, 0
    return rank, sign * prev


def rank_mod_p(rows, p):
    """Rank over F_p of an integer matrix, by forward (row-echelon)
    elimination on its entries mod p."""
    rows = [r for r in ([x % p for x in row] for row in rows) if any(r)]
    rank = 0
    while rows and rows[0]:
        cands = [i for i, row in enumerate(rows) if row[0]]
        if not cands:
            rows = [row[1:] for row in rows]
            continue
        piv = rows.pop(min(cands, key=lambda i: len(rows[i]) - rows[i].count(0)))
        rank += 1
        inv = pow(piv[0], -1, p)
        prow = [y * inv % p for y in piv[1:]]
        new_rows = []
        for row in rows:
            a = row[0]
            new = [(x - a * y) % p for x, y in zip(row[1:], prow)] if a else row[1:]
            if any(new):
                new_rows.append(new)
        rows = new_rows
    return rank


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


# Miller-Rabin to the first 13 prime bases decides primality below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin, exact for n < _MR_BOUND."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeFieldK:
    """The residue field F_p[y]/(p_N), for primes where p_N stays irreducible.

    It ranks matrices of integral K coefficient tuples over it, their
    entries reduced mod p; callers scale away denominators first.
    """

    def __init__(self, ring, p):
        if p >= _MR_BOUND:
            raise UnsupportedCharacteristicError(
                "characteristic must be below %d, the bound up to which the "
                "primality test is proven" % _MR_BOUND)
        if not _is_prime(p):
            raise UnsupportedCharacteristicError("characteristic must be prime")
        self.ring = ring
        self.p = p
        if not _irreducible_mod_p([c % p for c in ring.poly], p):
            raise UnsupportedCharacteristicError(
                "minimal polynomial is reducible mod %d; the scalar ring does "
                "not reduce to a field" % p)
        self.deg = ring.deg

    def rank(self, rows):
        """Rank over the field of a matrix of integral K coefficient
        tuples: rank_mod_p of its regular-representation blocks
        (ScalarRing.regular), divided by the residue degree."""
        return rank_mod_p(self.ring.regular(rows), self.p) // self.deg
