"""Polynomial rings attached to a Coxeter system.

R is the symmetric algebra over K = Z[theta] on the simple roots alpha_s
(each of degree 2), carrying the reflection action of W and the Demazure
operators.  R_I is the quotient killing {alpha_s : s in I}; Q_I additionally
inverts the images of roots not supported on I.  Fractions keep their
denominators as formal multisets of roots (no gcd reduction); equality is
tested by cross-multiplication.

Q_I is hash-consed per PolyRing: the ring holds exactly one shared QCoeff
per distinct structure (numerator terms and sorted denominator roots), each
with a small integer index, and memoizes products by the ordered index pair
of their operands.  A certificate sweep repeats a few hundred distinct
products tens of thousands of times, so Poly multiplication runs only on a
memo miss.  Sums are rare and not memoized; each comes back as the ring's
shared value all the same.
"""

from __future__ import annotations

from .errors import CoxkitError, NotInvertibleError, RingParameterError


class PolyRing:
    """Context object: the ring R for one Coxeter system (one ball)."""

    def __init__(self, ball):
        self.ball = ball
        self.rank = ball.rank
        self.ring = ball.ring
        self._zero_mono = (0,) * self.rank
        self._action_memo = {}
        # Q_I, hash-consed: structure -> the shared QCoeff, and the ordered
        # index pair of two factors -> their shared product
        self._qi_table = {}
        self._qi_mul = {}
        # the first shared value, the unit of Q_I: identities and unit rule
        # terms share it, and a product with it is the other factor
        self.unit = QCoeff(self, self.one())

    # -- constructors ------------------------------------------------------

    def zero(self):
        return Poly(self, {})

    def const(self, c):
        if isinstance(c, int):
            c = self.ring.embed(c)
        return Poly(self, {self._zero_mono: c})

    def one(self):
        return self.const(1)

    def alpha(self, s):
        mono = tuple(1 if t == s else 0 for t in range(self.rank))
        return Poly(self, {mono: self.ring.one()})

    def linear(self, coords):
        """The linear form sum coords[t] * alpha_t, coords in K."""
        out = {}
        for t, c in enumerate(coords):
            if any(c):
                mono = tuple(1 if u == t else 0 for u in range(self.rank))
                out[mono] = c
        return Poly(self, out)

    # -- W-action and Demazure operators ------------------------------------

    def w_action(self, w, f):
        """Substitute alpha_s -> w(alpha_s) throughout f."""
        if w.length == 0:
            return f
        images = self._action_memo.get(w.idx)
        if images is None:
            images = [self.linear(self.ball.root_image(w, s)) for s in range(self.rank)]
            self._action_memo[w.idx] = images
        out = self.zero()
        for mono, c in f.coeffs.items():
            term = self.const(c)
            for s, k in enumerate(mono):
                for _ in range(k):
                    term = term * images[s]
            out = out + term
        return out

    def s_action(self, s, f):
        return self.w_action(self.ball.product_of_word((s,)), f)

    def demazure(self, s, f):
        """partial_s(f) = (f - s(f)) / alpha_s; the quotient is exact."""
        g = f - self.s_action(s, f)
        out = {}
        for mono, c in g.coeffs.items():
            if mono[s] == 0:
                raise CoxkitError("Demazure numerator not divisible by alpha_s")
            lowered = mono[:s] + (mono[s] - 1,) + mono[s + 1:]
            out[lowered] = c
        return Poly(self, out)

    # -- the quotient R_I -----------------------------------------------------

    def reduce_mod_I(self, f, I):
        """Image of f in R_I: kill every monomial touching a variable in I."""
        if not I:
            return f
        out = {m: c for m, c in f.coeffs.items() if not any(m[s] for s in I)}
        return Poly(self, out)

    def reduce_root_mod_I(self, coords, I):
        """Image of a root's coordinate vector in R_I; must stay nonzero."""
        zero = self.ring.zero()
        out = tuple(zero if s in I else c for s, c in enumerate(coords))
        if not any(map(any, out)):
            raise NotInvertibleError("root supported inside I is not invertible in Q_I")
        return out

    def qi_const(self, f):
        return QCoeff(self, f, ())


class Poly:
    """Element of R: map from exponent monomials to K coefficients."""

    __slots__ = ("pr", "coeffs")

    def __init__(self, pr, coeffs):
        self.pr = pr
        self.coeffs = {m: c for m, c in coeffs.items() if any(c)}

    def _ring_of(self, other):
        """The scalar ring of self and other, which must share it and the
        rank: two rings of one degree, or two ranks, would mix silently."""
        pr, opr = self.pr, other.pr
        if opr is not pr and (opr.ring != pr.ring or opr.rank != pr.rank):
            raise RingParameterError("mixed polynomial rings: %r rank %d vs %r rank %d"
                                     % (pr.ring, pr.rank, opr.ring, opr.rank))
        return pr.ring

    def __add__(self, other):
        add = self._ring_of(other).add
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            got = out.get(m)
            out[m] = c if got is None else add(got, c)
        return Poly(self.pr, out)

    def __neg__(self):
        neg = self.pr.ring.neg
        return Poly(self.pr, {m: neg(c) for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = self.pr.const(other)
        ring = self._ring_of(other)
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = ring.mul(c1, c2)
                got = out.get(m)
                out[m] = c if got is None else ring.add(got, c)
        return Poly(self.pr, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Poly) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return all(not any(m) for m in self.coeffs)

    def constant(self):
        return self.coeffs.get(self.pr._zero_mono, self.pr.ring.zero())

    def lead(self):
        """(monomial, coefficient) at the lexicographically largest monomial."""
        m = max(self.coeffs)
        return m, self.coeffs[m]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        ring = self.pr.ring
        parts = []
        for m in sorted(self.coeffs, reverse=True):
            c = self.coeffs[m]
            vars_ = "*".join(
                ("a%d" % (s + 1)) + ("" if k == 1 else "^%d" % k)
                for s, k in enumerate(m) if k)
            body = ring.format(c) if not vars_ else (
                vars_ if c == ring.one() else "(%s)*%s" % (ring.format(c), vars_))
            parts.append(body)
        return " + ".join(parts)


class QCoeff:
    """num / (product of root images): an element of Q_I, num over K.

    The denominator is a formal tuple of root coordinate vectors (each
    already reduced mod I and nonzero), sorted as tuples.  The
    constructor sorts what it is given; products, sums over one denominator
    and negations keep the order by construction (_make), and a product
    sorts only when both factors have roots.

    Values are never mutated, and each PolyRing shares them: every QCoeff
    it makes, by the constructor or by arithmetic, is its one object for
    that structure, numbered `idx` in order of creation (PolyRing.unit is
    0, and a product with it is the other factor).  Products are memoized
    on the ring by the ordered index pair.  Values equal in Q_I but written
    differently stay distinct objects, and equality cross-multiplies: it is
    semantic, so the class defines __eq__ without __hash__ and is
    unhashable.
    """

    __slots__ = ("pr", "num", "den", "idx")

    def __new__(cls, pr, num, den=()):
        return QCoeff._make(pr, num, tuple(sorted(map(tuple, den))))

    @staticmethod
    def _make(pr, num, den):
        """The ring's shared num / den, for a den that is already a sorted
        tuple of tuples; the only place a QCoeff is created."""
        if not num.coeffs:
            den = ()
        key = (frozenset(num.coeffs.items()), den)
        table = pr._qi_table
        q = table.get(key)
        if q is None:
            q = object.__new__(QCoeff)
            q.pr, q.num, q.den, q.idx = pr, num, den, len(table)
            table[key] = q
        return q

    def den_poly(self):
        return _root_product(self.pr, self.den)

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return QCoeff._make(self.pr, self.num + other.num, self.den)
        # cancel the common denominator roots, multiset-wise
        common, rest1, rest2 = _multiset_split(self.den, other.den)
        num = self.num * _root_product(self.pr, rest2) \
            + other.num * _root_product(self.pr, rest1)
        return QCoeff(self.pr, num, common + rest1 + rest2)

    def __neg__(self):
        return QCoeff._make(self.pr, -self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        pr = self.pr
        if isinstance(other, Poly):
            other = QCoeff(pr, other)
        unit = pr.unit
        if self is unit:
            return other
        if other is unit:
            return self
        memo = pr._qi_mul
        key = (self.idx, other.idx)
        got = memo.get(key)
        if got is None:
            den = self.den
            if not den:
                den = other.den
            elif other.den:
                den = tuple(sorted(den + other.den))
            got = memo[key] = QCoeff._make(pr, self.num * other.num, den)
        return got

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, QCoeff):
            return NotImplemented
        common, rest1, rest2 = _multiset_split(self.den, other.den)
        return self.num * _root_product(self.pr, rest2) \
            == other.num * _root_product(self.pr, rest1)

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        return "(%r) / (%r)" % (self.num, self.den_poly())


def _multiset_split(den1, den2):
    """(common, den1-only, den2-only) as sorted tuples."""
    common = []
    rest1 = list(den1)
    rest2 = list(den2)
    for r in den1:
        if r in rest2:
            rest1.remove(r)
            rest2.remove(r)
            common.append(r)
    return tuple(common), tuple(rest1), tuple(rest2)


def _root_product(pr, roots):
    out = pr.one()
    for r in roots:
        out = out * pr.linear(r)
    return out
