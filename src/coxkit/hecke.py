"""Hecke algebra over Z[v, 1/v]: standard basis h_x, bar involution, and the
canonical (Kazhdan-Lusztig) basis b_x with its polynomials h_{y,x}.

Conventions: h_x b_s = h_{xs} + v h_x (ascent) / h_{xs} + 1/v h_x (descent);
b_s = h_s + v; bar(h_x) is the product of h_s^{-1} = h_s + (v - 1/v) along a
reduced word of x.
"""

from __future__ import annotations

from .errors import CapError, CoxkitError
from .laurent import LaurentPoly, ONE, V, VINV

_V_MINUS_VINV = V - VINV


class HeckeElt:
    """Finitely supported map Element -> LaurentPoly."""

    __slots__ = ("ball", "coeffs")

    def __init__(self, ball, coeffs=None):
        self.ball = ball
        self.coeffs = {x: p for x, p in (coeffs or {}).items() if p}

    @staticmethod
    def std(ball, x, p=ONE):
        return HeckeElt(ball, {x: p})

    @staticmethod
    def unit(ball):
        return HeckeElt.std(ball, ball.identity)

    def __eq__(self, other):
        return isinstance(other, HeckeElt) and other.ball is self.ball \
            and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for x, p in other.coeffs.items():
            out[x] = out.get(x, LaurentPoly.zero()) + p
        return HeckeElt(self.ball, out)

    def __sub__(self, other):
        return self + other.scale(LaurentPoly.const(-1))

    def scale(self, p):
        return HeckeElt(self.ball, {x: q * p for x, q in self.coeffs.items()})

    def coeff(self, x):
        return self.coeffs.get(x, LaurentPoly.zero())

    def is_zero(self):
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs, key=Element_shortlex)

    # -- multiplication ------------------------------------------------------

    def mul_hs(self, s, inverse=False):
        """Right multiply by h_s (or h_s^{-1} = h_s + (v - 1/v))."""
        ball = self.ball
        out = {}
        for x, p in self.coeffs.items():
            xs = ball.right(x, s)
            if xs is None:
                raise CapError("Hecke product leaves the group ball")
            _acc(out, xs, p)
            if xs.length < x.length:
                _acc(out, x, p * -_V_MINUS_VINV)
        if inverse:
            for x, p in self.coeffs.items():
                _acc(out, x, p * _V_MINUS_VINV)
        return HeckeElt(ball, out)

    def mul_bs(self, s):
        """Right multiply by b_s = h_s + v."""
        ball = self.ball
        out = {}
        for x, p in self.coeffs.items():
            xs = ball.right(x, s)
            if xs is None:
                raise CapError("Hecke product leaves the group ball")
            _acc(out, xs, p)
            _acc(out, x, p * (V if xs.length > x.length else VINV))
        return HeckeElt(ball, out)

    def mul_b_word(self, word):
        h = self
        for s in word:
            h = h.mul_bs(s)
        return h

    def bar(self):
        """The bar involution: v -> 1/v, h_x -> (h_{x^{-1}})^{-1}."""
        out = HeckeElt(self.ball)
        for x, p in self.coeffs.items():
            term = HeckeElt.unit(self.ball)
            for s in x.word:
                term = term.mul_hs(s, inverse=True)
            out = out + term.scale(p.bar())
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join("(%s)h[%r]" % (p, x) for x, p in
                          sorted(self.coeffs.items(), key=lambda kv: Element_shortlex(kv[0])))


def Element_shortlex(x):
    return (x.length, x.word)


def _acc(out, x, p):
    q = out.get(x)
    out[x] = p if q is None else q + p


class KLTable:
    """Memoized canonical-basis expansions b_x = sum_y h_{y,x} h_y."""

    def __init__(self, ball):
        self.ball = ball
        self._b = {ball.identity: HeckeElt.unit(ball)}

    def b(self, x):
        got = self._b.get(x)
        if got is None:
            got = _selfdual_inductive(self, x, HeckeElt.std(self.ball, x))
            self._b[x] = got
        return got

    def h_poly(self, y, x):
        return self.b(x).coeff(y)

    def mu(self, y, x):
        return self.h_poly(y, x).coeff(1)

    def descent_for_induction(self, x):
        """The largest-index right descent (deterministic induction choice)."""
        return max(self.ball.right_descents(x))

    def mul_bs(self, elt, s):
        return elt.mul_bs(s)

    def table_rows(self, elements=None):
        """(y, x, h_{y,x}) rows for all pairs with nonzero polynomial."""
        elements = elements if elements is not None else self.ball.elements
        rows = []
        for x in sorted(elements, key=Element_shortlex):
            bx = self.b(x)
            for y in bx.support():
                rows.append((y, x, bx.coeff(y)))
        return rows


def _selfdual_inductive(table, x, std_x):
    """Shared canonical-basis induction (also used by the parabolic tables).

    Forms b_{xs} b_s for the largest-index descent s and strips the
    bar-symmetric completions of all v^{<=0} tails of lower terms.
    """
    s = table.descent_for_induction(x)
    y = table.ball.right(x, s)
    cand = table.mul_bs(table.b(y), s)
    lower = sorted((z for z in cand.coeffs if z != x),
                   key=lambda z: (-z.length, z.word))
    for z in lower:
        tail = cand.coeff(z).truncate_nonpos()
        if tail.is_zero():
            continue
        corr = LaurentPoly({0: tail.coeff(0)})
        for e, c in tail.coeffs.items():
            if e < 0:
                corr = corr + LaurentPoly({e: c, -e: c})
        cand = cand - table.b(z).scale(corr)
    if cand.coeff(x) != ONE:
        raise CoxkitError("canonical-basis induction lost the unit top term")
    return cand
