"""The Hecke algebra over Z[v, 1/v] is the antispherical module N at I = {}.

An element is NElt(ball, frozenset(), coeffs) in the standard basis h_x, and
its canonical (Kazhdan-Lusztig) basis is ParabolicKLTable(ball, frozenset()).
This module holds what only the Hecke algebra has: right multiplication by
h_s, and the bar involution, which N inherits through the quotient map.

Conventions: h_x h_s = h_{xs} (ascent) / h_{xs} + (1/v - v) h_x (descent);
b_s = h_s + v; bar(h_x) is the product of h_s^{-1} = h_s + (v - 1/v) along a
reduced word of x.
"""

from __future__ import annotations

from .errors import CapError, UsageError
from .laurent import V, VINV
from .parabolic import NElt, ParabolicKLTable, _acc, project_pi

_V_MINUS_VINV = V - VINV


def KLTable(ball):
    """The Kazhdan-Lusztig basis b_x = sum_y h_{y,x} h_y of the ball."""
    return ParabolicKLTable(ball, frozenset())


def mul_hs(h, s, inverse=False):
    """h h_s, or h h_s^{-1} = h h_s + (v - 1/v) h, for h in the Hecke algebra."""
    if h.I:
        raise UsageError("h_s acts on the Hecke algebra (I = {}) only")
    ball = h.ball
    out = {}
    for x, p in h.coeffs.items():
        xs = ball.right(x, s)
        if xs is None:
            raise CapError("Hecke product leaves the group ball")
        _acc(out, xs, p)
        if xs.length < x.length:
            _acc(out, x, p * -_V_MINUS_VINV)
        if inverse:
            _acc(out, x, p * _V_MINUS_VINV)
    return h._make(out)


def bar(h):
    """The bar involution: v -> 1/v, h_x -> (h_{x^{-1}})^{-1}."""
    out = h._make({})
    for x, p in h.coeffs.items():
        term = NElt.unit(h.ball, h.I)
        for s in x.word:
            term = mul_hs(term, s, inverse=True)
        out = out + term.scale(p.bar())
    return out


def n_bar(n):
    """Bar involution on N (or M): lift each n_x to h_x, bar, project back."""
    out = n._make({})
    for x, p in n.coeffs.items():
        barred = bar(NElt.std(n.ball, frozenset(), x, p))
        out = out + project_pi(barred, n.I, spherical=n.spherical)
    return out
