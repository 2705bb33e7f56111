"""The bar involution of the Hecke algebra and of its modules M and N, for
the tests, outside the library: criterion 1's independent route to the
canonical bases, which the library's induction never takes.

The Hecke algebra is N at I = {}, so an element is an NElt with empty I in
the standard basis h_x.  Conventions: h_x h_s = h_{xs} (ascent) / h_{xs} +
(1/v - v) h_x (descent); bar(h_x) is the product of h_s^{-1} = h_s + (v -
1/v) along a reduced word of x.  N and M inherit bar through the quotient
map `project_pi`.
"""

from ball_refs import coset_decompose
from coxkit.errors import CapError, UsageError
from coxkit.laurent import LaurentPoly, V, VINV
from coxkit.parabolic import MElt, NElt

_V_MINUS_VINV = V - VINV


def _acc(out, x, p):
    q = out.get(x)
    out[x] = p if q is None else q + p


def laurent_bar(p):
    """The involution v -> v^-1 of Z[v, v^-1]."""
    return LaurentPoly({-e: c for e, c in p.coeffs.items()})


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
        out = out + term.scale(laurent_bar(p))
    return out


def project_pi(h, I, spherical=False):
    """Quotient map H -> N (or M): h_{ux} -> (-v)^{l(u)} n_x for u in W_I,
    x in ^IW (v^{-l(u)} m_x in the spherical case; these are the two
    eigenvalues of h_s from the quadratic relation)."""
    I = frozenset(I)
    ball = h.ball
    sign = VINV if spherical else -V
    out = {}
    for w, p in h.coeffs.items():
        u, x = coset_decompose(ball, w, I)
        _acc(out, x, p * sign ** u.length)
    cls = MElt if spherical else NElt
    return cls(ball, I, out)


def n_bar(n):
    """Bar involution on N (or M): lift each n_x to h_x, bar, project back."""
    out = n._make({})
    for x, p in n.coeffs.items():
        barred = bar(NElt.std(n.ball, frozenset(), x, p))
        out = out + project_pi(barred, n.I, spherical=n.spherical)
    return out
