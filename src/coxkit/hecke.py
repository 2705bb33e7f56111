"""The Hecke algebra over Z[v, 1/v] is the antispherical module N at I = {}.

An element is NElt(ball, frozenset(), coeffs) in the standard basis h_x, with
b_s = h_s + v acting by ParaElt.mul_bs, and its canonical (Kazhdan-Lusztig)
basis is ParabolicKLTable(ball, frozenset()).  So this module holds only
`KLTable`, the name for that table.  The bar involution, which the
canonical-basis induction never applies, is the tests' independent route to
the same basis.
"""

from __future__ import annotations

from .parabolic import ParabolicKLTable


def KLTable(ball):
    """The Kazhdan-Lusztig basis b_x = sum_y h_{y,x} h_y of the ball."""
    return ParabolicKLTable(ball, frozenset())
