"""Subexpression combinatorics for expressions (not necessarily reduced words).

A 01-sequence e for a word (s_1, ..., s_m) walks a Bruhat stroll
x_i = x_{i-1} s_i^{e_i}.  Each index gets a decoration: letter U if
x_{i-1} s_i > x_{i-1}, else D, followed by the digit e_i.  The defect
statistic #U0 - #D0 grades the light-leaf basis; summed over subexpressions
with fixed endpoint it reproduces the standard-basis coefficients of
b_{s_1} ... b_{s_m}.
"""

from __future__ import annotations

from .errors import CapError
from .laurent import LaurentPoly, ZERO
from .parabolic import NElt


class DecoratedSubexpr:
    __slots__ = ("word", "bits", "stroll", "decorations", "defect", "endpoint")

    def __init__(self, word, bits, stroll, decorations):
        self.word = tuple(word)
        self.bits = tuple(bits)
        self.stroll = stroll
        self.decorations = tuple(decorations)
        self.defect = self.decorations.count("U0") - self.decorations.count("D0")
        self.endpoint = stroll[-1]

    def __eq__(self, other):
        return isinstance(other, DecoratedSubexpr) and other.word == self.word \
            and other.bits == self.bits

    def __hash__(self):
        return hash((self.word, self.bits))

    def __repr__(self):
        return "DecoratedSubexpr(word=%r, bits=%r, defect=%d)" % (
            self.word, self.bits, self.defect)

    def to_record(self):
        return {
            "bits": list(self.bits),
            "stroll": [list(x.word) for x in self.stroll],
            "decorations": list(self.decorations),
            "defect": self.defect,
            "endpoint": list(self.endpoint.word),
        }


def decorate(ball, word, bits):
    if len(word) != len(bits):
        raise ValueError("bit sequence length must match the word")
    x = ball.identity
    stroll = [x]
    decorations = []
    for s, e in zip(word, bits):
        xs = ball.right(x, s)
        if xs is None:
            raise CapError("Bruhat stroll leaves the group ball")
        up = xs.length > x.length
        decorations.append(("U" if up else "D") + str(e))
        if e:
            x = xs
        stroll.append(x)
    return DecoratedSubexpr(word, bits, stroll, decorations)


def is_antispherical(ball, d, I):
    """True iff every step satisfies x_k s_{k+1} in ^IW."""
    asc = ball.ascents(I)
    for x, s in zip(d.stroll, d.word):
        # the stroll starts at e in ^IW and stays there up to x
        if ball.right(x, s).length > x.length and not asc[x.idx] >> s & 1:
            return False
    return True


def enumerate_subexprs(ball, word, I=None):
    """All subexpressions of word in lexicographic bit order with 1 < 0.

    Restricts to I-antispherical ones (pruning whole subtrees as soon as
    some x_k s_{k+1} leaves ^IW); I = None means I = {}, where every
    subexpression is antispherical.
    """
    asc = ball.ascents(I or ())
    out = []

    # the stroll and decorations of a prefix are carried down, so each leaf
    # is built as decorate(ball, word, bits) would build it, without a walk;
    # x is in ^IW, and so is xs < x, and xs > x when its ascent bit is set
    def rec(k, x, bits, stroll, decorations):
        if k == len(word):
            out.append(DecoratedSubexpr(word, bits, list(stroll), decorations))
            return
        s = word[k]
        xs = ball.right(x, s)
        if xs is None:
            raise CapError("Bruhat stroll leaves the group ball")
        up = xs.length > x.length
        if up and not asc[x.idx] >> s & 1:
            return
        one, zero = ("U1", "U0") if up else ("D1", "D0")
        rec(k + 1, xs, bits + (1,), stroll + (xs,), decorations + (one,))
        rec(k + 1, x, bits + (0,), stroll + (x,), decorations + (zero,))

    rec(0, ball.identity, (), (ball.identity,), ())
    return out


def path_dom_leq(ball, e, f):
    """Path dominance: every stroll element of e is Bruhat-below that of f."""
    if e.word != f.word:
        raise ValueError("path dominance compares subexpressions of one word")
    return all(ball.bruhat_leq(a, b) for a, b in zip(e.stroll, f.stroll))


def graded_rank(ball, word, x, I):
    """Sum of v^defect over I-antispherical subexpressions with endpoint x."""
    return char_of_word(ball, word, I).coeff(x)


def char_of_word(ball, word, I):
    """The diagrammatic character: sum of graded_rank(word, x) n_x over x.

    Equals n_e b_{s_1} ... b_{s_m} computed through the module action.
    """
    I = frozenset(I)
    coeffs = {}
    for d in enumerate_subexprs(ball, word, I=I):
        x = d.endpoint
        coeffs[x] = coeffs.get(x, ZERO) + LaurentPoly.v(d.defect)
    return NElt(ball, I, coeffs)
