"""Reference views of a group ball for the tests, outside the library.

`is_min_rep` and `right_descents` read the ball's own masks
(`GroupBall.ascents`, `GroupBall.descents`) one element at a time.  `left`
multiplies on the left through inverses, which the ball itself never does,
and `coset_decompose` splits w = u x along W_I x ^IW with it.
`parabolic_test` is the root-theoretic oracle for ^IW: it decides from
x(alpha_s) alone whether xs leaves ^IW, and checks that verdict against
the masks wherever xs lies in the ball.
"""

from coxkit.errors import CoxkitError, UsageError


def is_min_rep(ball, x, I):
    """x in ^IW: every s in I has sx > x."""
    return ball.ascents(I)[x.idx] is not None


def right_descents(ball, x):
    """The s with xs < x, in increasing order."""
    return [s for s in range(ball.rank) if ball.descents()[x.idx] >> s & 1]


def left(ball, x, s):
    """s*x, or None if it falls outside the ball."""
    y = ball.right(ball.inverse(x), s)
    return ball.inverse(y) if y is not None else None


def left_descends_fast(ball, x, s):
    y = left(ball, x, s)
    return y is not None and y.length < x.length


def coset_decompose(ball, w, I):
    """w = u x with u in W_I, x in ^IW and lengths additive."""
    letters = []
    x = w
    while True:
        for s in I:
            if left_descends_fast(ball, x, s):
                letters.append(s)
                x = left(ball, x, s)
                break
        else:
            break
    u = ball.product_of_word(tuple(letters))
    return u, x


def parabolic_test(ball, x, s, I):
    """Root-theoretic Parabolic Property verdict for x in ^IW and s in S.

    Returns ('exits_via', r) when x(alpha_s) = alpha_r with r in I (then
    xs = rx is not in ^IW), else ('in_quotient', None).  When xs lies in
    the ball, raises CoxkitError unless the combinatorial test agrees.
    """
    if not is_min_rep(ball, x, I):
        raise UsageError("parabolic_test requires x in ^IW")
    root = ball.root_image(x, s)
    zero, one = ball.ring.zero(), ball.ring.one()
    exit_r = None
    for r in I:
        if all(root[u] == (one if u == r else zero) for u in range(ball.rank)):
            exit_r = r
            break
    xs = ball.right(x, s)
    if xs is not None:
        if is_min_rep(ball, xs, I) != (exit_r is None):
            raise CoxkitError("root and length tests disagree on x*s in ^IW")
        if exit_r is not None and left(ball, xs, exit_r) != x:
            raise CoxkitError("x*s exits ^IW but is not r*x")
    if exit_r is not None:
        return ("exits_via", exit_r)
    return ("in_quotient", None)
