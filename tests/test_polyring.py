"""Polynomial ring on the simple-root variables, reflection action,
Demazure operators, and fractions with root denominators."""

import random

import pytest

from coxkit.coxeter import CoxeterMatrix, build_ball
from coxkit.polyring import NotInvertibleError, Poly, PolyRing, QCoeff
from field_refs import evaluate


def degree(f):
    """Degree of the Poly f with deg(alpha_s) = 2; None for zero."""
    if not f.coeffs:
        return None
    return max(2 * sum(m) for m in f.coeffs)


@pytest.fixture
def a2():
    ball = build_ball(CoxeterMatrix.from_type("A2"), 10)
    return ball, PolyRing(ball)


@pytest.fixture
def aff():
    ball = build_ball(CoxeterMatrix.from_type("affA1"), 10)
    return ball, PolyRing(ball)


def test_simple_reflection_on_roots(a2):
    ball, pr = a2
    a_s, a_t = pr.alpha(0), pr.alpha(1)
    assert pr.s_action(0, a_s) == -a_s
    assert pr.s_action(0, a_t) == a_t + a_s
    assert pr.s_action(1, a_s) == a_s + a_t


def test_action_is_group_action(a2):
    ball, pr = a2
    f = pr.alpha(0) * pr.alpha(1) + pr.alpha(1) + pr.const(3)
    for w in ball.elements:
        g = f
        for s in reversed(w.word):
            g = pr.s_action(s, g)
        assert pr.w_action(w, g) is not None
        # w acting letter by letter equals the memoized substitution
        h = f
        for s in w.word:
            h = pr.s_action(s, h)
        back = h
        for s in reversed(w.word):
            back = pr.s_action(s, back)
        assert back == f


def test_demazure_examples(a2):
    ball, pr = a2
    a_s, a_t = pr.alpha(0), pr.alpha(1)
    assert pr.demazure(0, a_s) == pr.const(2)
    assert pr.demazure(0, a_t) == pr.const(-1)
    assert pr.demazure(0, pr.const(5)).is_zero()


def test_demazure_squares_to_zero(a2):
    ball, pr = a2
    f = pr.alpha(0) * pr.alpha(0) * pr.alpha(1) + pr.alpha(0) + pr.const(2)
    for s in (0, 1):
        assert pr.demazure(s, pr.demazure(s, f)).is_zero()


def test_twisted_leibniz_decomposition(a2):
    # f = s(f) + (partial_s f) * alpha_s
    ball, pr = a2
    f = pr.alpha(0) * pr.alpha(1) + pr.alpha(1) * pr.alpha(1)
    for s in (0, 1):
        assert f == pr.s_action(s, f) + pr.demazure(s, f) * pr.alpha(s)


def test_reduce_mod_I(a2, aff):
    ball, pr = a2
    f = pr.alpha(0) * pr.alpha(1) + pr.alpha(1) + pr.const(7)
    assert pr.reduce_mod_I(f, frozenset({0})) == pr.alpha(1) + pr.const(7)
    assert pr.reduce_mod_I(f, frozenset()) == f
    aball, apr = aff
    # affA1: t(alpha_s) = alpha_s + 2 alpha_t, reduced mod I = {s} to 2 alpha_t
    img = apr.linear(aball.root_image(aball.product_of_word((1,)), 0))
    assert img == apr.alpha(0) + apr.alpha(1) + apr.alpha(1)
    assert apr.reduce_mod_I(img, frozenset({0})) == apr.alpha(1) + apr.alpha(1)


def test_qi_invert_root(a2):
    ball, pr = a2
    one, zero = pr.ring.one(), pr.ring.zero()
    with pytest.raises(NotInvertibleError):
        pr.reduce_root_mod_I((one, zero), frozenset({0}))
    q = QCoeff(pr, pr.one(), (pr.reduce_root_mod_I((one, one), frozenset({0})),))
    # (alpha_s + alpha_t) mod I is alpha_t; the inverse times alpha_t is 1
    assert q * pr.qi_const(pr.alpha(1)) == pr.qi_const(pr.one())


def test_qcoeff_cross_multiplied_equality(a2):
    ball, pr = a2
    root = (pr.ring.one(), pr.ring.zero())
    ratio = QCoeff(pr, pr.alpha(1), (root,))
    unreduced = QCoeff(pr, pr.alpha(1) * pr.alpha(0), (root, root))
    # at/as == (at*as)/(as*as) without any gcd computation
    assert ratio == unreduced
    assert (ratio - unreduced).is_zero()


def _div_root(q, root):
    """q divided by an (already reduced, nonzero) root coordinate vector."""
    return QCoeff(q.pr, q.num, q.den + (tuple(root),))


def test_qcoeff_arithmetic(a2):
    ball, pr = a2
    rs = (pr.ring.one(), pr.ring.zero())
    rt = (pr.ring.zero(), pr.ring.one())
    a = QCoeff(pr, pr.one(), (rs,))
    b = QCoeff(pr, pr.one(), (rt,))
    total = a + b
    # 1/as + 1/at = (as + at) / (as at)
    assert total == QCoeff(pr, pr.alpha(0) + pr.alpha(1), (rs, rt))
    assert (a * b) == QCoeff(pr, pr.one(), (rs, rt))
    assert _div_root(a, rs) == QCoeff(pr, pr.one(), (rs, rs))


def test_poly_evaluate(a2):
    ball, pr = a2
    f = pr.alpha(0) * pr.alpha(1) + pr.const(4)
    assert evaluate(f, (2, 3)) == pr.ring.embed(10)


def test_degree_and_homogeneity(a2):
    ball, pr = a2
    # roots sit in degree 2
    f = pr.alpha(0) * pr.alpha(1)
    assert degree(f) == 4
    assert pr.const(3).is_constant()


def test_qcoeff_results_keep_the_sorted_denominator():
    """Products, sums over one denominator and negations build their
    denominators without sorting again; each equals the den of a freshly
    constructed (sorted) QCoeff with the same roots."""
    ball = build_ball(CoxeterMatrix.from_type("A3"), 6)
    pr = PolyRing(ball)
    roots = [pr.reduce_root_mod_I(ball.root_image(x, s), frozenset())
             for x in ball.elements[:12] for s in range(ball.rank)]
    rng = random.Random(3)

    def rand_qcoeff():
        num = pr.const(rng.randint(1, 5)) * pr.alpha(rng.randrange(ball.rank)) \
            + pr.const(rng.randint(-3, 3))
        return QCoeff(pr, num, rng.sample(roots, rng.randint(0, 3)))

    for _ in range(300):
        a, b = rand_qcoeff(), rand_qcoeff()
        prod = a * b
        assert prod.den == QCoeff(pr, prod.num, a.den + b.den).den
        assert prod == QCoeff(pr, a.num * b.num, b.den + a.den)
        same = QCoeff(pr, b.num, a.den[::-1])
        total = a + same
        assert total.den == QCoeff(pr, total.num, a.den).den
        assert (-a).den == QCoeff(pr, -a.num, a.den).den == a.den
        assert (a - a).den == ()


def test_shared_unit_is_the_identity_of_products():
    ball = build_ball(CoxeterMatrix.from_type("A2"), 10)
    pr = PolyRing(ball)
    q = QCoeff(pr, pr.alpha(1), ((pr.ring.one(), pr.ring.one()),))
    assert pr.unit * q is q and q * pr.unit is q
    assert pr.unit * pr.unit is pr.unit
    assert pr.unit == pr.qi_const(pr.one()) and pr.unit.den == ()
    # another unit-valued QCoeff multiplies as usual, to an equal value
    assert pr.qi_const(pr.one()) * q == q


def test_equal_structures_are_one_shared_object():
    """Q_I is hash-consed per ring: a value built twice, by the constructor
    in any denominator order or by arithmetic, is one object, and the unit
    is the ring's first; values equal in Q_I but written differently, or
    made by another ring, are distinct objects."""
    ball = build_ball(CoxeterMatrix.from_type("A2"), 10)
    pr = PolyRing(ball)
    assert pr.unit.idx == 0 and pr.qi_const(pr.one()) is pr.unit
    rs = (pr.ring.one(), pr.ring.zero())
    rt = (pr.ring.zero(), pr.ring.one())
    a = QCoeff(pr, pr.alpha(1), (rs, rt))
    assert QCoeff(pr, pr.alpha(1), [rt, rs]) is a
    assert QCoeff(pr, pr.alpha(1), (rs,)) * QCoeff(pr, pr.one(), (rt,)) is a
    assert a * a is a * a and a + a is a + a
    assert -(-a) is a and (a - a) is pr.qi_const(pr.zero())
    b = QCoeff(pr, pr.alpha(1) * pr.alpha(0), (rs, rs, rt))
    assert b is not a and b == a
    assert len({id(q) for q in pr._qi_table.values()}) == len(pr._qi_table)
    assert sorted(q.idx for q in pr._qi_table.values()) \
        == list(range(len(pr._qi_table)))
    other = PolyRing(ball)
    assert QCoeff(other, other.alpha(1), (rs, rt)) is not a
