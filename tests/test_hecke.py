"""Hecke algebra in the standard basis, bar involution, canonical basis.

The Hecke algebra is the antispherical module N at I = {}: an element is an
NElt with empty I, and its canonical basis is the I = {} table."""

import random

import pytest

from coxkit.coxeter import CoxeterMatrix, build_ball
from coxkit.errors import UsageError
from coxkit.hecke import KLTable
from coxkit.laurent import LaurentPoly, ONE, V, VINV
from coxkit.parabolic import NElt
from hecke_refs import bar, mul_hs

H = frozenset()


@pytest.fixture
def a2():
    return build_ball(CoxeterMatrix.from_type("A2"), 10)


def test_unit_times_bs(a2):
    s = a2.product_of_word((0,))
    got = NElt.unit(a2, H).mul_bs(0)
    want = NElt.std(a2, H, s) + NElt.std(a2, H, a2.identity, V)
    assert got == want


def test_bs_squared_is_v_plus_vinv_times_bs(a2):
    bs = NElt.unit(a2, H).mul_bs(0)
    assert bs.mul_bs(0) == bs.scale(V + VINV)


def test_quadratic_relation_in_standard_basis(a2):
    # h_s h_s = 1 + (v^-1 - v) h_s
    hs = NElt.std(a2, H, a2.product_of_word((0,)))
    got = mul_hs(hs, 0)
    want = NElt.unit(a2, H) + hs.scale(VINV - V)
    assert got == want


def test_mul_hs_inverse_roundtrip(a2):
    rng = random.Random(3)
    for _ in range(50):
        h = NElt(a2, H, {x: LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
                         for x in a2.elements})
        s = rng.randrange(2)
        assert mul_hs(mul_hs(h, s), s, inverse=True) == h


def test_bar_fixes_bs(a2):
    bs = NElt.unit(a2, H).mul_bs(0)
    assert bar(bs) == bs


def test_bar_is_involution(a2):
    rng = random.Random(7)
    for _ in range(30):
        h = NElt(a2, H, {x: LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
                         for x in a2.elements})
        assert bar(bar(h)) == h


def test_bar_of_standard_basis(a2):
    # bar(h_s) = h_s^{-1} = h_s + (v - v^-1)
    s = a2.product_of_word((0,))
    hs = NElt.std(a2, H, s)
    assert bar(hs) == hs + NElt.unit(a2, H).scale(V - VINV)


def test_canonical_basis_a2_longest(a2):
    # every KL polynomial is trivial here: h_{y, sts} = v^(3 - l(y))
    kl = KLTable(a2)
    sts = a2.product_of_word((0, 1, 0))
    b = kl.b(sts)
    for y in a2.elements:
        assert b.coeff(y) == V ** (3 - y.length)
    assert kl.poly(a2.product_of_word((0, 1)), sts) == V
    assert kl.poly(a2.product_of_word((0, 1)), sts).coeff(1) == 1


def test_h_poly_zero_unless_bruhat_leq(a2):
    kl = KLTable(a2)
    for x in a2.elements:
        for y in a2.elements:
            p = kl.poly(y, x)
            if not a2.bruhat_leq(y, x):
                assert p == LaurentPoly.zero()


def test_h_poly_degree_bound_and_diagonal():
    ball = build_ball(CoxeterMatrix.from_type("B2"), 8)
    kl = KLTable(ball)
    for y, x, p in kl.table_rows():
        if y == x:
            assert p == ONE
        else:
            # strictly positive exponents only
            assert all(k >= 1 for k in p.coeffs)


def test_canonical_basis_is_selfdual():
    ball = build_ball(CoxeterMatrix.from_type("affA1"), 6)
    kl = KLTable(ball)
    for x in ball.elements:
        if x.length <= 4:
            assert bar(kl.b(x)) == kl.b(x)


def test_b_word_product_matches_table(a2):
    # b_s b_t = b_{st} since l(st) = 2 and no lower terms appear in rank 2
    kl = KLTable(a2)
    st = a2.product_of_word((0, 1))
    assert NElt.unit(a2, H).mul_b_word((0, 1)) == kl.b(st)
    # b_s b_t b_s = b_{sts} + b_s
    s = a2.product_of_word((0,))
    assert NElt.unit(a2, H).mul_b_word((0, 1, 0)) == \
        kl.b(a2.product_of_word((0, 1, 0))) + kl.b(s)


def test_h_s_action_needs_empty_I(a2):
    with pytest.raises(UsageError):
        mul_hs(NElt.unit(a2, frozenset({0})), 1)
