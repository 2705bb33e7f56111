"""Decorated subexpressions: Bruhat strolls, defect grading, path dominance,
and the diagrammatic character."""

import itertools
import json

import pytest

from coxkit.coxeter import CoxeterMatrix, build_ball
from coxkit.errors import UsageError
from coxkit.laurent import LaurentPoly, V
from coxkit.leaves import (char_of_word, decorate, enumerate_subexprs,
                           path_dom_leq)
from coxkit.parabolic import NElt


def double_path_dom_leq(ball, pair1, pair2):
    e1, f1 = pair1
    e2, f2 = pair2
    return path_dom_leq(ball, e1, e2) and path_dom_leq(ball, f1, f2)


def is_antispherical(ball, d, I):
    """True iff every step satisfies x_k s_{k+1} in ^IW."""
    asc = ball.ascents(I)
    for x, s in zip(d.stroll, d.word):
        # the stroll starts at e in ^IW and stays there up to x
        if ball.right(x, s).length > x.length and not asc[x.idx] >> s & 1:
            return False
    return True


def to_record(d):
    return {
        "bits": list(d.bits),
        "stroll": [list(x.word) for x in d.stroll],
        "decorations": list(d.decorations),
        "defect": d.defect,
        "endpoint": list(d.endpoint.word),
    }


def subexprs_to_json(subexprs):
    return json.dumps([to_record(d) for d in subexprs], indent=2)


@pytest.fixture
def a2():
    return build_ball(CoxeterMatrix.from_type("A2"), 10)


@pytest.fixture
def aff():
    return build_ball(CoxeterMatrix.from_type("affA1"), 12)


def test_decorations_on_ss(a2):
    top = decorate(a2, (0, 0), (1, 1))
    assert top.decorations == ("U1", "D1")
    assert top.defect == 0
    assert top.endpoint == a2.identity
    low = decorate(a2, (0, 0), (0, 0))
    assert low.decorations == ("U0", "U0")
    assert low.defect == 2
    assert decorate(a2, (0, 0), (1, 0)).decorations == ("U1", "D0")


def test_stroll_is_recorded(a2):
    d = decorate(a2, (0, 1, 0), (1, 1, 0))
    assert [x.word for x in d.stroll] == [(), (0,), (0, 1), (0, 1)]
    assert d.endpoint == a2.product_of_word((0, 1))


def test_bit_length_must_match(a2):
    with pytest.raises(UsageError):
        decorate(a2, (0, 1), (1,))


def test_antispherical_examples(a2, aff):
    I = frozenset({0})
    # first letter s with I = {s}: already e*s leaves the quotient
    assert not is_antispherical(a2, decorate(a2, (0,), (0,)), I)
    assert is_antispherical(a2, decorate(a2, (1,), (1,)), I)
    # affA1, word (t,s,t): bits (1,0,0) stays in the quotient throughout
    d = decorate(aff, (1, 0, 1), (1, 0, 0))
    assert is_antispherical(aff, d, I)
    assert not is_antispherical(aff, decorate(aff, (1, 0, 1), (0, 0, 0)), I)


def test_enumerate_counts_and_filtering(a2):
    word = (0, 1, 0)
    assert len(enumerate_subexprs(a2, word)) == 8
    s1 = a2.product_of_word((0,))
    at_s = [d for d in enumerate_subexprs(a2, word) if d.endpoint == s1]
    assert sorted(d.bits for d in at_s) == [(0, 0, 1), (1, 0, 0)]
    I = frozenset({0})
    anti = enumerate_subexprs(a2, word, I=I)
    assert all(is_antispherical(a2, d, I) for d in anti)


@pytest.mark.parametrize("name, cap, I, length", [
    ("A3", 6, None, 5),
    ("A3", 6, frozenset(), 5),
    ("affA2", 6, frozenset({0}), 5),
    ("H3", 6, None, 5),
])
def test_enumerate_builds_what_decorate_builds(name, cap, I, length):
    """Every subexpression enumerate_subexprs yields equals decorate(ball,
    word, bits) field by field, with the same ball elements in its stroll,
    and a second enumeration filtered to one endpoint yields the same
    leaves there."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    fields = ("word", "bits", "stroll", "decorations", "defect", "endpoint")
    leaves = 0
    for word in itertools.chain.from_iterable(
            itertools.product(range(ball.rank), repeat=n)
            for n in range(length + 1)):
        got = enumerate_subexprs(ball, word, I=I)
        if I is not None:
            assert all(is_antispherical(ball, d, I) for d in got)
        for d in got:
            want = decorate(ball, word, d.bits)
            assert all(getattr(d, k) == getattr(want, k) for k in fields), (word, d)
            assert all(a is b for a, b in zip(d.stroll, want.stroll))
            assert type(d.stroll) is type(want.stroll)
            leaves += 1
        if got:
            x = got[-1].endpoint
            at_x = [d for d in enumerate_subexprs(ball, word, I=I)
                    if d.endpoint == x]
            assert at_x == [d for d in got if d.endpoint == x]
    assert leaves > 1000


def test_enumerate_I_none_is_the_empty_I(aff):
    word = (1, 0, 1, 0, 0, 1)
    want = enumerate_subexprs(aff, word, I=frozenset())
    got = enumerate_subexprs(aff, word)
    assert len(got) == len(want) == 2 ** len(word)
    for d, e in zip(got, want):
        assert (d.bits, d.decorations, d.defect) == (e.bits, e.decorations, e.defect)
        assert all(a is b for a, b in zip(d.stroll, e.stroll))


def test_path_dominance(a2):
    word = (0, 1)
    top = decorate(a2, word, (1, 1))
    bot = decorate(a2, word, (0, 0))
    assert path_dom_leq(a2, bot, top)
    assert not path_dom_leq(a2, top, bot)
    # (1,0) and (0,1) end at s and t: incomparable
    a = decorate(a2, word, (1, 0))
    b = decorate(a2, word, (0, 1))
    assert not path_dom_leq(a2, a, b)
    assert not path_dom_leq(a2, b, a)
    assert double_path_dom_leq(a2, (bot, bot), (top, top))
    with pytest.raises(UsageError):
        path_dom_leq(a2, a, decorate(a2, (1, 0), (1, 0)))


def test_graded_rank_examples(a2):
    word = (0, 1, 0)
    assert char_of_word(a2, word, frozenset()).coeff(a2.product_of_word(word)) == \
        LaurentPoly.const(1)
    # two subexpressions reach s: (1,0,0) with U1,U0,D0 (defect 0) and
    # (0,0,1) with U0,U0,U1 (defect 2)
    assert char_of_word(a2, word, frozenset()).coeff(a2.product_of_word((0,))) == \
        LaurentPoly.const(1) + LaurentPoly.v(2)
    assert char_of_word(a2, word, frozenset({0})).coeff(a2.identity) == \
        LaurentPoly.zero()


def test_char_of_word_affine(aff):
    I = frozenset({0})
    word = (1, 0, 1)
    got = char_of_word(aff, word, I)
    want = NElt(aff, I, {
        aff.product_of_word((1, 0, 1)): LaurentPoly.const(1),
        aff.product_of_word((1, 0)): V,
        aff.product_of_word((1,)): LaurentPoly.const(1),
        aff.identity: V,
    })
    assert got == want


@pytest.mark.parametrize("name,cap", [("A2", 8), ("B2", 10), ("affA1", 10)])
def test_char_matches_module_action(name, cap):
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    words = [(), (0,), (1, 0), (0, 1, 0), (1, 1), (0, 1, 0, 1)]
    for r in range(ball.rank + 1):
        for I in itertools.combinations(range(ball.rank), r):
            I = frozenset(I)
            for word in words:
                assert char_of_word(ball, word, I) == \
                    NElt.unit(ball, I).mul_b_word(word)


def test_defect_counts_match_hecke_product(a2):
    # with I empty, graded ranks are the standard-basis coefficients of
    # b_{s_1} ... b_{s_m}
    word = (0, 1, 0, 1)
    h = NElt.unit(a2, frozenset()).mul_b_word(word)
    char = char_of_word(a2, word, frozenset())
    for x in a2.elements:
        assert char.coeff(x) == h.coeff(x)


def test_json_export(a2):
    recs = json.loads(subexprs_to_json(enumerate_subexprs(a2, (0, 1))))
    assert len(recs) == 4
    top = next(r for r in recs if r["bits"] == [1, 1])
    assert top["decorations"] == ["U1", "U1"]
    assert top["endpoint"] == [0, 1]
    assert top["defect"] == 0
    assert top["stroll"] == [[], [0], [0, 1]]
