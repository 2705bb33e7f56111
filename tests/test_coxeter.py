"""Coxeter system engine: ball enumeration, descents, Bruhat order,
parabolic quotients, exact root action."""

import itertools
import random

import pytest

import ball_refs
from ball_refs import coset_decompose, is_min_rep, left, parabolic_test
from coxkit.coxeter import INF, CoxeterMatrix, GroupBall, build_ball
from coxkit.errors import CoxkitError, NotFinitaryError, UsageError
from field_refs import root_sign


def matrix_of(name):
    """A built-in type, or "M_a_b_c": the rank-3 matrix with off-diagonal
    entries m12, m13, m23 = a, b, c (each an int or "inf")."""
    if name.startswith("M_"):
        a, b, c = (INF if v == "inf" else int(v) for v in name[2:].split("_"))
        return CoxeterMatrix(((1, a, b), (a, 1, c), (b, c, 1)))
    return CoxeterMatrix.from_type(name)


def ball_of(name, cap):
    return build_ball(matrix_of(name), cap)


def right_descends(ball, x, s):
    """The root-theoretic descent oracle: x(alpha_s) is a negative root."""
    return root_sign(ball.ring, ball.root_image(x, s)) < 0


# -- matrices -------------------------------------------------------------------

def test_matrix_validation():
    with pytest.raises(UsageError):
        CoxeterMatrix(((1, 3), (2, 1)))  # not symmetric
    with pytest.raises(UsageError):
        CoxeterMatrix(((2, 3), (3, 1)))  # bad diagonal
    with pytest.raises(UsageError):
        CoxeterMatrix(((1, 1), (1, 1)))  # off-diagonal < 2
    for name, family in (("A-1", "A n"), ("affA-1", "affA n"), ("affA0", "affA n")):
        with pytest.raises(UsageError, match=family):
            CoxeterMatrix.from_type(name)
    assert CoxeterMatrix.from_type("A0").rank == 0  # the trivial Coxeter system


def test_matrix_json_roundtrip():
    m = CoxeterMatrix.from_type("affA1")
    again = CoxeterMatrix.from_json(m.to_json())
    assert again == m
    assert again.entries[0][1] is INF


# -- ball sizes -----------------------------------------------------------------

def test_ball_sizes():
    assert len(ball_of("A2", 10)) == 6
    assert len(build_ball(CoxeterMatrix(((1,),)), 5)) == 2
    assert len(ball_of("affA1", 4)) == 9
    assert len(ball_of("A3", 6)) == 24
    assert len(ball_of("B3", 9)) == 48
    assert len(ball_of("H3", 15)) == 120


def test_ball_build_stops_when_a_round_adds_nothing():
    # A2 is exhausted at length 3, so a cap of 10^12 builds the same ball,
    # without 10^12 empty rounds
    ball = ball_of("A2", 10 ** 12)
    assert len(ball) == 6
    assert ball.right_idx == ball_of("A2", 3).right_idx


def test_shortlex_canonical_words():
    ball = ball_of("A2", 10)
    words = sorted(x.word for x in ball.elements)
    assert ((), (0,), (0, 1), (0, 1, 0), (1,), (1, 0)) == tuple(words)


# -- descents -------------------------------------------------------------------

def test_right_descends_examples():
    ball = ball_of("A2", 10)
    e = ball.identity
    s, t = 0, 1
    st = ball.product_of_word((s, t))
    assert not right_descends(ball, e, s)
    assert not right_descends(ball, st, s)
    assert right_descends(ball, st, t)


@pytest.mark.parametrize("name,cap", [("A3", 6), ("B3", 9), ("affA2", 8), ("I2_12", 12),
                                      ("M_inf_3_4", 8), ("M_3_2_7", 8)])
def test_descent_agrees_with_length(name, cap):
    ball = ball_of(name, cap)
    rng = random.Random(17)
    elts = list(ball.elements)
    for _ in range(2000):
        x = rng.choice(elts)
        s = rng.randrange(ball.rank)
        xs = ball.right(x, s)
        if xs is None:
            continue
        assert right_descends(ball, x, s) == (xs.length < x.length)


@pytest.mark.parametrize("name,cap", [("A3", 6), ("B3", 9), ("H3", 10), ("affA1", 12),
                                      ("I2_12", 12), ("M_inf_3_4", 8), ("M_3_2_7", 8)])
def test_root_dichotomy(name, cap):
    # every x(alpha_s) has all coordinate signs >= 0 or all <= 0
    ball = ball_of(name, cap)
    for x in ball.elements:
        for s in range(ball.rank):
            signs = {root_sign(ball.ring, ball.root_image(x, s))}
            assert signs <= {1, -1}


def walked_root_image(ball, x, s):
    """Reference for root_image: apply the reflections of x's word, right to
    left, to alpha_s through the Cartan matrix."""
    ring = ball.ring
    v = [ring.embed(1 if u == s else 0) for u in range(ball.rank)]
    for t in reversed(x.word):
        # reflection t: v -> v - <v, alpha_t^vee> alpha_t
        pair = ring.zero()
        for u, c in enumerate(v):
            if any(c):
                pair = ring.add(pair, ring.mul(c, ball.cartan[u][t]))
        v[t] = ring.sub(v[t], pair)
    return tuple(v)


@pytest.mark.parametrize("name,cap", [("A3", 6), ("B3", 9), ("H3", 8), ("affA2", 8),
                                      ("I2_12", 12), ("M_inf_3_4", 8), ("M_3_2_7", 8),
                                      ("M_4_5_7", 5)])
def test_root_image_matches_word_walk(name, cap):
    # scalar rings of degree 1 (A3, affA2), 2 (B3, H3, M_inf_3_4),
    # 3 (M_3_2_7), 4 (I2_12) and 48 (M_4_5_7)
    ball = ball_of(name, cap)
    for x in ball.elements:
        for s in range(ball.rank):
            assert ball.root_image(x, s) == walked_root_image(ball, x, s)


def test_root_image_of_a_long_element_needs_no_recursion():
    # the walk up to a known ancestor is a loop: 2500 steps here, past
    # Python's default recursion limit of 1000
    ball = GroupBall(CoxeterMatrix.from_type("affA1"), 2500)
    x = ball.elements[-1]
    assert x.length == 2500
    for s in range(ball.rank):
        assert ball.root_image(x, s) == walked_root_image(ball, x, s)


# -- the key against reflection matrices ------------------------------------------

def reference_ball(matrix, cap):
    """Words and right table of the ball keyed by full reflection matrices
    over K, breadth first as GroupBall: column u of x's matrix is
    x(alpha_u), and xs(alpha_u) = x(alpha_u) - <alpha_u, alpha_s^vee> x(alpha_s).
    At length cap only products already found are recorded."""
    ring = matrix.scalar_ring()
    cartan = matrix.cartan(ring)
    rank = matrix.rank
    ident = tuple(tuple(ring.embed(1 if v == u else 0) for v in range(rank))
                  for u in range(rank))
    mats, index, words = [ident], {ident: 0}, [()]
    right = [[None] * rank]
    frontier = [0]
    for length in range(cap + 1):
        nxt = []
        for x in frontier:
            for s in range(rank):
                if right[x][s] is not None:
                    continue
                m = mats[x]
                y = tuple(tuple(ring.sub(a, ring.mul(cartan[u][s], b))
                                for a, b in zip(m[u], m[s])) for u in range(rank))
                j = index.get(y)
                if j is None:
                    if length == cap:
                        continue
                    j = len(mats)
                    mats.append(y)
                    index[y] = j
                    words.append(words[x] + (s,))
                    right.append([None] * rank)
                    nxt.append(j)
                right[x][s] = j
                right[j][s] = x
        frontier = nxt
    return words, right


@pytest.mark.parametrize("name,cap", [
    ("A1", 5), ("A2", 10), ("A3", 14), ("A4", 10), ("A5", 15), ("A7", 6),
    ("B2", 10), ("B3", 9), ("B4", 16), ("D4", 10), ("H3", 15),
    ("I2_5", 5), ("I2_6", 6), ("I2_7", 8), ("I2_12", 12), ("I2_30", 30),
    ("affA1", 20), ("affA2", 10),
    ("M_3_2_7", 6), ("M_inf_3_4", 6), ("M_4_5_7", 6)])
def test_ball_matches_reflection_matrix_ball(name, cap):
    matrix = matrix_of(name)
    ball = GroupBall(matrix, cap)
    words, right = reference_ball(matrix, cap)
    assert [x.word for x in ball.elements] == words
    assert [[None if y is None else y.idx
             for y in (ball.right(x, s) for s in range(ball.rank))]
            for x in ball.elements] == right


# -- Bruhat order -----------------------------------------------------------------

def subword_leq(ball, y, x):
    """Brute-force oracle: y <= x iff some subword of a reduced word of x
    multiplies out to y with length l(y)."""
    word = x.word
    for bits in itertools.product((0, 1), repeat=len(word)):
        sub = tuple(s for s, b in zip(word, bits) if b)
        if len(sub) != y.length:
            continue
        if ball.product_of_word(sub) == y:
            return True
    return False


def test_bruhat_examples():
    ball = ball_of("A2", 10)
    s = ball.product_of_word((0,))
    t = ball.product_of_word((1,))
    sts = ball.product_of_word((0, 1, 0))
    for x in ball.elements:
        assert ball.bruhat_leq(ball.identity, x)
    assert ball.bruhat_leq(s, sts)
    assert not ball.bruhat_leq(s, t)


# affA1, affA2 and H3 (a ring of degree 2) are cut off at the cap, so the
# recursion meets elements whose ascents leave the ball
@pytest.mark.parametrize("name,cap", [("A2", 6), ("B2", 8), ("A3", 6),
                                      ("affA1", 12), ("affA2", 6), ("H3", 6)])
def test_bruhat_matches_subword_criterion(name, cap):
    ball = ball_of(name, cap)
    for y in ball.elements:
        for x in ball.elements:
            assert ball.bruhat_leq(y, x) == subword_leq(ball, y, x)


# -- parabolic quotients ------------------------------------------------------------

def test_is_min_rep_examples():
    ball = ball_of("A2", 10)
    s = ball.product_of_word((0,))
    t = ball.product_of_word((1,))
    for I in (frozenset(), frozenset({0}), frozenset({0, 1})):
        assert is_min_rep(ball, ball.identity, I)
    assert is_min_rep(ball, t, frozenset({0}))
    assert not is_min_rep(ball, s, frozenset({0}))


def test_coset_decompose_examples():
    ball = ball_of("A2", 10)
    I = frozenset({0})
    st = ball.product_of_word((0, 1))
    u, x = coset_decompose(ball, st, I)
    assert u.word == (0,) and x.word == (1,)
    for w in ball.elements:
        u, x = coset_decompose(ball, w, I)
        assert is_min_rep(ball, x, I)
        assert u.length + x.length == w.length
        assert ball.product_of_word(x.word, start=u) == w
    t = ball.product_of_word((1,))
    assert coset_decompose(ball, t, I) == (ball.identity, t)


def test_parabolic_test_examples():
    ball = ball_of("A2", 10)
    I = frozenset({0})
    t = ball.product_of_word((1,))
    ts = ball.product_of_word((1, 0))
    assert parabolic_test(ball, t, 0, I) == ("in_quotient", None)
    assert parabolic_test(ball, ts, 1, I) == ("exits_via", 0)
    assert parabolic_test(ball, ball.identity, 0, I) == ("exits_via", 0)
    with pytest.raises(UsageError):
        parabolic_test(ball, ball.product_of_word((0,)), 1, I)


def test_parabolic_test_disagreement_raises(monkeypatch):
    # a length test that calls every element minimal contradicts the root
    # test at x = e, s = s1 in I; the check must survive python -O
    ball = ball_of("A2", 10)
    monkeypatch.setattr(ball_refs, "is_min_rep", lambda ball, x, I: True)
    with pytest.raises(CoxkitError):
        parabolic_test(ball, ball.identity, 0, frozenset({0}))


@pytest.mark.parametrize("name,cap", [("A3", 6), ("B3", 9), ("affA1", 12)])
def test_parabolic_property_agreement(name, cap):
    # the root-theoretic verdict must agree with the combinatorial one;
    # parabolic_test raises CoxkitError otherwise, so exercising it suffices
    ball = ball_of(name, cap)
    for r in range(ball.rank + 1):
        for I in itertools.combinations(range(ball.rank), r):
            I = frozenset(I)
            for x in ball.min_reps(I):
                for s in range(ball.rank):
                    if ball.right(x, s) is None:
                        continue
                    verdict, via = parabolic_test(ball, x, s, I)
                    assert (verdict == "exits_via") == (via is not None)


@pytest.mark.parametrize("name,cap", [
    ("A3", 6), ("B3", 9), ("D4", 8), ("H3", 8), ("affA1", 12), ("affA2", 8),
    ("M_4_5_7", 6)])
def test_ascent_masks_match_left_descents(name, cap):
    # the ball's masks against their definitions, read through left
    # multiplication and lengths: x is in ^IW when no s in I has sx < x,
    # and bit s of its ascent mask is set when xs > x lies in ^IW
    ball = ball_of(name, cap)
    S = range(ball.rank)

    def longer(y, x):
        return y is not None and y.length > x.length

    desc = ball.descents()
    for x in ball.elements:
        want = sum(1 << s for s in S
                   if ball.right(x, s) is not None and not longer(ball.right(x, s), x))
        assert desc[x.idx] == want, x
    for r in range(ball.rank + 1):
        for I in itertools.combinations(S, r):
            def inside(x):
                return all(left(ball, x, s) is None or longer(left(ball, x, s), x)
                           for s in I)

            asc = ball.ascents(I)
            for x in ball.elements:
                if not inside(x):
                    assert asc[x.idx] is None, (I, x)
                    assert not is_min_rep(ball, x, I)
                    continue
                want = sum(1 << s for s in S
                           if longer(ball.right(x, s), x) and inside(ball.right(x, s)))
                assert asc[x.idx] == want, (I, x)
                assert is_min_rep(ball, x, I)
            reps = ball.min_reps(I)
            assert reps == [x for x in ball.elements if inside(x)]
            assert [x.idx for x in reps] == sorted(x.idx for x in reps)


def test_min_rep_counts_a2():
    ball = ball_of("A2", 10)
    assert len(ball.min_reps(frozenset({0}))) == 3
    assert len(ball.min_reps(frozenset({0, 1}))) == 1


def test_longest_element():
    ball = ball_of("A2", 10)
    assert ball.longest_element(frozenset()) == ball.identity
    assert ball.longest_element(frozenset({0, 1})).word == (0, 1, 0)
    aff = ball_of("affA1", 8)
    with pytest.raises(NotFinitaryError):
        aff.longest_element(frozenset({0, 1}))


def test_subgroup_elements():
    ball = ball_of("A3", 6)
    assert len(ball.subgroup_elements(frozenset({0, 1}))) == 6
    assert len(ball.subgroup_elements(frozenset())) == 1
