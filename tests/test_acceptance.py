"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
"CRITERION n: PASS/FAIL" line (visible under pytest -v -s or on failure).
"""

import functools
import itertools
import random
import sys
import time

import pytest

from ball_refs import parabolic_test
from coxkit.coxeter import CoxeterMatrix, build_ball
from coxkit.laurent import ONE
from coxkit.leaves import char_of_word, enumerate_subexprs
from coxkit.localization import LocalCalculus, relation_oracle
from coxkit.parabolic import (NElt, ParabolicKLTable, check_deodhar,
                              check_finitary, check_monotonicity)
from field_refs import root_sign
from hecke_refs import bar


def criterion(n):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("CRITERION %d: FAIL" % n, file=sys.stderr)
                raise
            print("CRITERION %d: PASS" % n, file=sys.stderr)
        return run
    return wrap


@functools.lru_cache(maxsize=None)
def ball_of(name, cap):
    return build_ball(CoxeterMatrix.from_type(name), cap)


def right_descends(ball, x, s):
    """The root-theoretic descent oracle: x(alpha_s) is a negative root."""
    return root_sign(ball.ring, ball.root_image(x, s)) < 0


def all_subsets(rank):
    for r in range(rank + 1):
        for I in itertools.combinations(range(rank), r):
            yield frozenset(I)


# criterion 2 covers these (system, cap, I) tables; 3 and 8 reuse them
_POSITIVITY_SCOPE = None


def positivity_scope():
    """[(ball, I, ntable, rows)] with total build+scan wall time."""
    global _POSITIVITY_SCOPE
    if _POSITIVITY_SCOPE is None:
        specs = [("A3", 6, None), ("B3", 9, None), ("H3", 15, 1),
                 ("affA1", 20, None), ("affA2", 10, None)]
        start = time.monotonic()
        tables = []
        for name, cap, max_I in specs:
            ball = ball_of(name, cap)
            for I in all_subsets(ball.rank):
                if max_I is not None and len(I) > max_I:
                    continue
                ntable = ParabolicKLTable(ball, I)
                tables.append((ball, I, ntable, ntable.table_rows()))
        _POSITIVITY_SCOPE = (tables, time.monotonic() - start)
    return _POSITIVITY_SCOPE


@criterion(1)
def test_criterion_01_specialization():
    # At I = {} the table is the Hecke algebra's canonical basis, which
    # Soergel characterises: b_x is the unique bar-invariant element of
    # h_x + sum_{y != x} vZ[v] h_y.  bar goes through
    # h_s^{-1} = h_s + (v - v^{-1}), which the induction never uses.
    start = time.monotonic()
    ball = ball_of("A3", 6)
    table = ParabolicKLTable(ball, frozenset())
    assert len(ball) == 24
    for x in ball.elements:
        bx = table.b(x)
        assert bar(bx) == bx
        assert bx.coeff(x) == ONE
        for y, p in bx.coeffs.items():
            assert y == x or min(p.coeffs) >= 1
    assert time.monotonic() - start < 5


@criterion(2)
def test_criterion_02_positivity():
    tables, elapsed = positivity_scope()
    assert tables
    for _, _, _, rows in tables:
        for _, _, p in rows:
            assert p.is_nonneg()
    assert elapsed < 120


@criterion(3)
def test_criterion_03_deodhar_identity():
    tables, _ = positivity_scope()
    kls = {}
    for ball, I, ntable, rows in tables:
        kl = kls.setdefault(id(ball), ParabolicKLTable(ball, frozenset()))
        for y, x, _ in rows:
            assert check_deodhar(kl, ntable, y, x)


@criterion(4)
def test_criterion_04_finitary_relation():
    ball = ball_of("A3", 6)
    kl = ParabolicKLTable(ball, frozenset())
    for I in all_subsets(3):
        mtable = ParabolicKLTable(ball, I, spherical=True)
        w0 = ball.longest_element(I)
        reps = [x for x in ball.min_reps(I)
                if x.length + w0.length <= ball.length_cap]
        for x in reps:
            for y in reps:
                assert check_finitary(kl, mtable, y, x)


@criterion(5)
def test_criterion_05_monotonicity():
    for name, cap in (("A3", 6), ("B3", 9)):
        ball = ball_of(name, cap)
        chain = [frozenset(), frozenset({0}), frozenset({0, 1})]
        tables = [ParabolicKLTable(ball, I) for I in chain]
        for small, big in zip(tables, tables[1:]):
            for y, x, _ in big.table_rows():
                assert check_monotonicity(big, small, y, x)


@criterion(6)
def test_criterion_06_character_identity():
    systems = [("A3", 12, frozenset()), ("A3", 12, frozenset({0})),
               ("A3", 12, frozenset({0, 1})), ("affA1", 12, frozenset({0}))]
    for name, cap, I in systems:
        ball = ball_of(name, cap)
        rng = random.Random(2024)
        for _ in range(1000):
            word = tuple(rng.randrange(ball.rank)
                         for _ in range(rng.randint(0, 10)))
            assert char_of_word(ball, word, I) == \
                NElt.unit(ball, I).mul_b_word(word)


@criterion(7)
def test_criterion_07_coset_counts():
    start = time.monotonic()
    ball = ball_of("A7", 28)
    I = frozenset({0, 1, 2})
    assert len(ball.subgroup_elements(I)) == 24
    assert len(ball.min_reps(I)) == 1680
    assert time.monotonic() - start < 30


@criterion(8)
def test_criterion_08_parabolic_property():
    tables, _ = positivity_scope()
    seen = set()
    for ball, I, _, _ in tables:
        if (id(ball), I) in seen:
            continue
        seen.add((id(ball), I))
        for x in ball.min_reps(I):
            for s in range(ball.rank):
                if ball.right(x, s) is None:
                    continue
                verdict, via = parabolic_test(ball, x, s, I)
                assert (verdict == "exits_via") == (via is not None)
    # descent test vs length comparison on random samples
    rng = random.Random(31)
    pool = [(ball_of(n, c)) for n, c in (("A3", 6), ("B3", 9), ("affA2", 10))]
    for _ in range(10 ** 4):
        ball = rng.choice(pool)
        x = rng.choice(ball.elements)
        s = rng.randrange(ball.rank)
        xs = ball.right(x, s)
        if xs is None:
            continue
        assert right_descends(ball, x, s) == (xs.length < x.length)


def words_up_to(rank, cap):
    for n in range(cap + 1):
        for word in itertools.product(range(rank), repeat=n):
            yield word


@criterion(9)
def test_criterion_09_localization_certificates():
    configs = [("A2", 10, I) for I in all_subsets(2)] + \
        [("affA1", 12, frozenset({0}))]
    for name, cap, I in configs:
        ball = ball_of(name, cap)
        calc = LocalCalculus(ball, I)
        assert all(ok for _, ok in relation_oracle(calc))
        for word in words_up_to(ball.rank, 6):
            for e in calc.decompose(word):
                assert calc.check_diagonal(word, e)
                for f in calc.leaves_at(word, e.endpoint):
                    comp = calc.double_leaf(word, e, f)
                    assert comp.endpoint_matched()
                    assert calc.check_triangularity(word, e, f)
            for x in {e.endpoint for e in calc.decompose(word)}:
                assert calc.gram_invertible(word, x)


@criterion(10)
def test_criterion_10_pcanonical_closed_loop():
    start = time.monotonic()
    configs = [("A2", 10, frozenset(), 6), ("A2", 10, frozenset({0}), 6),
               ("affA1", 12, frozenset({0}), 8)]
    for name, cap, I, word_cap in configs:
        ball = ball_of(name, cap)
        calc = LocalCalculus(ball, I)
        table = ParabolicKLTable(ball, I)
        for word in words_up_to(ball.rank, word_cap):
            mults = calc.pcanonical(word)
            total = NElt(ball, I)
            for x, m in mults.items():
                total = total + table.b(x).scale(m)
            assert total == char_of_word(ball, word, I)
    assert time.monotonic() - start < 120


@criterion(11)
def test_criterion_11_defect_oracle():
    for name, cap in (("A2", 10), ("B2", 10), ("affA1", 10)):
        ball = ball_of(name, cap)
        for word in words_up_to(ball.rank, 8):
            h = NElt.unit(ball, frozenset()).mul_b_word(word)
            support = {e.endpoint for e in enumerate_subexprs(ball, word)}
            char = char_of_word(ball, word, frozenset())
            for x in support:
                assert char.coeff(x) == h.coeff(x)
            for x in h.coeffs:
                assert x in support
