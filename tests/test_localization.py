"""Localized standard-summand calculus: generator matrices, light leaves,
intersection forms, and canonical multiplicities."""

import gc
import itertools
import json
import math
import operator
import random
import sys
import weakref
from fractions import Fraction
from types import SimpleNamespace

import pytest

from coxkit import localization
from coxkit.coxeter import CoxeterMatrix, build_ball
from coxkit.errors import (CoxkitError, NotInvertibleError,
                           UnsupportedBraidError,
                           UnsupportedCharacteristicError)
from coxkit.laurent import LaurentPoly
from coxkit.leaves import decorate, path_dom_leq
from coxkit.localization import LocalCalculus, StdMatrix, relation_oracle
from coxkit.scalars import PrimeFieldK, ScalarRing
from field_refs import CycRat, evaluate, prime_field_ops, reduce


@pytest.fixture(scope="module")
def a2():
    return build_ball(CoxeterMatrix.from_type("A2"), 10)


@pytest.fixture(scope="module")
def aff():
    return build_ball(CoxeterMatrix.from_type("affA1"), 12)


def _qcoeff_record(q):
    return {"num": repr(q.num),
            "den_roots": [[q.pr.ring.format(c) for c in root] for root in q.den]}


def _matrix_record(m):
    """A StdMatrix as plain data: summand bits and sorted entries."""
    return {
        "domain": ["".join(map(str, d.bits)) for d in m.domain],
        "codomain": ["".join(map(str, c.bits)) for c in m.codomain],
        "entries": [
            {"row": ri, "col": ci, "value": _qcoeff_record(val)}
            for (ri, ci), val in sorted(m.entries.items())
        ],
    }


def _constant_value(q):
    """The element c of Frac(K) with q == c, or None if q is not constant."""
    if q.num.is_zero():
        return CycRat(q.pr.ring, (0,) * q.pr.ring.deg)
    den = q.den_poly()
    _, nl = q.num.lead()
    _, dl = den.lead()
    if q.num * dl == den * nl:
        return CycRat(q.pr.ring, nl) / CycRat(q.pr.ring, dl)
    return None


def test_decompose(a2):
    calc = LocalCalculus(a2, frozenset({0}))
    # the single-letter word s has no antispherical subexpressions when s in I
    assert calc.decompose((0,)) == ()
    got = {(d.bits, d.endpoint.word) for d in calc.decompose((1,))}
    assert got == {((1,), (1,)), ((0,), ())}
    assert [d.endpoint for d in calc.decompose(())] == [a2.identity]


def test_poly_box_matrix(a2):
    calc = LocalCalculus(a2)
    m = calc.gen_matrix("poly", (0,), 0, poly=calc.pr.alpha(1))
    rec = _matrix_record(m)
    assert rec["domain"] == ["1", "0"]
    assert rec["entries"] == [
        {"row": 0, "col": 0, "value": {"num": "a2", "den_roots": []}},
        {"row": 1, "col": 1, "value": {"num": "a2", "den_roots": []}},
    ]


def test_barbell_matrix(a2):
    calc = LocalCalculus(a2)
    barbell = calc.gen_matrix("enddot", (0,), 0).compose(
        calc.gen_matrix("startdot", (), 0, color=0))
    assert barbell == calc.gen_matrix("poly", (), 0, poly=calc.pr.alpha(0))
    assert _matrix_record(barbell)["entries"][0]["value"]["num"] == "a1"


def test_braid_top_entry_is_one(a2):
    calc = LocalCalculus(a2)
    b = calc.gen_matrix("braid", (0, 1, 0), 0)
    top_d = next(i for i in b.domain if i.bits == (1, 1, 1))
    top_c = next(i for i in b.codomain if i.bits == (1, 1, 1))
    assert b.entry(top_c, top_d) == calc.pr.qi_const(calc.pr.one())
    assert b.endpoint_matched()


def test_unsupported_braids():
    b3 = build_ball(CoxeterMatrix.from_type("B3"), 6)  # m(s2, s3) = 4
    with pytest.raises(UnsupportedBraidError):
        LocalCalculus(b3).gen_matrix("braid", (1, 2, 1, 2), 0)
    h3 = build_ball(CoxeterMatrix.from_type("H3"), 6)  # m(s1, s2) = 5
    with pytest.raises(UnsupportedBraidError):
        LocalCalculus(h3).gen_matrix("braid", (0, 1, 0, 1, 0), 0)


@pytest.mark.parametrize("name,I", [
    ("A2", frozenset()),
    ("A2", frozenset({0})),
    ("B2", frozenset()),
    ("affA1", frozenset({0})),
    # relation_oracle is the only check of the m = 3 braid closed form
    ("A3", frozenset()),
    ("A3", frozenset({1})),
    ("D4", frozenset()),
    ("affA2", frozenset()),
    ("affA2", frozenset({0})),
    ("H3", frozenset()),                # its m = 3 pair; m = 5 is skipped
    ("B3", frozenset()),                # its m = 3 pair; m = 4 is skipped
])
def test_relation_oracle(name, I):
    cap = 12 if name == "affA1" else 10
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    results = relation_oracle(LocalCalculus(ball, I))
    assert results, "oracle must produce checks"
    assert all(ok for _, ok in results), \
        [nm for nm, ok in results if not ok]


def test_relation_oracle_at_nonempty_I_checks_the_braid_table(monkeypatch):
    """The braid rule at a nonempty I is the I = {} table reduced mod I, and
    the reduction can hide a wrong entry: with the sign of -x(alpha_t) /
    x(alpha_s) flipped, every check at I = {s1} on A2 and I = {s2} on A3
    still holds, and only the two-color checks on the I = {} calculus
    fail."""
    flipped = {bits: tuple((fbits, (0, 1) if c == localization._NEG_AT else c)
                           for fbits, c in row)
               for bits, row in localization._BRAIDS[3].items()}
    monkeypatch.setitem(localization._BRAIDS, 3, flipped)
    for name, I in (("A2", frozenset({0})), ("A3", frozenset({1}))):
        ball = build_ball(CoxeterMatrix.from_type(name), 10)
        failed = [nm for nm, ok in relation_oracle(LocalCalculus(ball, I))
                  if not ok]
        assert failed, name
        assert all(nm.startswith("I = {}, pair") for nm in failed), failed


def test_lightleaf_matrix_affine(aff):
    calc = LocalCalculus(aff, frozenset({0}))
    word = (1, 0, 1)
    e = decorate(aff, word, (1, 0, 0))
    m = calc.eval_lightleaf(word, e)
    assert [d.bits for d in m.codomain] == [(1,), (0,)]
    rec = _matrix_record(m)
    assert rec["domain"] == ["111", "110", "101", "100"]
    assert rec["entries"] == [
        {"row": 0, "col": 3, "value": {"num": "-1", "den_roots": [["0", "1"]]}},
        {"row": 1, "col": 2, "value": {"num": "-1", "den_roots": [["0", "1"]]}},
    ]


def pairing(calc, word, x, e, f):
    """The symbolic reference pairing: the top-summand coefficient of
    LL_e o flipped(LL_f) on N_rex(x), composed as StdMatrix over Q_I."""
    if e.endpoint != f.endpoint or e.endpoint != x:
        return calc.pr.qi_const(calc.pr.zero())
    comp = calc.eval_lightleaf(word, e).compose(
        calc.eval_lightleaf(word, f, flipped=True))
    top = next(i for i in comp.domain if i.bits == (1,) * len(i.bits))
    got = comp.entry(top, top)
    return got if got is not None else calc.pr.qi_const(calc.pr.zero())


def test_pairing_is_root_product(a2):
    calc = LocalCalculus(a2)
    word = (0, 0)
    e = decorate(a2, word, (0, 0))
    got = pairing(calc, word, a2.identity, e, e)
    assert got == calc.pr.qi_const(calc.pr.alpha(0) * calc.pr.alpha(0))


def test_triangularity_and_diagonal(a2):
    calc = LocalCalculus(a2)
    word = (0, 1, 0)
    for e in calc.decompose(word):
        assert calc.check_diagonal(word, e)
        for f in calc.leaves_at(word, e.endpoint):
            assert calc.check_triangularity(word, e, f)
            assert calc.double_leaf(word, e, f).endpoint_matched()


def test_gram_invertible(a2, aff):
    calc = LocalCalculus(a2)
    for x in a2.elements:
        assert calc.gram_invertible((0, 1, 0), x)
    calca = LocalCalculus(aff, frozenset({0}))
    for x in {e.endpoint for e in calca.decompose((1, 0, 1, 0))}:
        assert calca.gram_invertible((1, 0, 1, 0), x)


def intersection_forms(calc, word, x):
    """defect d -> matrix of K-constants pairing defect-d rows with
    defect-(-d) columns, read off the symbolic pairings."""
    def constant(e, f):
        c = _constant_value(pairing(calc, word, x, e, f))
        assert c is not None, "non-constant pairing at defect %d" % e.defect
        return c
    return _forms(calc, word, x, constant)


def test_intersection_forms(a2, aff):
    calc = LocalCalculus(a2)
    s = a2.product_of_word((0,))
    forms = intersection_forms(calc, (0, 1, 0), s)
    assert sorted(forms) == [0, 2]
    assert len(forms[0]) == 1 and len(forms[0][0]) == 1
    assert forms[0][0][0].coeffs[0] == -1
    assert forms[2] == [[]]
    assert calc.multiplicity((0, 1, 0), s) == LaurentPoly.const(1)
    calca = LocalCalculus(aff, frozenset({0}))
    t = aff.product_of_word((1,))
    aforms = intersection_forms(calca, (1, 0, 1), t)
    assert sorted(aforms) == [0]
    assert aforms[0][0][0].coeffs[0] == -2
    assert calca.multiplicity((1, 0, 1), t) == LaurentPoly.const(1)


def test_pcanonical_a2(a2):
    calc = LocalCalculus(a2)
    got = {x.word: m for x, m in calc.pcanonical((0, 1, 0)).items()}
    assert got == {(0, 1, 0): LaurentPoly.const(1), (0,): LaurentPoly.const(1)}


def test_pcanonical_b2():
    # b_s b_t b_s b_t = b_stst + 2 b_st in the dihedral group of order 8
    ball = build_ball(CoxeterMatrix.from_type("B2"), 10)
    calc = LocalCalculus(ball)
    for char in (0, 3, 5):
        got = {x.word: m for x, m in calc.pcanonical((0, 1, 0, 1), char=char).items()}
        assert got == {(0, 1, 0, 1): LaurentPoly.const(1),
                       (0, 1): LaurentPoly.const(2)}


def test_pcanonical_affine(aff):
    calc = LocalCalculus(aff, frozenset({0}))
    got = {x.word: m for x, m in calc.pcanonical((1, 0, 1)).items()}
    assert got == {(1, 0, 1): LaurentPoly.const(1), (1,): LaurentPoly.const(1)}


def test_characteristic_validation(a2):
    calc = LocalCalculus(a2)
    with pytest.raises(UnsupportedCharacteristicError):
        calc.pcanonical((0, 1, 0), char=4)
    # y^2 - 2 splits mod 7, so the scalar ring of B2 has no residue field
    b2 = build_ball(CoxeterMatrix.from_type("B2"), 10)
    with pytest.raises(UnsupportedCharacteristicError):
        LocalCalculus(b2).pcanonical((0, 1), char=7)


@pytest.mark.parametrize("name, I, length", [
    ("A3", frozenset(), 6),
    ("A3", frozenset({1}), 6),
    ("A3", frozenset({0, 2}), 6),
    ("A4", frozenset(), 5),
    ("D4", frozenset(), 4),
])
def test_char_2_and_3_match_char_0_where_the_ring_is_z(name, I, length):
    """K = Z for A_n and D_n, so every prime gives a residue field; on
    these words the p-canonical decomposition at p = 2 and 3 equals the
    char-0 one."""
    ball = build_ball(CoxeterMatrix.from_type(name), length)
    assert ball.ring.deg == 1
    calc = LocalCalculus(ball, I)
    words = 0
    for word in _words(ball.rank, length):
        want = calc.pcanonical(word)
        for char in (2, 3):
            assert calc.pcanonical(word, char=char) == want, (word, char)
        words += 1
    assert words == sum(ball.rank ** n for n in range(length + 1))


@pytest.mark.parametrize("name, word, char", [
    ("H3", (0, 1, 0, 2, 1, 0), 2),      # Z[golden ratio]: y^2 - y - 1 is inert mod 2
    ("B3", (0, 1, 2, 1, 0), 3),         # Z[sqrt 2]: y^2 - 2 is inert mod 3
])
def test_char_p_answers_on_h3_and_b3(name, word, char):
    ball = build_ball(CoxeterMatrix.from_type(name), len(word))
    assert ball.ring.deg == 2
    calc = LocalCalculus(ball)
    got = calc.pcanonical(word, char=char)
    assert got and got == calc.pcanonical(word)


# Every m = infinity entry is -2 in the Cartan matrix, so each alpha_s^vee
# vanishes on every simple root mod 2 but not mod 3.
_ALL_INF = CoxeterMatrix.from_json(json.dumps(
    {"rank": 3, "entries": [[1, "inf", "inf"], ["inf", 1, "inf"],
                            ["inf", "inf", 1]]}))


@pytest.mark.parametrize("matrix, I, word", [
    (CoxeterMatrix.from_type("A1"), frozenset(), (0, 0)),
    (CoxeterMatrix.from_type("affA1"), frozenset({0}), (1, 0, 1)),
    (_ALL_INF, frozenset(), (0, 1, 0)),
])
def test_char_2_is_refused_where_the_realization_is_not_demazure_surjective(
        matrix, I, word):
    """alpha_s^vee(alpha_t) is even for every t, so alpha_s^vee is 0 on
    the span of the simple roots mod 2: Elias-Williamson's standing
    hypothesis fails, and char 2 is refused naming it and s."""
    calc = LocalCalculus(build_ball(matrix, len(word)), I)
    with pytest.raises(UnsupportedCharacteristicError,
                       match="not Demazure surjective at characteristic 2: "
                             "alpha_s1\\^vee"):
        calc.pcanonical(word, char=2)
    assert calc.pcanonical(word, char=3) == calc.pcanonical(word)


@pytest.mark.parametrize("name, I, word, char", [
    ("affA1", frozenset({0}), (1, 0, 1, 0, 1), 3),
    ("A2", frozenset(), (0, 1, 0), 2),
    ("A3", frozenset(), (0, 1, 0, 2, 1, 0), 2),
    ("A4", frozenset(), (0, 1, 2, 3, 2, 1), 2),
    ("D4", frozenset(), (0, 1, 2, 1, 3), 2),
    ("H3", frozenset(), (0, 1, 0, 2, 1, 0), 2),
])
def test_demazure_surjective_realizations_still_answer(name, I, word, char):
    """Each alpha_s^vee is nonzero on some simple root mod p (on a
    neighbour with m_st = 3 or 5 at p = 2; alpha_s^vee(alpha_s) = 2 at
    p = 3), so the word still decomposes, its reduced element once."""
    ball = build_ball(CoxeterMatrix.from_type(name), len(word))
    got = LocalCalculus(ball, I).pcanonical(word, char=char)
    assert got[ball.product_of_word(word)] == LaurentPoly.const(1)


def test_stdmatrix_identity_and_compose(a2):
    calc = LocalCalculus(a2)
    dom = calc.decompose((0, 1))
    ident = StdMatrix.identity(dom, calc.pr)
    b = calc.gen_matrix("poly", (0, 1), 0, poly=calc.pr.one())
    assert ident.compose(b) == b
    assert b.compose(ident) == b
    assert (b + b.scale(calc.pr.qi_const(calc.pr.const(-1)))).entries == {}
    # the needle: merge o split is 0, each entry a sum whose terms cancel
    split = calc.gen_matrix("split", (0,), 0)
    merge = calc.gen_matrix("merge", (0, 0), 0)
    assert split.entries and merge.entries
    assert merge.compose(split).entries == {}
    # products are never zero and cancelled sums are dropped, so no matrix
    # of a certificate sweep holds a zero value
    doubles = _certificate_sweep(calc, 4)
    assert len(doubles) > 50
    for cache in (calc._gen_cache, calc._ll_cache, calc._llbar_cache):
        assert len(cache) > 20
        assert not any(v.is_zero() for mat in cache.values()
                       for v in mat.entries.values())
    assert not any(v.is_zero() for mat in doubles for v in mat.entries.values())


def _certificate_sweep(calc, length):
    """The symbolic certificates of `coxkit check localization` on every
    word up to `length`: the double leaves they read, in order."""
    doubles = []
    for word in _words(calc.ball.rank, length):
        for e in calc.indices(word):
            for f in calc.leaves_at(word, e.endpoint):
                assert f is not e or calc.check_diagonal(word, e)
                assert calc.check_triangularity(word, e, f)
                doubles.append(calc.double_leaf(word, e, f))
                assert doubles[-1].endpoint_matched()
    return doubles


def test_light_leaves_compose_each_shared_suffix_once(a2, monkeypatch):
    """Over a certificate sweep, eval_lightleaf composes the ops of step i
    once per orientation and (x_i, word[i:], bits[i:]): its compose calls
    number the step ops summed over those distinct suffixes."""
    calc = LocalCalculus(a2)
    calls = []
    real = StdMatrix.compose

    def counting(self, other):
        if sys._getframe(1).f_code.co_name == "compose_op":
            calls.append(1)
        return real(self, other)

    monkeypatch.setattr(StdMatrix, "compose", counting)
    _certificate_sweep(calc, 4)
    steps = {}
    for word in _words(2, 4):
        for e in calc.indices(word):
            for i in range(len(word)):
                for flipped in (False, True):
                    key = (flipped, e.stroll[i].idx, word[i:], e.bits[i:])
                    steps[key] = len(calc._step_ops(
                        e.stroll[i], word[i], e.decorations[i], word[i + 1:]))
    # what composing every leaf op by op takes in one orientation
    per_leaf = sum(len(_ll_ops(calc, word, e)) for word in _words(2, 4)
                   for e in calc.indices(word))
    assert len(calls) == sum(steps.values()) < per_leaf


@pytest.mark.parametrize("I, length, distinct", [
    (frozenset(), 4, 144),
    (frozenset({0}), 5, 104),
])
def test_leaf_representations_share_one_walk(a2, monkeypatch, I, length,
                                             distinct):
    """The symbolic leaves and their flips (certificates) and the top rows
    at the point (gram_invertible) are one walk from the end (_from_end):
    the ops of a step are read once per (x_i, s, decoration, word[i+1:]),
    and the three caches keep one key set."""
    calc = LocalCalculus(a2, I)
    calls = []
    real = LocalCalculus._step_ops

    def counting(self, x, s, dec, suffix):
        calls.append((x.idx, s, dec, suffix))
        return real(self, x, s, dec, suffix)

    monkeypatch.setattr(LocalCalculus, "_step_ops", counting)
    _certificate_sweep(calc, length)
    for word in _words(2, length):
        for x in {e.endpoint for e in calc.indices(word)}:
            assert calc.gram_invertible(word, x)
    assert len(calls) == len(set(calls)) == distinct
    assert calc._ll_cache.keys() == calc._llbar_cache.keys() \
        == calc._vec_cache.keys()


# A point off every root hyperplane that the words below meet.
_POINT = (1000003, 1000033, 1000037)


def _calc_at(ball, I, point):
    """A fresh calculus that evaluates at `point` instead of its own: set
    before its first call, so every cached value is read there."""
    calc = LocalCalculus(ball, I)
    calc._point = point
    return calc


def _draws(rank, k):
    """The first k points of the sequence a calculus draws its point from."""
    rng = random.Random(20231115)
    return [tuple(rng.randint(10 ** 6, 10 ** 7) for _ in range(rank))
            for _ in range(k)]


# -- per-pair references ------------------------------------------------------
# The numeric pairing and forms as LocalCalculus computed them before forms
# were assembled by transpose pair (pairing_matrix) from shared top rows.

def pairing_value(calc, word, e, f):
    """The (constant) pairing of e with f, read off by exact evaluation
    at the calculus' point by the localization formula

        <e, f> = E_top(x)^-1 sum_g LL_e[top, g] LL_f[top, g] E(g)

    over the summands g of N_word, E the Euler class (_euler) and x the
    common endpoint.  Returns (coeffs, den) in lowest terms: integral K
    coefficients over a positive integer denominator."""
    word = tuple(word)
    row, rden = calc._top_vector(word, e)
    col, cden = calc._top_vector(word, f)
    adj, norm = calc._top_inverse(e.endpoint)
    euler = calc._euler_table(word)
    mul = calc.pr.ring.mul
    total = (0,) * len(adj)
    for bits, v in row.items():
        w = col.get(bits)
        if w is not None:
            total = tuple(map(operator.add, total,
                              mul(mul(v, w), euler[bits])))
    total = mul(total, adj)
    den = rden * cden * norm
    g = math.gcd(den, *total)
    return tuple(a // g for a in total), den // g


def _forms(calc, word, x, pair):
    """defect d -> matrix of pair(e, f) over the leaves e of defect d at
    x (rows) and the leaves f of defect -d (columns)."""
    by_defect = {}
    for e in calc.leaves_at(word, x):
        by_defect.setdefault(e.defect, []).append(e)
    return {d: [[pair(e, f) for f in by_defect.get(-d, [])] for e in rows]
            for d, rows in sorted(by_defect.items())}


def _numeric_matrix(calc, op, flipped=False):
    """A generator matrix evaluated at the point as a whole, the rule
    read forward over every summand of its domain word, as (rows, den):
    rows maps each bits a top vector enters by to [(bits it leaves by,
    integral coefficients)], and den > 0 is the one integer denominator of
    every entry.  Flipped, the matrix of the flipped op, entered by its
    domain: the top column of a flipped leaf propagates through it.  The
    numeric path built every generator this way before it read rows on
    demand."""
    kind, w, site, color = calc._flip_op(op) if flipped else op
    window = calc._window(kind, w, site)
    end = site + len(window)
    cod = calc._codomain(kind, w, site, color)
    cbits = {c.bits for c in calc.indices(cod)}
    entries = []
    for d in calc.indices(w):
        b = d.bits
        for fwin, term in calc._rule(kind, window, d.stroll[site],
                                     b[site:end], color):
            fbits = b[:site] + fwin + b[end:]
            if fbits not in cbits:
                continue
            num, den = calc._term_value(term)
            if not any(num):
                continue
            g = math.gcd(den, *num)
            if g > 1:
                num, den = tuple(a // g for a in num), den // g
            src, dst = (b, fbits) if flipped else (fbits, b)
            entries.append((src, dst, num, den))
    den = math.lcm(*(d for _, _, _, d in entries))
    rows = {}
    for src, dst, num, d in entries:
        k = den // d
        if k > 1:
            num = tuple(a * k for a in num)
        rows.setdefault(src, []).append((dst, num))
    return rows, den


def _ll_ops(calc, word, e):
    """The generator program of the light leaf of e: list of
    (kind, domain word, site, color) acting N_word -> N_canonical_rex,
    the ops of every step (_step_ops) in order."""
    ops = []
    for i, s in enumerate(word):
        ops += calc._step_ops(e.stroll[i], s, e.decorations[i],
                              tuple(word[i + 1:]))
    return ops


def _per_leaf_top_vector(calc, word, e, matrices, flipped=False):
    """Top row of LL_e evaluated at the point, as (integral
    coefficients by bits, one integer denominator), propagated through the
    leaf's whole program, each generator a whole matrix (_numeric_matrix,
    kept in the dict `matrices`); flipped, the top column of the flipped
    leaf."""
    ring = calc.pr.ring
    vec = {(1,) * e.endpoint.length: calc._one}
    den = 1
    for op in reversed(_ll_ops(calc, word, e)):
        key = (op, flipped)
        got = matrices.get(key)
        if got is None:
            got = matrices[key] = _numeric_matrix(calc, op, flipped)
        rows, mden = got
        new = {}
        for src, v in vec.items():
            for dst, m in rows.get(src, ()):
                w = ring.mul(v, m)
                cur = new.get(dst)
                new[dst] = w if cur is None else tuple(map(operator.add, cur, w))
        vec = {k: v for k, v in new.items() if any(v)}
        if not vec:
            break
        den *= mden
        g = math.gcd(den, *(a for v in vec.values() for a in v))
        if g > 1:
            vec = {k: tuple(a // g for a in v) for k, v in vec.items()}
            den //= g
    return vec, den


def _per_pair_gram_invertible(calcs, word, x):
    """gram_invertible with every entry of the Gram matrix read by
    pairing_value, at the points of its own calculi (_per_pair_calcs): full
    rank at one of them certifies."""
    leaves = calcs[0].leaves_at(word, x)
    return not leaves or any(
        calc._rank([[pairing_value(calc, word, e, f) for f in leaves]
                    for e in leaves]) == len(leaves) for calc in calcs)


def _per_pair_calcs(ball, I, seed=11):
    """Three calculi at three points of their own, one per point."""
    rng = random.Random(seed)
    return [_calc_at(ball, I, tuple(rng.randint(10 ** 4, 10 ** 6)
                                    for _ in range(ball.rank)))
            for _ in range(3)]


@pytest.mark.parametrize("name, cap, I, length", [
    ("A2", 10, frozenset(), 4),         # K = Z
    ("A2", 10, frozenset({0}), 5),
    ("affA1", 12, frozenset({0}), 5),
    ("A3", 6, frozenset(), 4),          # K = Z
    ("B3", 6, frozenset(), 3),          # deg K = 2; an m = 4 braid needs length 4
    ("H3", 6, frozenset(), 4),          # deg K = 2; an m = 5 braid needs length 5
    ("I2_12", 4, frozenset(), 4),       # deg K = 4, no braid below length 12
    ("I2_30", 4, frozenset(), 4),       # deg K = 8
])
def test_pairing_value_matches_symbolic_pairing(name, cap, I, length):
    """The fraction-free numeric pairing equals the constant of the symbolic
    StdMatrix pairing for every defect-sum-zero leaf pair of every word up
    to `length`."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    calc = _calc_at(ball, I, _POINT[:ball.rank])
    pairs = 0
    for word in itertools.chain.from_iterable(
            itertools.product(range(ball.rank), repeat=n)
            for n in range(length + 1)):
        for e in calc.indices(word):
            for f in calc.leaves_at(word, e.endpoint):
                if e.defect + f.defect:
                    continue
                want = _constant_value(pairing(calc, word, e.endpoint, e, f))
                assert want is not None
                got = pairing_value(calc, word, e, f)
                assert _pair_cycrat(ball.ring, got) == want, (word, e, f)
                pairs += 1
    assert pairs > 20


def _evaluated_entries(calc, mat, point, flipped):
    """The nonzero entries of a symbolic generator matrix at a point through
    evaluate, keyed (bits a top vector enters by, bits it leaves by)."""
    out = {}
    for (ri, ci), q in mat.entries.items():
        val = CycRat(calc.pr.ring, evaluate(q.num, point))
        for root in q.den:
            val = val / CycRat(calc.pr.ring, evaluate(calc.pr.linear(root), point))
        if not val.is_zero():
            src, dst = mat.codomain[ri].bits, mat.domain[ci].bits
            out[(dst, src) if flipped else (src, dst)] = val
    return out


# Every word up to the length stays below any m >= 4 braid.
_LEAF_CASES = [
    ("A2", 10, frozenset(), 4),         # K = Z
    ("A2", 10, frozenset({0}), 5),
    ("affA1", 12, frozenset({0}), 5),
    ("A3", 6, frozenset(), 4),          # K = Z, integer layout
    ("B3", 6, frozenset(), 3),          # deg K = 2, coefficient layout
    ("H3", 6, frozenset(), 4),          # deg K = 2, coefficient layout
    ("A3", 6, frozenset({1}), 4),       # braid moves mod I: 196 over its leaves
]


def _words(rank, length):
    return itertools.chain.from_iterable(
        itertools.product(range(rank), repeat=n) for n in range(length + 1))


@pytest.mark.parametrize("name, cap, I, length", _LEAF_CASES)
def test_numeric_matrix_matches_evaluated_gen_matrix(name, cap, I, length):
    """Every light-leaf generator G: N_w -> N_w', its row at each codomain
    summand read off the window rule at a point (_row), equals its symbolic
    matrix evaluated there entry by entry, each row naming only summands
    of w; and the evaluated symbolic flip of G is G transposed and
    weighted by the Euler classes: flip(G)[d, c] = G[c, d] E_w(d) / E_w'(c),
    the identity behind the localization formula of pairing_value."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    point = _POINT[:ball.rank]
    calc = _calc_at(ball, I, point)
    ops = {op for word in _words(ball.rank, length)
           for e in calc.indices(word) for op in _ll_ops(calc, word, e)}
    kinds = {op[0] for op in ops}
    braid_free = name == "affA1" or (name == "A2" and I)
    assert kinds >= {"enddot", "merge"} | (set() if braid_free else {"braid"})
    for op in sorted(ops):
        kind, w, site, color = op
        want = _evaluated_entries(
            calc, calc.gen_matrix(kind, w, site, color=color), point, False)
        summands = {d.bits for d in calc.indices(w)}
        got = {}
        for c in calc.indices(calc._codomain(kind, w, site, color)):
            row, den = calc._row(op, {}, c.bits)
            assert isinstance(den, int) and den > 0
            assert all(isinstance(a, int) for _, num in row for a in num)
            assert {dst for dst, _ in row} <= summands, (op, c)
            got.update({(c.bits, dst): CycRat(ball.ring, (Fraction(a, den)
                                                          for a in num))
                        for dst, num in row})
        assert got == want, op

        # the flipped half: N_w' -> N_w, keyed (c, d) like `got`
        fkind, fw, fsite, fcolor = calc._flip_op(op)
        flipped = _evaluated_entries(
            calc, calc.gen_matrix(fkind, fw, fsite, color=fcolor), point, True)
        euler_w = calc._euler_table(w)
        euler_cod = calc._euler_table(calc._codomain(kind, w, site, color))
        weighted = {(c, d): val * CycRat(ball.ring, euler_w[d])
                    / CycRat(ball.ring, euler_cod[c])
                    for (c, d), val in got.items()}
        assert flipped == weighted, op


class _FlippedColumnPairing:
    """The numeric pairing as it was computed before the localization
    formula, kept as the reference: the top row of LL_e dotted with the top
    column of the flipped leaf of f, each propagated through the whole
    generator matrices at the point (_per_leaf_top_vector; the flipped
    generators read from the rule of _flip_op)."""

    def __init__(self, calc):
        self.calc = calc
        self._matrices = {}
        self._vec_cache = {}

    def _top_vector(self, word, e, flipped):
        key = (word, e.bits, flipped)
        got = self._vec_cache.get(key)
        if got is None:
            got = self._vec_cache[key] = _per_leaf_top_vector(
                self.calc, word, e, self._matrices, flipped)
        return got

    def pairing_value(self, word, e, f):
        word = tuple(word)
        row, rden = self._top_vector(word, e, flipped=False)
        col, cden = self._top_vector(word, f, flipped=True)
        ring = self.calc.pr.ring
        total = [0] * ring.deg
        for bits, v in row.items():
            w = col.get(bits)
            if w is not None:
                total = list(map(operator.add, total, ring.mul(v, w)))
        den = rden * cden
        g = math.gcd(den, *total)
        return tuple(a // g for a in total), den // g


@pytest.mark.parametrize("name, cap, I, length", _LEAF_CASES + [
    ("I2_12", 4, frozenset(), 4),       # deg K = 4
    ("I2_30", 4, frozenset(), 4),       # deg K = 8
])
def test_pairing_value_matches_flipped_column_pairing(name, cap, I, length):
    """The localization formula gives, in lowest terms, the pairing of the
    top row of LL_e with the top column of the flipped leaf of f, for every
    pair of leaves with a common endpoint (any defects) of every word up to
    `length`."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    point = _POINT[:ball.rank]
    calc = _calc_at(ball, I, point)
    ref = _FlippedColumnPairing(_calc_at(ball, I, point))
    pairs = 0
    for word in _words(ball.rank, length):
        for e in calc.indices(word):
            for f in calc.leaves_at(word, e.endpoint):
                want = ref.pairing_value(word, e, f)
                assert pairing_value(calc, word, e, f) == want, (word, e, f)
                pairs += 1
    assert pairs > 50


@pytest.mark.parametrize("name, cap, I, length", _LEAF_CASES)
def test_pairing_matrix_matches_pairing_value(name, cap, I, length):
    """Every entry pairing_matrix assembles equals the per-pair pairing:
    symmetric over all leaves at x (as gram_invertible reads it) and as the
    defect-d rows against the defect -d columns (as multiplicity reads it),
    every defect included.  The form at -d is the transpose of the form at
    d, so its rank is the same over any field."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    calc, ref = LocalCalculus(ball, I), LocalCalculus(ball, I)
    entries = transposed = 0
    for word in _words(ball.rank, length):
        for x in {e.endpoint for e in calc.indices(word)}:
            leaves = calc.leaves_at(word, x)
            want = [[pairing_value(ref, word, e, f) for f in leaves]
                    for e in leaves]
            assert calc.pairing_matrix(word, leaves, leaves) == want
            entries += len(leaves) ** 2
            forms = _forms(ref, word, x,
                           lambda e, f: pairing_value(ref, word, e, f))
            by_defect = {}
            for e in leaves:
                by_defect.setdefault(e.defect, []).append(e)
            for d, form in forms.items():
                got = calc.pairing_matrix(word, by_defect[d],
                                          by_defect.get(-d, []))
                assert got == form, (word, x, d)
                if -d in forms:
                    assert forms[-d] == [list(col) for col in zip(*form)]
                    transposed += d > 0
    assert entries > 100 and transposed > 0


@pytest.mark.parametrize("name, cap, I, length", _LEAF_CASES)
def test_multiplicity_matches_the_ranks_of_every_form(name, cap, I, length):
    """multiplicity ranks only the forms at d >= 0 and counts each d > 0
    twice; it equals sum_d v^-d rank(form at d) over every defect, at char
    0 and at char 3 (a residue field of every ring here)."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    calc, ref = LocalCalculus(ball, I), LocalCalculus(ball, I)
    field = PrimeFieldK(ball.ring, 3)
    graded = 0
    for word in _words(ball.rank, length):
        for x in {e.endpoint for e in calc.indices(word)}:
            forms = _forms(ref, word, x,
                           lambda e, f: pairing_value(ref, word, e, f))
            for char in (0, 3):
                want = LaurentPoly.zero()
                for d, form in forms.items():
                    rank = _gauss_jordan_rank(
                        [[_pair_cycrat(ball.ring, c) for c in row]
                         for row in form]) if not char else \
                        field.rank([[reduce(field, *c) for c in row]
                                    for row in form])
                    want = want + LaurentPoly.v(-d, rank)
                got = calc.multiplicity(word, x, char=char)
                assert got == want, (word, x, char)
                graded += any(d for d in got.coeffs)
    assert graded > 0


@pytest.mark.parametrize("name, cap, I, length", _LEAF_CASES)
def test_shared_top_rows_match_per_leaf_propagation(name, cap, I, length):
    """The top row of every leaf of every word, read through the partial
    rows that _top_vector shares along suffixes, equals the leaf's whole
    program propagated from scratch, denominator included, and fewer
    partial rows are kept than the leaves' steps."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    calc, fresh = LocalCalculus(ball, I), LocalCalculus(ball, I)
    matrices = {}
    steps = 0
    for word in _words(ball.rank, length):
        for e in calc.indices(word):
            got = calc._top_vector(word, e)
            assert got == _per_leaf_top_vector(fresh, word, e,
                                               matrices), (word, e)
            steps += len(word) + 1
    assert all(isinstance(den, int) and den > 0
               for _, den in calc._vec_cache.values())
    assert len(calc._vec_cache) < steps / 2


# The certificates workload's cases (CERTIFICATE_CASES of
# perfbench/workloads.py).
@pytest.mark.parametrize("name, cap, I, length", [
    ("A2", 10, frozenset(), 4),
    ("A2", 10, frozenset({0}), 5),
    ("affA1", 12, frozenset({0}), 4),
])
def test_gram_verdicts_match_the_per_pair_reference(name, cap, I, length):
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    calc, refs = LocalCalculus(ball, I), _per_pair_calcs(ball, I)
    verdicts = 0
    for word in _words(ball.rank, length):
        for x in {e.endpoint for e in calc.indices(word)}:
            want = _per_pair_gram_invertible(refs, word, x)
            assert calc.gram_invertible(word, x) == want, (word, x)
            verdicts += 1
    assert verdicts > 20


@pytest.mark.parametrize("name, cap, I, length", _LEAF_CASES)
def test_top_rows_are_triangular_in_path_dominance(name, cap, I, length):
    """The triangularity lemma of the localization module docstring, for
    every leaf e at x of every word: the top row of LL_e at the point is
    supported on summands g with endpoint x and g <= e in path dominance,
    so the Gram matrix's L is square and triangular; and the symbolic
    diagonal entry LL_e[top, e] is a unit times a ratio of roots, dividing
    to a unit over e's stroll roots and its own denominator roots (as
    check_diagonal divides)."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    calc = LocalCalculus(ball, I)
    leaves = 0
    for word in _words(ball.rank, length):
        summands = {g.bits: g for g in calc.indices(word)}
        for e in summands.values():
            x = e.endpoint
            vec, _ = calc._top_vector(word, e)
            assert e.bits in vec, (word, e)
            for bits in vec:
                g = summands[bits]
                assert g.endpoint == x and path_dom_leq(ball, g, e), (word, e, g)
            top = SimpleNamespace(bits=(1,) * x.length)
            val = calc.eval_lightleaf(word, e).entry(top, e)
            roots = dict.fromkeys(
                calc.diagonal_root_candidates(word, e) + list(val.den))
            assert localization._divides_to_unit(
                calc.pr, val.num, [calc._divisor(r) for r in roots]), (word, e)
            leaves += 1
    assert leaves > 100


@pytest.mark.parametrize("name, cap, I, length", _LEAF_CASES)
def test_no_root_outside_the_span_of_I_vanishes_at_the_points(name, cap, I,
                                                               length):
    """The positivity lemma of the localization module docstring: at the
    calculus' point and at the next two draws of its sequence, x(alpha_t)
    mod I evaluates to 0 exactly when it is 0 in Q_I (reduce_root_mod_I
    refuses it), for every element x of the ball and every t."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    calcs = [_calc_at(ball, I, point) for point in _draws(ball.rank, 3)]
    assert calcs[0]._point == LocalCalculus(ball, I)._point
    checks = 0
    for x in ball.elements:
        for calc in calcs:
            values = calc._stroll_values(x)
            for t in range(ball.rank):
                try:
                    calc.pr.reduce_root_mod_I(ball.root_image(x, t), I)
                    refused = False
                except NotInvertibleError:
                    refused = True
                assert (not any(values[t])) == refused, (x, t, calc._point)
                checks += 1
    assert checks >= 3 * len(ball) * ball.rank



def _multiplicity_forms(calc, word, x):
    """The forms multiplicity ranks, assembled at the calculus' point."""
    by_defect = {}
    for e in calc.leaves_at(word, x):
        by_defect.setdefault(e.defect, []).append(e)
    return {d: calc.pairing_matrix(word, rows, by_defect[-d])
            for d, rows in sorted(by_defect.items())
            if d >= 0 and -d in by_defect}


@pytest.mark.parametrize("name, cap, I, length", _LEAF_CASES)
def test_forms_are_integral_and_point_independent(name, cap, I, length):
    """The pairings at defect sum zero lie in K, so the forms multiplicity
    ranks have denominator 1 and read the same at any point with positive
    coordinates: at the calculus' point, at the next draw of its sequence
    and at (1, ..., 1), for every word and endpoint.  So multiplicity at
    char 0 and char 5 is the same when the calculus evaluates at the
    all-ones point (char 3 on H3, whose ring does not reduce to a field
    mod 5)."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    calc = LocalCalculus(ball, I)
    second = _calc_at(ball, I, _draws(ball.rank, 2)[1])
    ones = _calc_at(ball, I, (1,) * ball.rank)
    chars = (0, 3) if name == "H3" else (0, 5)
    pairs = 0
    for word in _words(ball.rank, length):
        for x in {e.endpoint for e in calc.indices(word)}:
            forms = _multiplicity_forms(calc, word, x)
            assert all(den == 1 for form in forms.values()
                       for row in form for _, den in row), (word, x)
            for other in (second, ones):
                assert _multiplicity_forms(other, word, x) == forms, \
                    (word, x, other._point)
            for char in chars:
                assert ones.multiplicity(word, x, char=char) == \
                    calc.multiplicity(word, x, char=char), (word, x, char)
            pairs += 1
    assert pairs > 20


def test_char_p_refusal_of_a_form_entry_is_raised(a2):
    """_rank refuses a form with an entry whose denominator p divides, as
    the reference reduce does, and multiplicity raises that refusal as it
    is.  The pairings of defect sum zero lie in K, so no supported word has
    such an entry: here the one entry of the defect-0 form of s1 s2 s1 at
    s1, -1, is divided by 7."""
    word, s = (0, 1, 0), a2.product_of_word((0,))
    calc = LocalCalculus(a2)
    real = calc.pairing_matrix

    def one_entry_over_7(word, rows, cols):
        form = real(word, rows, cols)
        assert form == [[((-1,), 1)]]
        return [[((-1,), 7)]]

    calc.pairing_matrix = one_entry_over_7
    for refuse in (lambda: calc.multiplicity(word, s, char=7),
                   lambda: reduce(PrimeFieldK(a2.ring, 7), (-1,), 7)):
        with pytest.raises(UnsupportedCharacteristicError,
                           match="denominator divisible by 7 in scalar "
                                 "reduction"):
            refuse()
    assert calc.multiplicity(word, s, char=5) == LaurentPoly.const(1)
    assert calc.multiplicity(word, s) == LaurentPoly.const(1)


def test_evaluation_points_are_drawn_once_per_calculus(a2, monkeypatch):
    """multiplicity and gram_invertible read one point, the first of one
    random.Random(20231115) sequence, drawn once per calculus and kept for
    every (word, x); gram_invertible assembles its Gram matrix once."""
    want = _draws(2, 1)[0]
    builds = []

    class Counting(random.Random):
        def __init__(self, seed):
            builds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(localization, "random",
                        SimpleNamespace(Random=Counting))
    calc = LocalCalculus(a2)
    seen = []
    real = calc.pairing_matrix

    def recording(word, rows, cols):
        seen.append(calc._point)
        return real(word, rows, cols)

    calc.pairing_matrix = recording
    assert calc.gram_invertible((0, 1, 0), a2.product_of_word((0,)))
    assert seen == [want]
    for word in _words(2, 4):
        calc.pcanonical(word)
    assert builds == [20231115]
    assert calc._point == want and set(seen) == {want} and len(seen) > 1


def test_pcanonical_builds_no_symbolic_matrix(monkeypatch):
    """The numeric path reads every generator, m = 3 braid moves included,
    from its rule at the point: with gen_matrix refusing, pcanonical still
    returns the decomposition."""
    ball = build_ball(CoxeterMatrix.from_type("A3"), 6)
    word = (0, 1, 0, 2, 1, 0)
    calc = LocalCalculus(ball)
    assert any(op[0] == "braid" and calc._mst(op[1][op[2]], op[1][op[2] + 1]) == 3
               for e in calc.indices(word) for op in _ll_ops(calc, word, e))

    def refuse(*args, **kwargs):
        raise AssertionError("pcanonical built a symbolic matrix")

    monkeypatch.setattr(LocalCalculus, "gen_matrix", refuse)
    one = LaurentPoly.const(1)
    want = {(0, 1, 0, 2, 1, 0): one, (0, 1, 0, 2): one, (0, 2, 1, 0): one,
            (0, 1, 0): LaurentPoly.v(-1) + LaurentPoly.v(1), (0, 2): one}
    for char in (0, 5):
        got = LocalCalculus(ball).pcanonical(word, char=char)
        assert {x.word: m for x, m in got.items()} == want, char


@pytest.mark.parametrize("name, cap, I, word", [
    ("A3", 6, frozenset(), (0, 1, 0, 2, 1, 0)),
    ("A3", 6, frozenset(), (1, 0, 2, 1, 0, 2)),
    ("affA1", 12, frozenset({0}), (1, 0, 1, 0, 1, 0)),
])
@pytest.mark.parametrize("char", [0, 5])
def test_pcanonical_enumerates_only_the_word_itself(name, cap, I, word, char):
    """The numeric path reads each generator's rows off its window rule, so
    a fresh calculus enumerates the subexpressions of the word it is asked
    about and of no intermediate word of a light-leaf program."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    calc = LocalCalculus(ball, I)
    assert calc.pcanonical(word, char=char)
    assert any(op[1] != word
               for e in calc.indices(word) for op in _ll_ops(calc, word, e))
    assert list(calc._indices) == [word]


def _same_qcoeff(a, b):
    """Equal as written, not only as elements of Q_I."""
    return a.num.coeffs == b.num.coeffs and a.den == b.den


@pytest.mark.parametrize("name, cap, I, length", _LEAF_CASES)
def test_diagonal_is_the_entry_of_the_full_double_leaf(name, cap, I, length):
    """check_diagonal reads entry (e, e) of double_leaf(word, e, e): its
    verdict and that entry equal those of a fresh calculus, the entry
    written the same way."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    calc, fresh = LocalCalculus(ball, I), LocalCalculus(ball, I)
    for word in _words(ball.rank, length):
        for e in calc.indices(word):
            verdict = calc.check_diagonal(word, e)
            got = calc.double_leaf(word, e, e).entry(e, e)
            want = fresh.double_leaf(word, e, e).entry(e, e)
            assert got is not None and _same_qcoeff(got, want), (word, e)
            assert verdict and verdict == fresh.check_diagonal(word, e)


def test_qi_sums_stay_shared_without_a_memo(a2):
    """A sum of two values of a certificate sweep comes back as the ring's
    one object for its structure, each time it is asked; Q_I values and
    matrices over them stay unhashable, as their equality is semantic."""
    calc = LocalCalculus(a2)
    for word in _words(2, 3):
        for e in calc.indices(word):
            assert calc.check_diagonal(word, e)
    table = calc.pr._qi_table
    values = list(table.values())[:40]
    assert len(values) == 40
    for a, b in itertools.product(values, repeat=2):
        total = a + b
        assert (a + b) is total, (a, b)
        assert table[(frozenset(total.num.coeffs.items()), total.den)] is total
    e = calc.indices((0,))[0]
    for unhashable in (values[0], calc.double_leaf((0,), e, e)):
        with pytest.raises(TypeError):
            hash(unhashable)


def test_double_leaf_memo_is_keyed_by_word(a2):
    # the two words have leaves with the same bits, so a memo keyed by the
    # bits alone would hand the double leaf of one word to the other
    calc = LocalCalculus(a2)
    words = ((0, 1, 0), (1, 0, 1))
    leaves = [{e.bits: e for e in calc.indices(w)} for w in words]
    shared = sorted(set(leaves[0]) & set(leaves[1]))
    assert len(shared) == 8
    pairs = 0
    for eb, fb in itertools.product(shared, repeat=2):
        for word, by_bits in zip(words, leaves):
            e, f = by_bits[eb], by_bits[fb]
            if e.endpoint != f.endpoint:
                continue
            got = calc.double_leaf(word, e, f)
            want = LocalCalculus(a2).double_leaf(word, e, f)
            assert got == want and got.domain == want.domain, (word, eb, fb)
            pairs += 1
    assert pairs > 20


def _triangular_per_entry(calc, word, e, f):
    """Triangularity with path_dom_leq called on every nonzero entry."""
    comp = calc.double_leaf(word, e, f)
    return all(path_dom_leq(calc.ball, comp.domain[ci], e)
               and path_dom_leq(calc.ball, comp.codomain[ri], f)
               for (ri, ci), val in comp.entries.items() if not val.is_zero())


@pytest.mark.parametrize("name, cap, I, length", _LEAF_CASES)
def test_triangularity_by_down_sets_matches_per_entry(name, cap, I, length):
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    calc = LocalCalculus(ball, I)
    for word in _words(ball.rank, length):
        leaves = calc.indices(word)
        for e in leaves:
            below = {d.bits for d in leaves if path_dom_leq(ball, d, e)}
            assert calc._down_set(word, e) == below, (word, e)
            for f in calc.leaves_at(word, e.endpoint):
                want = _triangular_per_entry(calc, word, e, f)
                assert calc.check_triangularity(word, e, f) == want, (word, e, f)


def test_root_zero_mod_I_is_not_invertible(a2):
    # 1 / alpha_1 at the prefix e: alpha_1 is 0 in Q_I for I = {s1}, so both
    # readers of the rule refuse it, whatever the point; for I = {} it
    # vanishes only at a point off the positive orthant, which breaks the
    # invariant the numeric path rests on
    term = ("inv", a2.identity, 0, 1)
    calc = _calc_at(a2, frozenset({0}), _POINT[:2])
    with pytest.raises(NotInvertibleError):
        calc._term_qcoeff(term)
    with pytest.raises(NotInvertibleError):
        calc._term_value(term)
    with pytest.raises(CoxkitError, match="positivity lemma"):
        _calc_at(a2, frozenset(), (0, 7))._term_value(term)


def test_char_p_accepts_p_in_a_running_denominator_that_cancels(a2):
    """p may divide the running denominator of a top vector when it cancels
    in the pairing: 7 does, for the row of s1 s2 s1 at s1 at the point that
    multiplicity picks, and char 7 still works."""
    word, x = (0, 1, 0), a2.product_of_word((0,))
    calc = LocalCalculus(a2)
    assert calc.multiplicity(word, x, char=7) == LaurentPoly.const(1)
    assert any(den % 7 == 0 for _, den in calc._vec_cache.values())


@pytest.mark.parametrize("I", [frozenset(), frozenset({0})])
def test_finished_calculus_is_freed_by_reference_counting(a2, I):
    # a reference cycle through a calculus would keep all its caches alive
    # until the cycle collector runs, so one-shot callers pile them up
    gc.disable()
    try:
        calc = LocalCalculus(a2, I)
        calc.pcanonical((1, 0, 1))
        ref = weakref.ref(calc)
        del calc
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("I", [frozenset(), frozenset({0})])
def test_calculus_that_checked_certificates_is_freed_by_reference_counting(
        a2, I):
    gc.disable()
    try:
        calc = LocalCalculus(a2, I)
        word = (1, 0, 1)
        for e in calc.indices(word):
            assert calc.check_diagonal(word, e)
            for f in calc.leaves_at(word, e.endpoint):
                assert calc.check_triangularity(word, e, f)
        ref = weakref.ref(calc)
        del calc
        assert ref() is None
    finally:
        gc.enable()


def _rank(rows, field):
    """Rank by Gauss-Jordan elimination with the operations of `field`
    (_FRAC_K, or prime_field_ops of a PrimeFieldK)."""
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    rows = [row[:] for row in rows]
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows))
                    if not field.is_zero(rows[r][col])), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(a, inv) for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not field.is_zero(rows[r][col]):
                f = rows[r][col]
                rows[r] = [field.sub(a, field.mul(f, b))
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


# Frac(K) on CycRat entries under prime_field_ops' operation names: with it,
# _rank is Gauss-Jordan over Frac(K), the reference for the char-0 ranks
# (with prime_field_ops, the reference for the char-p ranks).
_FRAC_K = SimpleNamespace(is_zero=lambda a: a.is_zero(),
                          inv=lambda a: a.inverse(),
                          mul=operator.mul, sub=operator.sub)


def _gauss_jordan_rank(form):
    return _rank(form, _FRAC_K)


def _pair_cycrat(ring, value):
    """A pairing value (coeffs, den), in lowest terms with den > 0, as a
    CycRat."""
    coeffs, den = value
    assert den > 0 and math.gcd(den, *coeffs) == 1
    return CycRat(ring, (Fraction(a, den) for a in coeffs))


def _cycrat_pair(c):
    """A CycRat as a pairing value (coeffs, den)."""
    den = math.lcm(*(q.denominator for q in c.coeffs))
    return tuple(q.numerator * (den // q.denominator) for q in c.coeffs), den


@pytest.mark.parametrize("name, deg", [("A2", 1), ("I2_6", 2), ("I2_12", 4),
                                       ("I2_30", 8)])
def test_inverse_is_adj_over_a_positive_norm_in_lowest_terms(name, deg):
    ball = build_ball(CoxeterMatrix.from_type(name), 1)
    ring = ball.ring
    assert ring.deg == deg
    calc = LocalCalculus(ball)
    rng = random.Random(deg)
    negative = 0
    for _ in range(100):
        r = tuple(rng.randint(-30, 30) for _ in range(deg))
        if not any(r):
            continue
        adj, norm = calc._inverse(r)
        assert norm > 0 and math.gcd(norm, *adj) == 1
        assert ring.mul(r, adj) == (norm,) + (0,) * (deg - 1)
        negative += ring.adjugate(r)[1] < 0
    assert negative > 10


@pytest.mark.parametrize("name, n", [("A2", 1), ("I2_5", 5), ("I2_12", 12)])
def test_bareiss_rank_matches_gauss_jordan(name, n):
    """The char-0 rank (rows scaled to integral K tuples, then fraction-free
    Bareiss on the regular representation) equals the Gauss-Jordan rank
    over CycRat: K = Z (N = 1) and Z[theta] with N = 5 and 12, on empty and
    1 x 1 forms, zero columns and products of random factors of every inner
    rank."""
    ball = build_ball(CoxeterMatrix.from_type(name), 2)
    ring = ball.ring
    assert ring.n == n and ring.deg == {1: 1, 5: 2, 12: 4}[n]
    calc = LocalCalculus(ball)
    rng = random.Random(n)
    zero = CycRat(ring, (0,) * ring.deg)

    def entry():
        return CycRat(ring, (Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                             for _ in range(ring.deg)))

    forms = [[], [[]], [[], []], [[zero]], [[entry()]], [[zero, zero], [zero, zero]]]
    for _ in range(120):
        nrows, ncols, inner = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 5)
        left = [[entry() for _ in range(inner)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(inner)]
        form = [[sum((a * b for a, b in zip(row, col)), zero)
                 for col in zip(*right)] if right else [zero] * ncols
                for row in left]
        for c in range(ncols):
            if rng.random() < 0.2:
                for row in form:
                    row[c] = zero
        forms.append(form)
    deficient = 0
    for form in forms:
        want = _gauss_jordan_rank(form)
        assert calc._rank([[_cycrat_pair(c) for c in row]
                           for row in form]) == want, form
        deficient += bool(form and form[0]) and want < min(len(form), len(form[0]))
    assert deficient > 20


@pytest.mark.parametrize("n, p, deg", [(1, 5, 1), (1, 2, 1), (5, 2, 2), (4, 3, 2),
                                      (8, 3, 4), (11, 2, 5)])
def test_char_p_block_rank_matches_gauss_jordan(n, p, deg):
    """PrimeFieldK.rank (forward elimination mod p on the regular
    representation, divided by the residue degree) equals Gauss-Jordan with
    the field's element operations (prime_field_ops), at residue degree 1,
    2, 4 and 5."""
    ring = ScalarRing(n)
    field = PrimeFieldK(ring, p)    # refused unless p_N is irreducible mod p
    assert field.deg == ring.deg == deg
    ops = prime_field_ops(field)
    rng = random.Random(n * p)

    def entry():
        return tuple(rng.randint(-4, 4) for _ in range(deg))

    forms = [[], [[]], [[ops.zero()]], [[ops.one()]]]
    for _ in range(100):
        nrows, ncols, inner = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 5)
        left = [[entry() for _ in range(inner)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(inner)]
        form = []
        for row in left:
            out = []
            for col in zip(*right) if right else [()] * ncols:
                total = [0] * deg
                for a, b in zip(row, col):
                    total = [x + y for x, y in zip(total, ring.mul(a, b))]
                out.append(tuple(total))
            form.append(out)
        forms.append(form)
    deficient = 0
    for form in forms:
        want = _rank([[reduce(field, c, 1) for c in row] for row in form], ops)
        assert field.rank(form) == want, form
        deficient += bool(form and form[0]) and want < min(len(form), len(form[0]))
    assert deficient > 20


@pytest.mark.parametrize("name, cap, I, length", _LEAF_CASES)
def test_char0_ranks_match_gauss_jordan_on_leaf_forms(name, cap, I, length):
    """Every form that gram_invertible and char-0 multiplicity rank on the
    words up to `length` gets the Gauss-Jordan rank, so their verdicts are
    the ones the CycRat elimination gave."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    calc = LocalCalculus(ball, I)
    bareiss = calc._rank
    ranks = []

    def checked(form, field=None):
        assert field is None
        got = bareiss(form)
        assert got == _gauss_jordan_rank(
            [[_pair_cycrat(ball.ring, c) for c in row] for row in form]), form
        ranks.append(got)
        return got

    calc._rank = checked
    for word in _words(ball.rank, length):
        for x in {e.endpoint for e in calc.indices(word)}:
            assert calc.gram_invertible(word, x), (word, x)
            calc.multiplicity(word, x)
    assert max(ranks) > 1


@pytest.mark.parametrize("name, cap, I, length", [
    ("A2", 10, frozenset(), 4),
    ("A3", 6, frozenset({1}), 3),
])
def test_certificate_sweep_leaves_generators_and_unit_unchanged(name, cap, I,
                                                               length):
    """Composed matrices share QCoeff values with the cached generators and
    the ring's unit; a certificate sweep must not change any of them."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    calc, fresh = LocalCalculus(ball, I), LocalCalculus(ball, I)
    unit = calc.pr.unit
    for word in _words(ball.rank, length):
        for e in calc.indices(word):
            assert calc.check_diagonal(word, e)
            for f in calc.leaves_at(word, e.endpoint):
                assert calc.double_leaf(word, e, f).endpoint_matched()
                assert calc.check_triangularity(word, e, f)
    assert len(calc._gen_cache) > 20
    for (kind, w, site, color), got in calc._gen_cache.items():
        want = fresh.gen_matrix(kind, w, site, color=color)
        assert got.entries.keys() == want.entries.keys()
        assert all(_same_qcoeff(v, want.entries[k])
                   for k, v in got.entries.items()), (kind, w, site)
    assert calc.pr.unit is unit and unit.den == ()
    assert unit.num.coeffs == calc.pr.one().coeffs


def _root_product(pr, roots):
    out = pr.one()
    for root in roots:
        out = out * pr.linear(root)
    return out


def _sorted_roots(roots):
    return sorted(roots)


def _reference_compose(pr, left, right):
    """left o right for matrices {(row, col): (num, den roots)} with plain
    Poly arithmetic: a product multiplies the numerators over the
    concatenated denominators; a sum over one denominator adds numerators,
    any other sum cross-multiplies.  No QCoeff is made."""
    by_row = {}
    for (ki, cj), b in right.items():
        by_row.setdefault(ki, []).append((cj, b))
    out = {}
    for (ri, ki), (an, ad) in left.items():
        for cj, (bn, bd) in by_row.get(ki, ()):
            num, den = an * bn, _sorted_roots(ad + bd)
            got = out.get((ri, cj))
            if got is not None:
                gn, gd = got
                if gd == den:
                    num = gn + num
                else:
                    num = gn * _root_product(pr, den) + num * _root_product(pr, gd)
                    den = _sorted_roots(gd + den)
            out[(ri, cj)] = num, den
    return {k: v for k, v in out.items() if not v[0].is_zero()}


def _reference_leaf(calc, word, e, flipped):
    """The light leaf of e, or its flip, composed by _reference_compose from
    the entries of its generator matrices."""
    ops = _ll_ops(calc, word, e)
    start = calc.indices(e.endpoint.word if flipped else word)
    out = {(i, i): (calc.pr.one(), []) for i in range(len(start))}
    for op in reversed(ops) if flipped else ops:
        gen = calc._op_matrix(op, flipped)
        out = _reference_compose(calc.pr, {k: (q.num, list(q.den)) for k, q in
                                           gen.entries.items()}, out)
    return out


@pytest.mark.parametrize("name, cap, I, length", _LEAF_CASES)
def test_memoized_double_leaves_match_plain_poly_arithmetic(name, cap, I,
                                                            length):
    """Every entry of every double leaf, composed over the ring's shared
    values and memoized products and sums, equals the entry composed from
    the same generators with plain Poly products and concatenated
    denominators."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    calc, ref = LocalCalculus(ball, I), LocalCalculus(ball, I)
    pr = calc.pr
    pairs = 0
    for word in _words(ball.rank, length):
        leaves = {(e.bits, flipped): _reference_leaf(ref, word, e, flipped)
                  for e in ref.indices(word) for flipped in (False, True)}
        for e in calc.indices(word):
            for f in calc.leaves_at(word, e.endpoint):
                got = calc.double_leaf(word, e, f).entries
                want = _reference_compose(pr, leaves[(f.bits, True)],
                                          leaves[(e.bits, False)])
                assert got.keys() == want.keys(), (word, e, f)
                for k, (num, den) in want.items():
                    q = got[k]
                    assert q.num * _root_product(pr, den) \
                        == num * _root_product(pr, q.den), (word, e, f, k)
                pairs += 1
    assert pairs > 50 and len(pr._qi_mul) > 20


@pytest.mark.parametrize("name, cap, I, length", _LEAF_CASES)
def test_suffix_shared_leaves_match_per_leaf_reference(name, cap, I, length):
    """Every light leaf, in both orientations, composed from the suffixes
    a warm calculus keeps equals the leaf composed op by op from the
    identity with plain Poly arithmetic.  The words come longest first, so
    a leaf of a shorter word w is found whole, kept as the suffix of the
    leaf of (s,) + w that skips s (s outside I)."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    calc, ref = LocalCalculus(ball, I), LocalCalculus(ball, I)
    pr = calc.pr
    for word in reversed(list(_words(ball.rank, length))):
        for e in calc.indices(word):
            for flipped in (False, True):
                cache = calc._llbar_cache if flipped else calc._ll_cache
                assert ((e.stroll[0].idx, word, e.bits) in cache) \
                    == (len(word) < length), (word, e, flipped)
                got = calc.eval_lightleaf(word, e, flipped).entries
                want = _reference_leaf(ref, word, e, flipped)
                assert got.keys() == want.keys(), (word, e, flipped)
                for k, (num, den) in want.items():
                    q = got[k]
                    assert q.num * _root_product(pr, den) \
                        == num * _root_product(pr, q.den), (word, e, flipped, k)


@pytest.mark.parametrize("name, cap, I, length", [
    ("A2", 10, frozenset(), 4),
    ("affA1", 12, frozenset({0}), 5),
    ("H3", 6, frozenset(), 4),          # deg K = 2
])
def test_diagonal_verdicts_of_a_warm_calculus_match_fresh_ones(name, cap, I,
                                                               length):
    """After a whole word sweep, check_diagonal answers every (word, e) as a
    fresh calculus does, with all candidate roots and with only the
    denominator's: the kept verdict is keyed by the candidates too."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    warm = LocalCalculus(ball, I)
    words = list(_words(ball.rank, length))
    for word in words:
        for e in warm.indices(word):
            warm.check_diagonal(word, e)

    def den_only(calc):
        calc.diagonal_root_candidates = lambda word, e: []
        return calc

    refused = 0
    for word in words:
        for e in warm.indices(word):
            want = LocalCalculus(ball, I).check_diagonal(word, e)
            assert warm.check_diagonal(word, e) == want, (word, e)
            want = den_only(LocalCalculus(ball, I)).check_diagonal(word, e)
            assert den_only(warm).check_diagonal(word, e) == want, (word, e)
            del warm.diagonal_root_candidates
            refused += not want
    assert refused > 0


def _frac_k_divides_to_unit(num, divisors, seen):
    """check_diagonal's trial division as it ran over Frac(K), the reference
    for the division over K: num maps monomials to CycRat coefficients, and
    each divisor is (form with CycRat coefficients, leading monomial,
    1 / leading coefficient).  Each quotient with a coefficient outside K
    bumps seen["outside"]."""
    if all(not any(m) for m in num):
        c = next(iter(num.values()), None)
        return c is not None and c.is_integral() and c.ring.is_unit(c.to_integral())
    for divisor in divisors:
        q = _frac_k_divide(num, divisor)
        if q is not None:
            seen["outside"] += not all(c.is_integral() for c in q.values())
            if _frac_k_divides_to_unit(q, divisors, seen):
                return True
    return False


def _frac_k_divide(poly, divisor):
    form, lm, inv = divisor
    rem = dict(poly)
    quo = {}
    while rem:
        m = max(rem)
        q_mono = tuple(a - b for a, b in zip(m, lm))
        if any(k < 0 for k in q_mono):
            return None
        qc = rem.pop(m) * inv
        quo[q_mono] = qc
        for fm, fc in form.items():
            if fm == lm:
                continue
            tm = tuple(a + b for a, b in zip(q_mono, fm))
            val = rem.get(tm, CycRat(fc.ring, (0,) * fc.ring.deg)) - qc * fc
            if val.is_zero():
                rem.pop(tm, None)
            else:
                rem[tm] = val
    return quo


@pytest.mark.parametrize("name, deg", [("A3", 1), ("H3", 2), ("I2_7", 3),
                                       ("I2_12", 4)])
def test_division_over_k_matches_division_over_frac_k(name, deg):
    """The diagonal certificate's trial division, exact over K, gives the
    verdict of the division over Frac(K): on random products of candidate
    roots (with scalar multiples such as alpha and 2 alpha among the
    candidates) times units or non-units of K, on products missing a
    candidate and on non-products, over scalar rings of degree 1 to 4."""
    ball = build_ball(CoxeterMatrix.from_type(name), 3)
    ring = ball.ring
    assert ring.deg == deg
    calc = LocalCalculus(ball)
    pr = calc.pr
    rng = random.Random(deg)
    roots = sorted({ball.root_image(x, s) for x in ball.elements
                    for s in range(ball.rank)})

    def twice(root):
        return tuple(ring.add(c, c) for c in root)

    roots += [twice(root) for root in roots[:3]]
    theta = ring.theta()
    units = [ring.one(), ring.neg(ring.one())] + [
        u for u in (theta, ring.add(theta, ring.one())) if ring.is_unit(u)]
    non_units = [c for c in (ring.embed(2), ring.embed(3), ring.add(theta, ring.one()),
                             ring.add(theta, ring.embed(2)))
                 if any(c) and not ring.is_unit(c)]
    assert len(non_units) >= 2

    def frac_k(poly):
        return {m: CycRat(ring, c) for m, c in poly.coeffs.items()}

    verdicts = {True: 0, False: 0}
    seen = {"outside": 0}
    for _ in range(1000):
        cands = rng.sample(roots, rng.randint(1, 4))
        if rng.random() < 0.5:
            cands.append(twice(cands[0]))
        factors = [rng.choice(cands) for _ in range(rng.randint(0, 3))]
        if factors and rng.random() < 0.15:
            factors.append(rng.choice(roots))       # maybe not a candidate
        num = pr.const(rng.choice(units if rng.random() < 0.6 else non_units))
        for root in factors:
            num = num * pr.linear(root)
        if rng.random() < 0.1:                      # not a product
            num = num + pr.alpha(rng.randrange(ball.rank)) * pr.const(
                rng.choice(units))
        divisors = [calc._divisor(r) for r in cands]
        got = localization._divides_to_unit(pr, num, divisors)
        refs = [(frac_k(form), lm, CycRat(ring, form.coeffs[lm]).inverse())
                for form, lm, _ in divisors]
        assert got == _frac_k_divides_to_unit(frac_k(num), refs, seen), \
            (num, cands)
        verdicts[got] += 1
    assert min(verdicts.values()) >= 300, verdicts
    assert seen["outside"] > 0
