"""Spherical and antispherical modules, their canonical bases, and the
comparison identities between parabolic and ordinary tables."""

import operator
import os
import random
import subprocess
import sys

import pytest

import coxkit
from ball_refs import is_min_rep, right_descents
from coxkit.coxeter import CoxeterMatrix, build_ball
from coxkit.errors import CoxkitError, UsageError
from coxkit.hecke import KLTable
from coxkit.laurent import LaurentPoly, ONE, V, VINV
from coxkit.parabolic import (MElt, NElt, ParabolicKLTable, _bs_raw,
                              check_deodhar, check_finitary, check_monotonicity)
from hecke_refs import n_bar, project_pi

H = frozenset()    # the Hecke algebra is N at I = {}


def support(elt):
    """The support of a ParaElt in shortlex order, which is ball index order."""
    return sorted(elt.coeffs, key=operator.attrgetter("idx"))


@pytest.fixture
def a2():
    return build_ball(CoxeterMatrix.from_type("A2"), 10)


@pytest.fixture
def aff(scope="module"):
    return build_ball(CoxeterMatrix.from_type("affA1"), 12)


def test_n_action_kills_quotient_exit(a2):
    I = frozenset({0})
    assert NElt.unit(a2, I).mul_bs(0).is_zero()


def test_n_action_up_case(a2):
    I = frozenset({0})
    t = a2.product_of_word((1,))
    got = NElt.unit(a2, I).mul_bs(1)
    assert got == NElt.std(a2, I, t) + NElt.std(a2, I, a2.identity, V)


def test_n_action_down_case(aff):
    I = frozenset({0})
    t = aff.product_of_word((1,))
    nt = NElt.std(aff, I, t)
    assert nt.mul_bs(1) == NElt.unit(aff, I) + NElt.std(aff, I, t, VINV)


def test_m_action_quotient_exit(a2):
    I = frozenset({0})
    got = MElt.unit(a2, I).mul_bs(0)
    assert got == MElt.unit(a2, I).scale(V + VINV)


def test_action_refuses_an_element_outside_the_quotient(a2):
    # s1 is not in ^IW for I = {s1}, so n_s1 and m_s1 are no basis elements
    # and have no canonical basis element either
    I = frozenset({0})
    s1 = a2.product_of_word((0,))
    for cls in (NElt, MElt):
        for s in (0, 1):
            with pytest.raises(UsageError, match="not in"):
                cls.std(a2, I, s1).mul_bs(s)
        with pytest.raises(UsageError, match="not in"):
            ParabolicKLTable(a2, I, spherical=cls.spherical).b(s1)


def test_project_pi_examples(a2):
    I = frozenset({0})
    st = a2.product_of_word((0, 1))
    t = a2.product_of_word((1,))
    h = NElt.std(a2, H, st)
    assert project_pi(h, I) == NElt.std(a2, I, t, -V)
    assert project_pi(h, I, spherical=True) == MElt.std(a2, I, t, VINV)
    # elements already in the quotient pass through unchanged
    assert project_pi(NElt.std(a2, H, t), I) == NElt.std(a2, I, t)


def test_project_pi_intertwines_action(a2):
    rng = random.Random(9)
    I = frozenset({1})
    for _ in range(40):
        h = NElt(a2, H, {x: LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
                         for x in a2.elements})
        s = rng.randrange(2)
        for spherical in (False, True):
            assert project_pi(h.mul_bs(s), I, spherical) == \
                project_pi(h, I, spherical).mul_bs(s)


def test_n_bar_is_involution(a2):
    rng = random.Random(13)
    I = frozenset({0})
    reps = a2.min_reps(I)
    for cls in (NElt, MElt):
        for _ in range(25):
            n = cls(a2, I, {x: LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
                            for x in reps})
            assert n_bar(n_bar(n)) == n


def test_d_basis_a2(a2):
    I = frozenset({0})
    table = ParabolicKLTable(a2, I)
    t = a2.product_of_word((1,))
    ts = a2.product_of_word((1, 0))
    d = table.b(ts)
    assert d == NElt.std(a2, I, ts) + NElt.std(a2, I, t, V)
    assert d.coeff(a2.identity) == LaurentPoly.zero()
    assert n_bar(d) == d


def test_d_basis_affine(aff):
    I = frozenset({0})
    table = ParabolicKLTable(aff, I)
    tst = aff.product_of_word((1, 0, 1))
    ts = aff.product_of_word((1, 0))
    assert table.b(tst) == NElt.std(aff, I, tst) + NElt.std(aff, I, ts, V)


def test_c_basis_spherical(a2):
    I = frozenset({0})
    table = ParabolicKLTable(a2, I, spherical=True)
    ts = a2.product_of_word((1, 0))
    c = table.b(ts)
    assert c.coeff(ts) == ONE
    assert n_bar(c) == c


def test_empty_I_matches_hecke_table(a2):
    kl = KLTable(a2)
    assert kl.I == H and not kl.spherical
    ntable = ParabolicKLTable(a2, frozenset())
    mtable = ParabolicKLTable(a2, frozenset(), spherical=True)
    for x in a2.elements:
        for y in a2.elements:
            assert ntable.poly(y, x) == kl.poly(y, x)
            assert mtable.poly(y, x) == kl.poly(y, x)


@pytest.mark.parametrize("I", [frozenset(), frozenset({0}), frozenset({1}),
                               frozenset({0, 1})])
def test_deodhar_identity_a2(a2, I):
    kl = ParabolicKLTable(a2, H)
    ntable = ParabolicKLTable(a2, I)
    for y, x, _ in ntable.table_rows():
        assert check_deodhar(kl, ntable, y, x)


@pytest.mark.parametrize("I", [frozenset(), frozenset({0}), frozenset({0, 1})])
def test_finitary_identity_a2(a2, I):
    kl = ParabolicKLTable(a2, H)
    mtable = ParabolicKLTable(a2, I, spherical=True)
    w0 = a2.longest_element(frozenset({0, 1}))
    for x in a2.min_reps(I):
        if x.length + w0.length > a2.length_cap:
            continue
        for y in a2.min_reps(I):
            assert check_finitary(kl, mtable, y, x)


def test_monotonicity_rejects_J_outside_I_under_python_O():
    # python -O strips assert statements; the precondition must still raise
    code = "\n".join([
        "from coxkit import *",
        "ball = build_ball(CoxeterMatrix.from_type('A2'), 10)",
        "big, small = ParabolicKLTable(ball, ()), ParabolicKLTable(ball, {0})",
        "try:",
        "    check_monotonicity(big, small, ball.identity, ball.product_of_word((1,)))",
        "except UsageError as exc:",
        "    print(type(exc).__name__)",
    ])
    src = os.path.dirname(os.path.dirname(coxkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "UsageError"


def test_monotonicity_chain(a2):
    chain = [frozenset(), frozenset({0}), frozenset({0, 1})]
    tables = [ParabolicKLTable(a2, I) for I in chain]
    for small, big in zip(tables, tables[1:]):
        for y, x, _ in big.table_rows():
            assert check_monotonicity(big, small, y, x)


def test_n_polys_nonneg_b2():
    ball = build_ball(CoxeterMatrix.from_type("B2"), 8)
    for I in (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})):
        for _, _, p in ParabolicKLTable(ball, I).table_rows():
            assert p.is_nonneg()


# -- the induction's output shape, sharing and immutability --------------------

@pytest.mark.parametrize("name,cap,I,spherical", [
    ("affA2", 7, frozenset({0}), False),
    ("B4", 8, frozenset({0, 1}), True),
    ("B3", 9, frozenset({0}), True),
])
def test_canonical_basis_is_self_dual_with_unit_top(name, cap, I, spherical):
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    table = ParabolicKLTable(ball, I, spherical=spherical)
    for x in ball.min_reps(I):
        d = table.b(x)
        assert d.coeff(x) == ONE
        assert all(min(p.coeffs) > 0 for y, p in d.coeffs.items() if y != x)
        assert n_bar(d) == d


def test_equal_coefficients_are_one_object():
    ball = build_ball(CoxeterMatrix.from_type("B3"), 9)
    table = ParabolicKLTable(ball, frozenset({0}))
    shared = {}
    rows = table.table_rows()
    for _, _, p in rows:
        assert shared.setdefault(p, p) is p
    assert len(shared) < len(rows)


def test_earlier_columns_do_not_change():
    ball = build_ball(CoxeterMatrix.from_type("A3"), 6)
    table = ParabolicKLTable(ball, H)
    early = [x for x in ball.elements if x.length <= 3]
    seen = {x: table.b(x) for x in early}
    frozen = {x: {y: dict(p.coeffs) for y, p in d.coeffs.items()}
              for x, d in seen.items()}
    table.table_rows()
    for x, d in seen.items():
        assert table.b(x) is d
        assert {y: dict(p.coeffs) for y, p in d.coeffs.items()} == frozen[x]


def test_induction_rejects_a_corrupt_lower_column():
    # b_t b_s b_t = b_tst + b_t, so d_tst strips one tail with b_t; a stray
    # n_u (u = s3, not below tst) in the cached b_t lands at u with
    # coefficient -1, outside vZ[v], while the top term stays 1
    ball = build_ball(CoxeterMatrix.from_type("A3"), 6)
    table = ParabolicKLTable(ball, H)
    t = ball.product_of_word((1,))
    u = ball.product_of_word((2,))
    table.b(ball.product_of_word((1, 0)))
    table._b[t] = table.b(t) + NElt.std(ball, H, u)
    with pytest.raises(CoxkitError, match="outside vZ"):
        table.b(ball.product_of_word((1, 0, 1)))


def _columns_below(table, n):
    """Compute every column of length < n, so a corruption planted after
    this reaches only the columns induced later."""
    for w in table.ball.min_reps(table.I):
        if w.length < n:
            table.b(w)


def test_induction_rejects_a_stray_term_on_an_extremal_entry():
    # b_{s1s3s2} b_s3 = b_x + b_{s1s3} for x = s1s2s3s2, so d_x strips one
    # tail with b_{s1s3}.  u = s2s3s2 has the right descents s2, s3 of x, so
    # its entry is extremal and computed from the rule; it is longer than
    # s1s3, so its own tail is stripped before a stray n_u in the cached
    # b_{s1s3} lands there with coefficient -1, outside vZ[v]
    ball = build_ball(CoxeterMatrix.from_type("A3"), 6)
    table = ParabolicKLTable(ball, H)
    x = ball.product_of_word((0, 1, 2, 1))
    z = ball.product_of_word((0, 2))
    u = ball.product_of_word((1, 2, 1))
    assert right_descents(ball, u) == right_descents(ball, x) == [1, 2]
    _columns_below(table, x.length)
    table._b[z] = table.b(z) + NElt.std(ball, H, u)
    with pytest.raises(CoxkitError, match="outside vZ"):
        table.b(x)


def test_induction_rejects_a_stray_term_where_n_must_vanish():
    # the same strip in N with I = {s2}: u = s3s2 has u s3 = s2s3s2 outside
    # ^IW for the descent s3 of x, and no descent of x takes u up inside
    # ^IW, so d_x vanishes at u.  A stray v n_u in the cached b_{s1s3}
    # lands there as -v, inside vZ[v]: only the vanishing rule catches it
    I = frozenset({1})
    ball = build_ball(CoxeterMatrix.from_type("A3"), 6)
    table = ParabolicKLTable(ball, I)
    x = ball.product_of_word((0, 1, 2, 1))
    z = ball.product_of_word((0, 2))
    u = ball.product_of_word((2, 1))
    assert not is_min_rep(ball, ball.right(u, 2), I)
    _columns_below(table, x.length)
    table._b[z] = table.b(z) + NElt.std(ball, I, u, V)
    with pytest.raises(CoxkitError, match="leaves"):
        table.b(x)


class ReferenceKLTable(ParabolicKLTable):
    """The induction without the descent rule: every entry of every column
    is read off b_{xs} b_s after the tail strips, then sorted and interned."""

    def _induce(self, x):
        """Forms b_{xs} b_s for the largest-index descent s and strips the
        bar-symmetric completions of all v^{<=0} tails of lower terms.

        The candidate is a raw column {z: {exponent: int}}; the lower terms
        are visited once each, longest first, and each strip subtracts
        corr * b_z from it in place.  The result must be the defining shape
        d_x in n_x + sum_{y != x} vZ[v] n_y.
        """
        ball = self.ball
        s = max(right_descents(ball, x))
        start = self.b(ball.right(x, s))
        cand = _bs_raw(ball, self.I, self.spherical,
                       {y: p.coeffs for y, p in start.coeffs.items()}, s)
        lower = sorted((z for z in cand if z is not x),
                       key=lambda z: (-z.length, z.word))
        for z in lower:
            # tail sum_{e<=0} c_e v^e -> corr = c_0 + sum_{e<0} c_e (v^e + v^-e)
            corr = {}
            for e, c in cand[z].items():
                if e <= 0 and c:
                    corr[e] = corr[-e] = c
            if not corr:
                continue
            for y, p in self.b(z).coeffs.items():
                q = cand.get(y)
                if q is None:
                    q = cand[y] = {}
                for e1, c1 in p.coeffs.items():
                    for e2, c2 in corr.items():
                        e = e1 + e2
                        q[e] = q.get(e, 0) - c1 * c2
        polys = self._polys
        column = {}
        for y, q in cand.items():
            if 0 in q.values():         # a cancellation left a zero
                q = {e: c for e, c in q.items() if c}
                if not q:
                    continue
            key = tuple(sorted(q.items()))
            if y is not x and key[0][0] <= 0:
                raise CoxkitError("canonical-basis induction left a coefficient "
                                  "outside vZ[v] at %r in d_%r" % (y, x))
            p = polys.get(key)
            if p is None:
                p = polys[key] = LaurentPoly(dict(key))
            column[y] = p
        if column.get(x) is not ONE:
            raise CoxkitError("canonical-basis induction lost the unit top term")
        return start._make(column)


_M457 = CoxeterMatrix(((1, 4, 5), (4, 1, 7), (5, 7, 1)))


@pytest.mark.parametrize("matrix, cap, I, spherical", [
    ("A5", 15, (), False),
    ("D4", 12, (), False),
    ("affA2", 14, (0,), False),
    ("B4", 16, (0, 1), True),
    ("H3", 15, (0,), False),
    ("H3", 15, (0,), True),
    ("I2_7", 7, (0,), False),
    ("I2_7", 7, (0,), True),
    (_M457, 6, (0,), False),
], ids=["A5", "D4", "affA2-N", "B4-M", "H3-N", "H3-M", "I2_7-N", "I2_7-M",
        "M457-N"])
def test_columns_match_the_reference_induction(matrix, cap, I, spherical):
    """Every column equals the reference induction's, entry by entry as
    coefficient dicts; every entry, shifted ones included, is the table's
    one interned object for its value."""
    if isinstance(matrix, str):
        matrix = CoxeterMatrix.from_type(matrix)
    ball = build_ball(matrix, cap)
    I = frozenset(I)
    table = ParabolicKLTable(ball, I, spherical=spherical)
    ref = ReferenceKLTable(ball, I, spherical=spherical)
    shifted = 0
    for x in sorted(ball.min_reps(I), key=lambda w: w.idx):
        got, want = table.b(x), ref.b(x)
        assert {y: p.coeffs for y, p in got.coeffs.items()} == \
            {y: p.coeffs for y, p in want.coeffs.items()}
        descents = right_descents(ball, x)
        for y, p in got.coeffs.items():
            assert table._polys[tuple(sorted(p.coeffs.items()))] is p
            shifted += any(ball.right(y, t).length > y.length
                           and is_min_rep(ball, ball.right(y, t), I)
                           for t in descents)
    assert shifted > 0


@pytest.mark.parametrize("name, cap", [("A5", 15), ("affA2", 14), ("B4", 16),
                                       ("H3", 15)])
def test_ball_index_order_is_shortlex(name, cap):
    """support() and table_rows() order by ball index, which is shortlex."""
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    assert [x.idx for x in ball.elements] == list(range(len(ball.elements)))
    assert ball.elements == sorted(ball.elements,
                                   key=lambda x: (x.length, x.word))


def _shortlex_table_rows(table):
    """table_rows() by its definition: columns and rows in shortlex order."""
    def key(x):
        return (x.length, x.word)
    rows = []
    for x in sorted(table.ball.min_reps(table.I), key=key):
        bx = table.b(x)
        for y in sorted(bx.coeffs, key=key):
            rows.append((y, x, bx.coeff(y)))
    return rows


@pytest.mark.parametrize("name, cap, I, spherical", [
    ("A4", 10, (), False),
    ("affA2", 8, (0,), False),
    ("B4", 9, (0, 1), True),
])
def test_table_rows_are_in_shortlex_order(name, cap, I, spherical):
    ball = build_ball(CoxeterMatrix.from_type(name), cap)
    table = ParabolicKLTable(ball, frozenset(I), spherical=spherical)
    rows = table.table_rows()
    want = _shortlex_table_rows(table)
    assert [(y.idx, x.idx) for y, x, _ in rows] == \
        [(y.idx, x.idx) for y, x, _ in want]
    assert all(p is q for (_, _, p), (_, _, q) in zip(rows, want))
    for x in ball.min_reps(table.I):
        assert support(table.b(x)) == sorted(table.b(x).coeffs,
                                              key=lambda y: (y.length, y.word))
