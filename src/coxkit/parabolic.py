"""Spherical (M) and antispherical (N) modules over the Hecke algebra, and
their canonical bases.

Both modules have a standard basis indexed by the minimal coset
representatives ^IW.  The b_s action has three cases:

    n_x b_s = n_{xs} + v n_x          xs in ^IW, xs > x
              n_{xs} + v^{-1} n_x     xs in ^IW, xs < x
              0   (N)  /  (v + v^{-1}) m_x   (M)    xs not in ^IW

At I = {} every xs lies in ^IW, so N is the Hecke algebra itself: n_x = h_x,
b_s = h_s + v, and the canonical basis d_x is the Kazhdan-Lusztig basis
b_x = sum_y h_{y,x} h_y.  One self-dual induction computes d_x and c_x for
every I.

The rule above is written once, in `_bs_raw`, on raw polynomials: plain
{exponent: int} dicts; it reads xs in ^IW off the ball's ascent masks
(`GroupBall.ascents`).  `ParaElt.mul_bs` wraps its result as LaurentPoly
values; the induction (`ParabolicKLTable._induce`) keeps the candidate
column raw while it strips the v^{<=0} tails in place, and wraps only the
entries it reads.  Each table interns its polynomials, so every entry equal
to a given polynomial is one shared (immutable) LaurentPoly.

Most of a column follows from a few of its entries.  Write d_x = sum_y p_y
n_y.  For every right descent t of x, d_x b_t = (v + v^{-1}) d_x, and the
coefficient of n_y on the left is p_{yt} + v p_y when yt > y lies in ^IW,
and 0 in N when yt is not in ^IW.  Equating it with (v + v^{-1}) p_y gives
the descent rule

    p_y = v p_{yt}    yt > y, yt in ^IW
    p_y = 0           yt not in ^IW, in N only (M sets no condition there)

(Deodhar, J. Algebra 111, 1987, for the parabolic case; du Cloux,
Experiment. Math. 11, 2002, reduces KL tables to the extremal pairs it
leaves).  So the induction computes from b_{xs} b_s only the entries y that
no descent of x shifts, checks that the ones the rule sets to 0 are 0, and
fills every other entry with v times an entry one longer.
"""

from __future__ import annotations

import operator

from .errors import CapError, CoxkitError, UsageError
from .laurent import LaurentPoly, ONE, V, ZERO


# build_ball numbers the elements breadth first, extending the words of one
# length in order by s = 0, 1, ..., so index order is shortlex order.
_idx = operator.attrgetter("idx")


def _item_idx(item):
    return item[0].idx


def _bs_raw(ball, I, spherical, coeffs, s):
    """(sum_x p_x n_x) b_s by the three-case rule, where coeffs maps x to the
    raw polynomial p_x.  coeffs is only read; the result holds new dicts,
    which may keep zero coefficients.

    Whether xs lies in ^IW is read from the ball's ascent masks: x is in
    ^IW, so xs < x is too, and an ascent is in ^IW when its bit is set.  An
    x outside ^IW is no basis element, and raises UsageError."""
    asc = ball.ascents(I)
    bit = 1 << s
    out = {}
    for x, p in coeffs.items():
        xs = ball.right(x, s)
        if xs is None:
            raise CapError("module action leaves the group ball")
        a = asc[x.idx]
        if a is None:
            raise UsageError("%r is not in ^IW" % x)
        if xs.length < x.length or a & bit:
            shifts = ((xs, 0), (x, 1 if xs.length > x.length else -1))
        elif spherical:
            shifts = ((x, 1), (x, -1))
        else:
            continue
        for y, k in shifts:         # out[y] += v^k p
            q = out.get(y)
            if q is None:
                out[y] = {e + k: c for e, c in p.items()}
            else:
                for e, c in p.items():
                    e += k
                    q[e] = q.get(e, 0) + c
    return out


class ParaElt:
    """Finitely supported map ^IW -> LaurentPoly inside M or N."""

    __slots__ = ("ball", "I", "coeffs")

    spherical = False

    def __init__(self, ball, I, coeffs=None):
        self.ball = ball
        self.I = frozenset(I)
        self.coeffs = {x: p for x, p in (coeffs or {}).items() if p}

    @classmethod
    def std(cls, ball, I, x, p=ONE):
        return cls(ball, I, {x: p})

    @classmethod
    def unit(cls, ball, I):
        return cls.std(ball, I, ball.identity)

    def __eq__(self, other):
        return isinstance(other, ParaElt) and other.spherical == self.spherical \
            and other.ball is self.ball and other.I == self.I \
            and other.coeffs == self.coeffs

    def __hash__(self):
        return hash((self.spherical, self.I, frozenset(self.coeffs.items())))

    def _make(self, coeffs):
        return type(self)(self.ball, self.I, coeffs)

    def _nonzero(self, coeffs):
        """_make for coeffs known to hold no zero, taken without a copy."""
        out = object.__new__(type(self))
        out.ball, out.I, out.coeffs = self.ball, self.I, coeffs
        return out

    def __add__(self, other):
        out = dict(self.coeffs)
        for x, p in other.coeffs.items():
            out[x] = out.get(x, ZERO) + p
        return self._make(out)

    def __sub__(self, other):
        return self + other.scale(LaurentPoly.const(-1))

    def scale(self, p):
        return self._make({x: q * p for x, q in self.coeffs.items()})

    def coeff(self, x):
        return self.coeffs.get(x, ZERO)

    def is_zero(self):
        return not self.coeffs

    def mul_bs(self, s):
        out = _bs_raw(self.ball, self.I, self.spherical,
                      {x: p.coeffs for x, p in self.coeffs.items()}, s)
        return self._make({x: LaurentPoly(q) for x, q in out.items()})

    def mul_b_word(self, word):
        n = self
        for s in word:
            n = n.mul_bs(s)
        return n

    def __repr__(self):
        if not self.coeffs:
            return "0"
        basis = "m" if self.spherical else "n"
        return " + ".join("(%s)%s[%r]" % (p, basis, x) for x, p in
                          sorted(self.coeffs.items(), key=_item_idx))


class NElt(ParaElt):
    spherical = False


class MElt(ParaElt):
    spherical = True


class ParabolicKLTable:
    """Canonical bases d_x (antispherical) or c_x (spherical) over ^IW; at
    I = {} this is the Kazhdan-Lusztig basis b_x with polynomials h_{y,x}."""

    def __init__(self, ball, I, spherical=False):
        self.ball = ball
        self.I = frozenset(I)
        self.spherical = spherical
        cls = MElt if spherical else NElt
        self._b = {ball.identity: cls.unit(ball, self.I)}
        # sorted (exponent, coeff) items -> the one LaurentPoly of this table
        self._polys = {((0, 1),): ONE}
        # id of an interned polynomial p -> the interned v p
        self._vshift = {}

    def b(self, x):
        got = self._b.get(x)
        if got is None:
            if self.ball.ascents(self.I)[x.idx] is None:
                raise UsageError("%r is not in ^IW" % x)
            got = self._b[x] = self._induce(x)
        return got

    def _intern(self, y, x, q):
        """The table's one LaurentPoly equal to the raw entry q at y of d_x,
        or None for zero; off the top it must lie in vZ[v]."""
        if 0 in q.values():         # a cancellation left a zero
            q = {e: c for e, c in q.items() if c}
        if not q:
            return None
        key = tuple(sorted(q.items()))
        if y is not x and key[0][0] <= 0:
            raise CoxkitError("canonical-basis induction left a coefficient "
                              "outside vZ[v] at %r in d_%r" % (y, x))
        p = self._polys.get(key)
        if p is None:
            p = self._polys[key] = LaurentPoly(dict(key))
        return p

    def _induce(self, x):
        """d_x = sum_y p_y n_y from b_{xs} b_s, s the largest-index descent
        of x, by the descent rule of the module docstring, on the ball's
        masks.  Let D be the right descents of x.  There are three kinds of y:

        - shifted: some t in D has yt > y in ^IW, so p_y = v p_{yt}.  The
          lowest such t names the source yt.  A shifted entry is v times
          its source, read through the table's shift memo: it is not
          re-induced, and its source was checked when it was filled.
        - computed: every other y.  These are the extremal entries, where
          every t in D has yt < y (or, in M, yt outside ^IW), and in N the
          entries with some yt outside ^IW, which must vanish.  They take
          the value of b_{xs} b_s minus the bar-symmetric completions
          corr * b_z of all v^{<=0} tails of lower terms z, stripped once
          each, longest first; only they are sorted and interned.
        - missing source: a shifted y of the candidate whose source is not
          in the column.  Then p_y = 0, and y is computed too.

        Only the entries of b_{xs} whose image is read go to _bs_raw: every
        z with zs < z or zs outside ^IW, and an up entry z only when zs is
        computed.  A skipped entry has no tail: every entry of b_{xs} but
        the top lies in vZ[v], so a skipped z adds only vZ[v] terms (v p_z
        at z, p_z at zs), and the top xs is never skipped, as its image x is
        computed.  So the tails and corrections are those of the full
        product, and a skipped entry changes only unread entries.  Its
        terms are added back at a missing source, the one unread entry
        that is checked.

        Every computed entry is checked: it must lie in vZ[v], the top term
        must be 1, and an entry that must vanish must be 0; CoxkitError
        otherwise.
        """
        ball, I, spherical = self.ball, self.I, self.spherical
        down, up = ball.descents(), ball.ascents(I)
        els, right = ball.elements, ball.right_idx
        desc = down[x.idx]
        s = desc.bit_length() - 1
        bit = 1 << s
        start = self.b(els[right[x.idx][s]])
        feed, skipped = {}, {}
        for z, p in start.coeffs.items():
            i = z.idx
            if up[i] & bit and up[right[i][s]] & desc:
                skipped[z] = p.coeffs
            else:
                feed[z] = p.coeffs
        cand = _bs_raw(ball, I, spherical, feed, s)
        lower = sorted((z for z in cand if z is not x), key=_idx, reverse=True)
        for z in lower:
            # tail sum_{e<=0} c_e v^e -> corr = c_0 + sum_{e<0} c_e (v^e + v^-e)
            q = cand[z]
            if min(q) > 0:
                continue
            corr = {}
            for e, c in q.items():
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
        column = {}
        filled = []
        shifted = []
        for y, q in cand.items():
            i = y.idx
            if up[i] & desc:
                shifted.append(y)
                continue
            p = self._intern(y, x, q)
            if p is None:
                continue
            if not spherical and desc & ~(down[i] | up[i]):
                raise CoxkitError("canonical-basis induction left a nonzero "
                                  "coefficient at %r in d_%r, where yt leaves "
                                  "^IW for a descent t" % (y, x))
            column[y] = p
            filled.append((y, p))
        vshift = self._vshift
        while filled:
            y, p = filled.pop()
            targets = down[y.idx] & desc
            if not targets:
                continue
            row = right[y.idx]
            vp = None
            while targets:
                low = targets & -targets
                targets ^= low
                j = row[low.bit_length() - 1]
                u = up[j] & desc
                if u & -u == low:       # y = wt is the source of w
                    w = els[j]
                    if vp is None:
                        vp = vshift.get(id(p))
                        if vp is None:
                            vp = vshift[id(p)] = self._intern(
                                w, x, {e + 1: c for e, c in p.coeffs.items()})
                    column[w] = vp
                    filled.append((w, vp))
        for y in shifted:
            if y in column:
                continue
            q = dict(cand[y])
            ys = els[right[y.idx][s]]
            back = {z: skipped[z] for z in (y, ys) if z in skipped}
            raw = _bs_raw(ball, I, spherical, back, s)
            for e, c in raw.get(y, {}).items():
                q[e] = q.get(e, 0) + c
            if self._intern(y, x, q) is not None:
                raise CoxkitError("canonical-basis induction left a nonzero "
                                  "coefficient at %r in d_%r, whose descent "
                                  "shift is zero" % (y, x))
        if column.get(x) is not ONE:
            raise CoxkitError("canonical-basis induction lost the unit top term")
        return start._nonzero(column)

    def poly(self, y, x):
        return self.b(x).coeff(y)

    def table_rows(self):
        """(y, x, poly) rows for x in ^IW, nonzero polynomials only."""
        rows = []
        for x in self.ball.min_reps(self.I):
            rows.extend((y, x, p) for y, p in
                        sorted(self.b(x).coeffs.items(), key=_item_idx))
        return rows


def check_deodhar(kl, ntable, y, x):
    """n_{y,x} = sum over z in W_I of (-v)^{l(z)} h_{zy,x}.

    Only z with l(z) + l(y) <= l(x) can contribute; the subgroup elements are
    enumerated inside the ball, which covers that range whenever x does.
    """
    ball = kl.ball
    rhs = LaurentPoly.zero()
    for z in ball.subgroup_elements(ntable.I):
        if z.length + y.length > x.length:
            continue
        zy = ball.product_of_word(y.word, start=z)
        rhs = rhs + (-V) ** z.length * kl.poly(zy, x)
    return ntable.poly(y, x) == rhs


def check_finitary(kl, mtable, y, x):
    """m_{y,x} = h_{w0 y, w0 x} for the longest element w0 of W_I."""
    ball = kl.ball
    w0 = ball.longest_element(mtable.I)
    w0y = ball.product_of_word(y.word, start=w0)
    w0x = ball.product_of_word(x.word, start=w0)
    return mtable.poly(y, x) == kl.poly(w0y, w0x)


def check_monotonicity(table_I, table_J, y, x):
    """n^I_{y,x} <= n^J_{y,x} coefficientwise, for J contained in I."""
    if not table_J.I <= table_I.I:
        raise UsageError("monotonicity compares J = %s inside I = %s only"
                         % (sorted(table_J.I), sorted(table_I.I)))
    return table_I.poly(y, x).leq_coeffwise(table_J.poly(y, x))
