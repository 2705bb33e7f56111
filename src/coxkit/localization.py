"""Matrix calculus for the localized antispherical module.

Over Q_I the module attached to a word decomposes into standard summands
indexed by its I-antispherical subexpressions (evaluation coordinates: the
summand of e evaluates the i-th polynomial slot at the stroll element x_i).
Every elementary morphism (polynomial box, dots, trivalent merge/split,
braid) becomes a sparse matrix over Q_I; light leaves, pairings,
intersection forms and canonical multiplicities are assembled from these.

Generator matrices in local coordinates (prefix element x applied to all
entries, alpha = x(alpha_s)):

    enddot   [1, 0]                       startdot (alpha, 0)^T
    merge    rows (0,1) x cols (00,10,01,11):
             [[1/alpha, 0, 0, -1/alpha], [0, -1/alpha, 1/alpha, 0]]
    split    rows (00,10,01,11) x cols (0,1): [[1,0],[0,1],[0,1],[1,0]]

Each generator has one rule (LocalCalculus._rule), local to its window,
the letters it rewrites at its site: given the window bits of a domain
summand and the stroll element x at the window, the codomain window bits
the summand maps to, each with its scalar term (1, the stroll root
x(alpha_s), its inverse, a ratio of two stroll roots over x(alpha_s), or a
polynomial with x applied); the bits outside the window are kept.
gen_matrix reads the rule forward over the domain into Q_I fractions; the
numeric path reads it backwards into integers at a point.  The
braid moves have closed forms (_BRAIDS): for m = 2 the two bits swap with
unit entry; for m = 3 each of the 11 entries is 1, x(s_s alpha_t) /
x(alpha_s) or -x(alpha_t) / x(alpha_s) for the window (s, t, s).
relation_oracle checks them against the dotted two-color (Jones-Wenzl)
relations, at a nonempty I also on the I = {} table that the I-rule
reduces; m >= 4 raises UnsupportedBraidError.

Pairings at defect sum zero are constants of Frac(K), so multiplicities and
the Gram check read them off by exact evaluation at one integer point
(_point), without building a symbolic matrix: every value on the way is an
integral K coefficient tuple over a positive integer.  The value of
x(alpha_t) mod I at the point is the ball's root image x(alpha_t) dotted
with the point, once per x; a root value r is inverted once, by
ScalarRing.adjugate, as r * adj = norm with adj integral and norm a positive
integer (_inverse, the one place an element of K is inverted).  The top
row of a light leaf propagates as integral tuples over one running
denominator, its gcd content divided out after each generator, which is
never built as a matrix: its row at each summand c the top row reaches is
read on demand.  A generator changes only its window bits, and each entry
keeps the element the window's stroll from x ends at, so c and a domain
summand d mapping to it share their strolls before and after the window.
^IW membership is decided step by step (leaves._strolls), so d is a
summand exactly when its window's stroll from x stays in ^IW, and the
entry depends on x and the window bits alone: the row of c is the rule
read backwards per (kind, window, x), with c's other bits put
back.  So only the word's own subexpressions are enumerated.  Only the
leaves themselves are propagated, never their flips: every generator
G: N_w -> N_w' satisfies

    flip(G)[d, c] = G[c, d] E_w(d) / E_w'(c),

E(g) = prod_i x_{i-1}(alpha_{s_i}) mod I the Euler class of a summand g
with stroll x_0, x_1, ... (the product of its stroll roots).  By induction
over the generators the pairing is the localization formula (Elias-
Williamson, "Localized calculus for the Hecke category", arXiv:2011.05432)

    <e, f> = E_top(x)^-1 sum_g LL_e[top, g] LL_f[top, g] E(g),

x the common endpoint and E_top(x) the Euler class of the all-ones stroll
of x's canonical reduced word.  A form is assembled at once
(pairing_matrix), in lowest terms: the column leaves' top rows indexed by
summand, each entry times E(g), the row leaves' entries added as sparse
outer products, and each sum multiplied by adj(E_top(x)) and reduced by
one gcd.  The pairing is symmetric, so the form at defect -d is the
transpose of the form at d: multiplicity assembles and ranks only the
forms at d >= 0, and the d = 0 form and gram_invertible's Gram matrix sum
their upper triangle.
A k-leaf form costs at most k propagations, fewer when leaves share
suffixes: the row left after undoing the steps i+1..n of a light leaf
depends only on (x_i, word[i:], bits[i:]), and is kept under that key, so
across the leaves of a word, and across the words of a sweep, each partial
row is propagated once.  Every rank takes one route (_rank): each row of
the form is scaled by the lcm of its denominators to integral K tuples,
and their regular representation (ScalarRing.regular: each entry becomes
the deg K x deg K integer block of multiplication by it; at deg K = 1 the
block is the entry itself) is ranked by fraction-free scalars.bareiss at
char 0, by forward elimination mod p at char p, divided by deg K or the
residue degree.  The values are in lowest terms, so p divides a row's lcm
exactly when an entry has no image mod p, which is refused.

The certificates of a word (`coxkit check localization`) stay
symbolic.  The double leaf flipped(LL_f) o LL_e of a pair is built once:
double_leaf keeps its most recent result, and endpoint matching and
triangularity read it one after the other.  Its entries are the PolyRing's
shared Q_I values, and compose multiplies them through the ring's product
memo, so across a sweep each distinct product is computed once; a composed
matrix takes its position maps from its factors.  The diagonal check reads
entry (e, e) of double_leaf(word, e, e), and keeps its verdict per (shared
value, set of candidate roots).  It divides by the candidate roots exactly
over K, each candidate's leading coefficient inverted once by _inverse; a
quotient with a coefficient outside K ends its branch.
Triangularity tests each nonzero entry by membership in the
path-dominance down-sets of e and f, each computed once per word and
dropped when the word changes.

No denominator vanishes at the evaluation point.  A calculus draws one
point (_point), every coordinate from 10^6..10^7, and _stroll_values
zeroes the coordinates in I.  Every root x(alpha_t) has root_image
coordinates that are all >= 0 or all <= 0 under the real embedding of K
(Humphreys, "Reflection Groups and Coxeter Groups", 5.4; this holds for
the geometric representation of every Coxeter matrix, m = infinity
included).  So the value of x(alpha_t) at a point is 0 exactly when its
coordinates outside I are all 0, which is exactly when
pr.reduce_root_mod_I raises NotInvertibleError.  On an I-antispherical
stroll, x and xs are distinct elements of ^IW at every site, as
enumerate_subexprs and the numeric path's windows prune both branches of
a step that leaves ^IW (leaves._strolls); so x s x^-1 is not in W_I, and
x(alpha_s) is not in the span of I.  Hence no "inv" or "ratio"
denominator of a light-leaf rule vanishes at a point,
and neither does E_top(x), a product of the positive roots
x_k(alpha_{s_{k+1}}) along x's reduced word, each prefix x_k in ^IW.

Nor does a Gram determinant (the triangularity lemma).  Let L hold the top
rows LL_e[top, g] at the point of the k leaves e of `word` at x; by the
localization formula the Gram matrix is G = E_top(x)^-1 L diag(E) L^T.  L
is square, as a top row vanishes on every summand whose endpoint is not x,
and the summands at x are the leaves at x.  L is triangular in path
dominance: LL_e[top, g] = 0 unless g <= e (the triangularity that makes
light leaves a basis, Libedinsky-Williamson, arXiv:1702.00459).  Each
diagonal entry LL_e[top, e] is a unit of K times a ratio of roots outside
the span of I.  So det G = E_top(x)^-k det(L)^2 prod_g E(g) is a unit times
such a ratio, nonzero at every positive point by the positivity lemma, and
gram_invertible ranks G once, at the point multiplicities read too.
"""

from __future__ import annotations

import math
import operator
import random

from .errors import (CoxkitError, UnsupportedBraidError,
                     UnsupportedCharacteristicError)
from .laurent import LaurentPoly
from .leaves import _strolls, decorate, enumerate_subexprs, path_dom_leq
from .polyring import Poly, PolyRing, QCoeff
from .scalars import PrimeFieldK

# The unit term of a generator rule (LocalCalculus._rule).
_UNIT = ("unit",)

# The domain window length of each generator kind; poly and startdot have
# none, and a braid's is m (LocalCalculus._window).
_WINDOW = {"enddot": 1, "split": 1, "merge": 2}

# The braid move BS(s, t, s, ...) -> BS(t, s, t, ...) in local coordinates,
# per m = m_st: domain window bits -> ((codomain window bits, c), ...), the
# entry being _UNIT or, for c = (c_s, c_t) at the prefix x,
# (c_s x(alpha_s) + c_t x(alpha_t)) / x(alpha_s).  As s_s(alpha_t) =
# alpha_t + alpha_s when m = 3, (1, 1) is x(s_s alpha_t) / x(alpha_s).
# See Elias, "The two-color Soergel calculus" (arXiv:1308.6611), and
# Elias-Williamson, "Localized calculus for the Hecke category"
# (arXiv:2011.05432); relation_oracle checks both tables.
_S_AT, _NEG_AT = (1, 1), (0, -1)
_BRAIDS = {
    2: {(e1, e2): (((e2, e1), _UNIT),) for e1 in (0, 1) for e2 in (0, 1)},
    3: {
        (0, 0, 0): (((0, 0, 0), _S_AT), ((1, 0, 1), _S_AT)),
        (0, 0, 1): (((0, 1, 0), _S_AT),),
        (0, 1, 0): (((0, 0, 1), _UNIT), ((1, 0, 0), _UNIT)),
        (0, 1, 1): (((1, 1, 0), _UNIT),),
        (1, 0, 0): (((0, 1, 0), _NEG_AT),),
        (1, 0, 1): (((0, 0, 0), _NEG_AT), ((1, 0, 1), _NEG_AT)),
        (1, 1, 0): (((0, 1, 1), _UNIT),),
        (1, 1, 1): (((1, 1, 1), _UNIT),),
    },
}

class StdMatrix:
    """Morphism between standard-summand decompositions, sparse over Q_I;
    unhashable, as equality is semantic (entrywise in Q_I)."""

    __slots__ = ("domain", "codomain", "dpos", "cpos", "entries")

    def __init__(self, domain, codomain, entries=None, dpos=None, cpos=None):
        """dpos and cpos, the bits -> position maps of domain and codomain,
        are built unless given: a result passes on its operands' maps, which
        are never mutated."""
        self.domain = tuple(domain)
        self.codomain = tuple(codomain)
        self.dpos = {d.bits: i for i, d in enumerate(self.domain)} \
            if dpos is None else dpos
        self.cpos = {c.bits: i for i, c in enumerate(self.codomain)} \
            if cpos is None else cpos
        self.entries = {k: v for k, v in (entries or {}).items() if not v.is_zero()}

    @staticmethod
    def identity(indices, pr):
        return StdMatrix(indices, indices,
                         {(i, i): pr.unit for i in range(len(indices))})

    def entry(self, f, e):
        """Entry between codomain index f and domain index e (None if zero)."""
        return self.entries.get((self.cpos[f.bits], self.dpos[e.bits]))

    def compose(self, other):
        """self o other."""
        if self.domain is not other.codomain and \
                tuple(d.bits for d in self.domain) != \
                tuple(c.bits for c in other.codomain):
            raise CoxkitError("composition shape mismatch")
        by_col = {}
        for (ri, ki), val in self.entries.items():
            by_col.setdefault(ki, []).append((ri, val))
        out = {}
        for (ki, cj), val in other.entries.items():
            for ri, left in by_col.get(ki, ()):
                prod = left * val
                got = out.get((ri, cj))
                out[(ri, cj)] = prod if got is None else got + prod
        return StdMatrix(other.domain, self.codomain, out, other.dpos, self.cpos)

    def __add__(self, other):
        if self.dpos != other.dpos or self.cpos != other.cpos:
            raise CoxkitError("sum shape mismatch")
        out = dict(self.entries)
        for k, v in other.entries.items():
            got = out.get(k)
            out[k] = v if got is None else got + v
        return StdMatrix(self.domain, self.codomain, out, self.dpos, self.cpos)

    def scale(self, q):
        return StdMatrix(self.domain, self.codomain,
                         {k: v * q for k, v in self.entries.items()},
                         self.dpos, self.cpos)

    def __eq__(self, other):
        if not isinstance(other, StdMatrix):
            return NotImplemented
        # __init__ drops zero entries, so equal matrices have equal key sets
        return self.dpos == other.dpos and self.cpos == other.cpos \
            and self.entries.keys() == other.entries.keys() \
            and all(v == other.entries[k] for k, v in self.entries.items())

    def endpoint_matched(self):
        """True iff all entries between summands with distinct endpoints vanish."""
        return all(self.codomain[ri].endpoint == self.domain[ci].endpoint
                   for ri, ci in self.entries)


class LocalCalculus:
    """All localized computations for one (ball, I) pair."""

    def __init__(self, ball, I=frozenset()):
        self.ball = ball
        self.I = frozenset(I)
        self.pr = PolyRing(ball)
        self._indices = {}
        self._rex_paths = {}
        self._ll_cache = {}
        self._llbar_cache = {}
        self._gen_cache = {}
        self._value_cache = {}
        self._inv_cache = {}
        self._window_cache = {}
        self._num_cache = {}
        self._vec_cache = {}
        self._step_cache = {}
        self._euler_cache = {}
        # the one evaluation point of multiplicity and gram_invertible
        rng = random.Random(20231115)
        self._point = tuple(rng.randint(10 ** 6, 10 ** 7)
                            for _ in range(self.pr.rank))
        self._top_cache = {}
        # check_diagonal: the verdict per (diagonal value, candidate roots),
        # and the divisor of each candidate root, inverted once
        self._diag_cache = {}
        self._divisor_cache = {}
        # the certificate callers check one pair, or one word, back to back:
        # keep only the last double leaf and the current word's down-sets
        self._last_double = (None, None)
        self._down_sets = (None, {})
        self._one = self.pr.ring.one()

    # -- standard summands ---------------------------------------------------

    def indices(self, word):
        word = tuple(word)
        got = self._indices.get(word)
        if got is None:
            got = tuple(enumerate_subexprs(self.ball, word, I=self.I))
            self._indices[word] = got
        return got

    decompose = indices

    # -- generator matrices ----------------------------------------------------

    def _mst(self, s, t):
        m = self.ball.matrix.entries[s][t]
        return None if m == math.inf else m

    def _braid_window(self, s, t):
        """The alternating word (s, t, s, ...) of length m_st; None if m_st
        is infinite.  A braid move rewrites it to _braid_window(t, s)."""
        m = self._mst(s, t)
        if m is None:
            return None
        return tuple(s if k % 2 == 0 else t for k in range(m))

    def _braid_move(self, word, site):
        """`word` after the braid move at `site`, or None when no alternating
        window of two colors starts there."""
        s, t = word[site], word[site + 1]
        window = self._braid_window(s, t) if s != t else None
        if window is None or word[site:site + len(window)] != window:
            return None
        return word[:site] + self._braid_window(t, s) + word[site + len(window):]

    def _codomain(self, kind, word, site, color=None):
        """Codomain word of the elementary morphism on the domain word."""
        if kind == "poly":
            return word
        if kind == "enddot":
            return word[:site] + word[site + 1:]
        if kind == "startdot":
            return word[:site] + (color,) + word[site:]
        if kind == "merge":
            if word[site] != word[site + 1]:
                raise CoxkitError("merge of two different colors")
            return word[:site] + word[site + 1:]
        if kind == "split":
            return word[:site] + (word[site],) + word[site:]
        if kind == "braid":
            cod = self._braid_move(word, site)
            if cod is None:
                raise CoxkitError("braid window does not alternate")
            return cod
        raise CoxkitError("unknown generator kind %r" % kind)

    def _window(self, kind, word, site):
        """The letters of the domain `word` that the elementary morphism at
        `site` rewrites: its window."""
        if kind != "braid":
            return word[site:site + _WINDOW.get(kind, 0)]
        m = self._mst(word[site], word[site + 1])
        if m not in _BRAIDS:
            raise UnsupportedBraidError(
                "braid moves with m >= 4 or infinite are not supported")
        return word[site:site + m]

    def _rule(self, kind, window, x, dwin, color=None, poly=None):
        """The one rule of an elementary morphism, on its window: the terms
        of a domain summand with window bits dwin and stroll element x at
        the window, as ((codomain window bits, term), ...).  The summand
        maps to its own bits outside the window around each codomain window
        bits; gen_matrix reads the rule forward, the numeric path backwards
        (_row).  A term is

            _UNIT                      1
            ("root", x, t)             x(alpha_t) mod I
            ("inv", x, t, sign)        sign / (x(alpha_t) mod I)
            ("ratio", x, s, t, cs, ct) (cs x(alpha_s) + ct x(alpha_t))
                                       / x(alpha_s), mod I (a braid entry)
            ("poly", x, f)             the polynomial f with x applied, mod I

        The codomain window bits of one summand are distinct; bits that
        name no codomain summand are dropped by the reader.
        """
        if kind == "enddot":
            return (((), _UNIT),) if dwin == (0,) else ()
        if kind == "merge":
            b1, b2 = dwin
            return (((b1 ^ b2,), ("inv", x, window[0], -1 if b1 else 1)),)
        if kind == "braid":
            s, t = window[0], window[1]
            return tuple((fwin, c if c is _UNIT else ("ratio", x, s, t) + c)
                         for fwin, c in _BRAIDS[len(window)][dwin])
        if kind == "startdot":
            return (((0,), ("root", x, color)),)
        if kind == "split":
            return (((0, dwin[0]), _UNIT), ((1, 1 - dwin[0]), _UNIT))
        return (((), ("poly", x, poly)),)

    def gen_matrix(self, kind, word, site, color=None, poly=None):
        """Matrix of an elementary morphism over Q_I; `word` is the domain
        word."""
        word = tuple(word)
        window = self._window(kind, word, site)
        cod = self.indices(self._codomain(kind, word, site, color))
        dom = self.indices(word)
        cpos = {c.bits: i for i, c in enumerate(cod)}
        end = site + len(window)
        out = {}
        for ci, e in enumerate(dom):
            b = e.bits
            for fwin, term in self._rule(kind, window, e.stroll[site],
                                         b[site:end], color, poly):
                ri = cpos.get(b[:site] + fwin + b[end:])
                if ri is not None:
                    out[(ri, ci)] = self._term_qcoeff(term)
        return StdMatrix(dom, cod, out)

    def _term_qcoeff(self, term):
        """A rule term as an element of Q_I."""
        pr = self.pr
        if term is _UNIT:
            return pr.unit
        tag, x = term[0], term[1]
        if tag == "poly":
            return pr.qi_const(pr.reduce_mod_I(pr.w_action(x, term[2]), self.I))
        coords = self.ball.root_image(x, term[2])
        if tag == "root":
            return pr.qi_const(pr.reduce_mod_I(pr.linear(coords), self.I))
        den = (pr.reduce_root_mod_I(coords, self.I),)
        if tag == "inv":
            return QCoeff(pr, pr.const(term[3]), den)
        cs, ct = term[4], term[5]
        num = pr.linear([tuple(cs * p + ct * q for p, q in zip(a, b)) for a, b in
                         zip(coords, self.ball.root_image(x, term[3]))])
        return QCoeff(pr, pr.reduce_mod_I(num, self.I), den)

    # -- reduced-word graph ------------------------------------------------

    def rex_neighbors(self, word):
        out = []
        for i in range(len(word) - 1):
            moved = self._braid_move(word, i)
            if moved is not None:
                out.append((i, moved))
        return out

    def rex_path(self, frm, to):
        """Deterministic shortest braid-move path: list of (site, word)."""
        frm, to = tuple(frm), tuple(to)
        if frm == to:
            return []
        key = (frm, to)
        got = self._rex_paths.get(key)
        if got is not None:
            return got
        parent = {frm: None}
        queue = [frm]
        while queue:
            nxt = []
            for w in queue:
                for site, w2 in self.rex_neighbors(w):
                    if w2 not in parent:
                        parent[w2] = (w, site)
                        if w2 == to:
                            path = []
                            cur = to
                            while parent[cur] is not None:
                                prev, st = parent[cur]
                                path.append((st, prev))
                                cur = prev
                            path.reverse()
                            self._rex_paths[key] = path
                            return path
                        nxt.append(w2)
            queue = nxt
        raise CoxkitError("reduced words %r and %r are not braid-connected"
                          % (frm, to))

    # -- light leaves ----------------------------------------------------------

    def _ll_ops(self, word, e):
        """The generator program of the light leaf of e: list of
        (kind, domain word, site, color) acting N_word -> N_canonical_rex,
        the steps of _step_ops in order."""
        ops = []
        for i, s in enumerate(word):
            ops += self._step_ops(e.stroll[i], s, e.decorations[i],
                                  tuple(word[i + 1:]))
        return ops

    def _step_ops(self, x, s, dec, suffix):
        """The generator ops of one step of a light-leaf program: the letter
        s with decoration dec, read at the stroll element x before it, and
        `suffix` the rest of the word.  They act N_{x.word + (s,) + suffix}
        -> N_{y.word + suffix}, y the stroll element after the step, so they
        depend on nothing else."""
        u = x.word
        ops = []

        def rex_ops(frm, to, tail):
            for site, w1 in self.rex_path(frm, to):
                ops.append(("braid", w1 + tail, site, None))

        if dec == "U1":
            rex_ops(u + (s,), self.ball.right(x, s).word, suffix)
        elif dec == "U0":
            ops.append(("enddot", u + (s,) + suffix, len(u), s))
        else:
            uprime = self.ball.right(x, s).word + (s,)
            rex_ops(u, uprime, (s,) + suffix)
            ops.append(("merge", uprime + (s,) + suffix, len(uprime) - 1, s))
            if dec == "D0":
                rex_ops(uprime, u, suffix)
            else:
                ops.append(("enddot", uprime + suffix, len(uprime) - 1, s))
        return ops

    def _op_matrix(self, op, flipped=False):
        """The symbolic matrix of a light-leaf op, or of its flip."""
        if flipped:
            op = self._flip_op(op)
        got = self._gen_cache.get(op)
        if got is None:
            kind, w, site, color = op
            got = self.gen_matrix(kind, w, site, color=color)
            self._gen_cache[op] = got
        return got

    def _flip_op(self, op):
        kind, w, site, color = op
        cod = self._codomain(kind, w, site, color)
        if kind == "enddot":
            return ("startdot", cod, site, color)
        if kind == "merge":
            return ("split", cod, site, None)
        return ("braid", cod, site, None)

    def eval_lightleaf(self, word, e, flipped=False):
        """LL_e: N_word -> N_rex(endpoint), rex = the canonical reduced word;
        flipped, the flipped leaf N_rex(endpoint) -> N_word.  Each
        orientation has its own cache."""
        word = tuple(word)
        cache = self._llbar_cache if flipped else self._ll_cache
        key = (word, e.bits)
        got = cache.get(key)
        if got is None:
            ops = self._ll_ops(word, e)
            start = e.endpoint.word if flipped else word
            got = StdMatrix.identity(self.indices(start), self.pr)
            for op in reversed(ops) if flipped else ops:
                got = self._op_matrix(op, flipped).compose(got)
            cache[key] = got
        return got

    # -- pairings and forms -------------------------------------------------

    def leaves_at(self, word, x):
        return [e for e in self.indices(word) if e.endpoint == x]

    def double_leaf(self, word, e, f):
        """flipped(LL_f) o LL_e : N_word -> N_word.  The most recent result
        is kept, since endpoint matching and triangularity read the same
        pair one after the other."""
        word = tuple(word)
        key = (word, e.bits, f.bits)
        if self._last_double[0] != key:
            self._last_double = key, self.eval_lightleaf(
                word, f, flipped=True).compose(self.eval_lightleaf(word, e))
        return self._last_double[1]

    def _down_set(self, word, e):
        """Bits of the leaves of `word` path-dominated by e, by path_dom_leq;
        the sets of one word are kept until another word is asked for."""
        if self._down_sets[0] != word:
            self._down_sets = word, {}
        sets = self._down_sets[1]
        got = sets.get(e.bits)
        if got is None:
            got = sets[e.bits] = frozenset(
                d.bits for d in self.indices(word) if path_dom_leq(self.ball, d, e))
        return got

    def check_triangularity(self, word, e, f):
        """Entries of the double leaf vanish outside the path-dominance
        down-set of (e, f)."""
        word = tuple(word)
        comp = self.double_leaf(word, e, f)
        below_e = self._down_set(word, e)
        below_f = self._down_set(word, f)
        return all(comp.domain[ci].bits in below_e
                   and comp.codomain[ri].bits in below_f
                   for ri, ci in comp.entries)

    def diagonal_root_candidates(self, word, e):
        pr = self.pr
        roots = []
        for k, s in enumerate(word):
            roots.append(pr.reduce_root_mod_I(
                self.ball.root_image(e.stroll[k], s), self.I))
        return roots

    def check_diagonal(self, word, e):
        """Entry (e, e) of double_leaf(word, e, e) is a unit multiple of a
        product of roots (trial division by the stroll root images).  The
        backtracking division tries every candidate root, so its verdict
        depends only on the value and the set of candidates: it is kept per
        (shared value, frozenset of candidate roots)."""
        val = self.double_leaf(word, e, e).entry(e, e)
        if val is None:
            return False
        candidates = dict.fromkeys(
            list(self.diagonal_root_candidates(word, e)) + list(val.den))
        key = (val.idx, frozenset(candidates))
        got = self._diag_cache.get(key)
        if got is not None:
            return got
        divisors = [self._divisor(root) for root in candidates]
        got = self._diag_cache[key] = _divides_to_unit(self.pr, val.num, divisors)
        return got

    def _divisor(self, root):
        """(linear form, leading monomial, (adj, norm)) of a nonzero
        candidate root, lc * adj == norm > 0 for its leading coefficient lc
        (_inverse), cached by the root."""
        got = self._divisor_cache.get(root)
        if got is None:
            form = self.pr.linear(root)
            lm, lc = form.lead()
            got = self._divisor_cache[root] = form, lm, self._inverse(lc)
        return got

    def gram_invertible(self, word, x):
        """Nondegeneracy over Q_I: full rank of the Gram matrix, evaluated
        exactly at the calculus' point.  Its determinant is a unit times a
        ratio of roots outside the span of I (the triangularity lemma of the
        module docstring), so it vanishes at no point and one rank decides."""
        leaves = self.leaves_at(word, x)
        return not leaves or \
            self._rank(self.pairing_matrix(word, leaves, leaves)) == len(leaves)

    # -- numeric fast path ---------------------------------------------------

    def _stroll_values(self, x):
        """x(alpha_t) mod I at the point, for each t, as K coefficient
        tuples: the root_image coordinates dotted with the point,
        I-coordinates dropped.  Cached per x."""
        got = self._value_cache.get(x.idx)
        if got is None:
            pt = tuple(0 if u in self.I else c
                       for u, c in enumerate(self._point))
            got = tuple(
                tuple(sum(map(operator.mul, pt, col)) for col in
                      zip(*self.ball.root_image(x, t)))
                for t in range(self.pr.rank))
            self._value_cache[x.idx] = got
        return got

    def _inverse(self, value):
        """(adj, norm) for a nonzero r in K (a root value at a point, or a
        candidate root's leading coefficient), given by its coefficients:
        adj integral, norm a positive int, r * adj == norm, in lowest terms
        (ScalarRing.adjugate divided by its gcd content); cached by value."""
        got = self._inv_cache.get(value)
        if got is None:
            adj, det = self.pr.ring.adjugate(value)
            g = math.gcd(det, *adj)
            if det < 0:
                g = -g
            got = tuple(a // g for a in adj), det // g
            self._inv_cache[value] = got
        return got

    def _term_value(self, term):
        """A rule term at the point, as (integral K coefficients, positive
        integer denominator)."""
        if term is _UNIT:
            return self._one, 1
        tag, x = term[0], term[1]
        values = self._stroll_values(x)
        r = values[term[2]]
        if tag == "root":
            return r, 1
        if not any(r):
            # NotInvertibleError if the root is 0 in Q_I; at a point with
            # positive coordinates no other root vanishes (the lemma of the
            # module docstring)
            self.pr.reduce_root_mod_I(self.ball.root_image(x, term[2]), self.I)
            raise CoxkitError("a root outside the span of I vanishes at the "
                              "point %r, against the positivity lemma"
                              % (self._point,))
        adj, norm = self._inverse(r)
        if tag == "inv":
            return tuple(term[3] * a for a in adj), norm
        cs, ct = term[4], term[5]
        num = tuple(cs * a + ct * b for a, b in zip(r, values[term[3]]))
        return self.pr.ring.mul(num, adj), norm

    def _row(self, op, rows, fbits):
        """The row of a light-leaf op at the codomain summand fbits, at the
        point, as ([(domain bits, integral coefficients)], den > 0), kept in
        `rows`: the rule read backwards at the stroll element x of fbits at
        the op's site, over the domain window bits whose stroll from x stays
        in ^IW, with fbits' other bits put back.  The rows of all codomain
        window bits are read at once, per (kind, window, color, x)."""
        kind, w, site, color = op
        window = self._window(kind, w, site)
        x, right = self.ball.identity, self.ball.right
        for s, b in zip(w[:site], fbits):
            if b:
                x = right(x, s)
        key = (kind, window, color, x.idx)
        table = self._window_cache.get(key)
        if table is None:
            entries = {}
            for dwin, _, _ in _strolls(self.ball, self.ball.ascents(self.I),
                                       window, x):
                for fwin, term in self._rule(kind, window, x, dwin, color):
                    num, den = self._term_value(term)
                    if any(num):
                        entries.setdefault(fwin, []).append((dwin, num, den))
            table = self._window_cache[key] = {}
            for fwin, row in entries.items():
                den = math.lcm(*(d for _, _, d in row))
                table[fwin] = [(dwin, tuple(a * (den // d) for a in num))
                               for dwin, num, d in row], den
        end = site + len(window) + len(fbits) - len(w)     # codomain window
        row, den = table.get(fbits[site:end], ((), 1))
        head, tail = fbits[:site], fbits[end:]
        rows[fbits] = got = [(head + dwin + tail, num)
                             for dwin, num in row], den
        return got

    def _step_rows(self, x, s, dec, suffix):
        """The ops of one light-leaf step (_step_ops) in the order a top row
        meets them, last op first, each with its rows at the point read so
        far (fbits -> _row(op, rows, fbits), kept in _num_cache per op); the
        list is cached per (x, s, dec, suffix)."""
        key = (x.idx, s, dec, suffix)
        got = self._step_cache.get(key)
        if got is None:
            got = []
            for op in reversed(self._step_ops(x, s, dec, suffix)):
                rows = self._num_cache.get(op)
                if rows is None:
                    rows = self._num_cache[op] = {}
                got.append((op, rows))
            self._step_cache[key] = got
        return got

    def _top_vector(self, word, e):
        """Top row of LL_e evaluated at the point, as (integral
        coefficients by bits, one integer denominator).

        The row is propagated from the top summand of N_rex(x) back through
        the steps of the program, last step first.  Undoing steps n..i+1
        leaves a row on N_{x_i.word + word[i:]} that depends only on (x_i,
        word[i:], bits[i:]), since those fix every step op (_step_ops) and
        the endpoint.  So each partial row is kept under (x_i.idx,
        word[i:], bits[i:]), and leaves, of one word or of several, that
        share a suffix propagate it once.  Each op's rows are read on
        demand (_row), each over its own denominator, and the lcm of those
        read multiplies the running denominator."""
        cache = self._vec_cache
        stroll, bits = e.stroll, e.bits
        n = len(word)
        keys = []
        for i in range(n + 1):
            key = (stroll[i].idx, word[i:], bits[i:])
            got = cache.get(key)
            if got is not None:
                break
            keys.append(key)
        else:
            got = cache[keys.pop()] = {(1,) * stroll[n].length: self._one}, 1
        vec, den = got
        mul = self.pr.ring.mul
        for i in range(len(keys) - 1, -1, -1):
            for op, rows in self._step_rows(
                    stroll[i], word[i], e.decorations[i], word[i + 1:]):
                reached = [(v, rows.get(c) or self._row(op, rows, c))
                           for c, v in vec.items()]
                mden = math.lcm(*(rden for _, (_, rden) in reached))
                new = {}
                for v, (row, rden) in reached:
                    if rden != mden:
                        v = tuple(a * (mden // rden) for a in v)
                    for dst, m in row:
                        w = mul(v, m)
                        cur = new.get(dst)
                        new[dst] = w if cur is None else tuple(map(operator.add, cur, w))
                vec = {k: v for k, v in new.items() if any(v)}
                if not vec:
                    break       # zero stays zero, over the same denominator
                den *= mden
                g = math.gcd(den, *(a for v in vec.values() for a in v))
                if g > 1:
                    vec = {k: tuple(a // g for a in v) for k, v in vec.items()}
                    den //= g
            got = cache[keys[i]] = vec, den
        return got

    def _euler(self, word, stroll):
        """prod_k x_k(alpha_{s_{k+1}}) mod I at the point, over the stroll
        x_0, x_1, ... of a summand of `word`: its Euler class, as integral K
        coefficients."""
        ring = self.pr.ring
        out = self._one
        for s, x in zip(word, stroll):
            out = ring.mul(out, self._stroll_values(x)[s])
        return out

    def _euler_table(self, word):
        """bits -> Euler class at the point, for every summand of `word`;
        cached per word."""
        got = self._euler_cache.get(word)
        if got is None:
            got = self._euler_cache[word] = {
                g.bits: self._euler(word, g.stroll) for g in self.indices(word)}
        return got

    def _top_inverse(self, x):
        """(adj, norm) of the Euler class of the top summand of N_rex(x) at
        the point: the product of the roots along the all-ones stroll of x's
        canonical reduced word."""
        got = self._top_cache.get(x.idx)
        if got is None:
            stroll = decorate(self.ball, x.word, (1,) * x.length).stroll
            got = self._top_cache[x.idx] = self._inverse(
                self._euler(x.word, stroll))
        return got

    def pairing_matrix(self, word, rows, cols):
        """[[<e, f> for f in cols] for e in rows] at the point, for
        leaves e, f of `word` with one common endpoint x, by the
        localization formula

            <e, f> = E_top(x)^-1 sum_g LL_e[top, g] LL_f[top, g] E(g)

        over the summands g of N_word, E the Euler class (_euler).  The
        columns' top rows are indexed by summand bits, each entry times
        E(g); each row leaf adds its entries to the sums of the columns that
        share its summands, one sparse outer product per row; and each sum
        is multiplied by adj(E_top(x)) and reduced by one gcd.  When cols
        is rows the matrix is symmetric, so only its upper triangle is
        summed, and mirrored.  Entries are (coeffs, den) in lowest terms:
        integral K coefficients over a positive integer denominator."""
        word = tuple(word)
        adj, norm = self._top_inverse(rows[0].endpoint)
        euler = self._euler_table(word)
        mul = self.pr.ring.mul
        zero = (0,) * len(adj), 1
        symmetric = cols is rows
        col_vecs = [self._top_vector(word, f) for f in cols]
        row_vecs = col_vecs if symmetric else \
            [self._top_vector(word, e) for e in rows]
        by_bits = {}            # bits g -> [(column j, LL_f[top, g] E(g))]

        def index(j):
            for g, w in col_vecs[j][0].items():
                by_bits.setdefault(g, []).append((j, mul(w, euler[g])))

        if not symmetric:
            for j in range(len(cols)):
                index(j)
        out = [None] * len(rows)
        for i in range(len(rows) - 1, -1, -1):
            if symmetric:
                index(i)        # the columns j >= i
            vec, rden = row_vecs[i]
            sums = {}
            for g, v in vec.items():
                for j, w in by_bits.get(g, ()):
                    t = mul(v, w)
                    cur = sums.get(j)
                    sums[j] = t if cur is None else tuple(map(operator.add, cur, t))
            row = out[i] = [zero] * len(cols)
            for j, total in sums.items():
                total = mul(total, adj)
                den = rden * col_vecs[j][1] * norm
                g = math.gcd(den, *total)
                row[j] = tuple(a // g for a in total), den // g
        if symmetric:
            for i, row in enumerate(out):
                for j in range(i):
                    row[j] = out[j][i]
        return out

    def _rank(self, form, field=None):
        """Rank of a form of pairing values (coeffs, den) over Frac(K), or
        over the residue field `field`: each row scaled by the lcm of its
        denominators to integral K tuples, then ranked by ScalarRing.rank
        (bareiss) or field.rank (mod p).  The values are in lowest terms, so
        p divides a row's lcm exactly when an entry has no image in the
        field, and is refused; otherwise the lcm is a unit mod p, and
        scaling a row by it keeps the rank."""
        rows = []
        for row in form:
            den = math.lcm(*(d for _, d in row))
            if field is not None and den % field.p == 0:
                raise UnsupportedCharacteristicError(
                    "denominator divisible by %d in scalar reduction" % field.p)
            rows.append([tuple(a * (den // d) for a in c) for c, d in row])
        return (self.pr.ring if field is None else field).rank(rows)

    # -- intersection forms and canonical multiplicities --------------------------

    def multiplicity(self, word, x, char=0):
        """Graded multiplicity m_x(v) via ranks of the intersection forms.

        The pairings at defect sum zero are constants of Frac(K), so they are
        read off exactly by evaluating at the calculus' point.  The pairing
        is symmetric, so the form at defect -d is the transpose of the form
        at d: only the forms at d >= 0 are assembled (pairing_matrix), each
        ranked once by _rank, at char 0 or mod p, and a rank r at d > 0
        adds r (v^d + v^-d).

        At char p the realization must be Demazure surjective (Elias-
        Williamson's standing hypothesis): each alpha_s^vee is nonzero on
        some simple root in the residue field, or p is refused.
        """
        word = tuple(word)
        field = None
        if char:
            field = PrimeFieldK(self.pr.ring, char)
            for s, col in enumerate(zip(*self.ball.cartan)):
                if not any(a % char for c in col for a in c):
                    raise UnsupportedCharacteristicError(
                        "the realization is not Demazure surjective at "
                        "characteristic %d: alpha_s%d^vee vanishes on every "
                        "simple root" % (char, s + 1))
        by_defect = {}
        for e in self.leaves_at(word, x):
            by_defect.setdefault(e.defect, []).append(e)
        out = LaurentPoly.zero()
        for d, rows in sorted(by_defect.items()):
            if d < 0 or -d not in by_defect:
                continue
            rank = self._rank(
                self.pairing_matrix(word, rows, by_defect[-d]), field)
            if rank:
                out = out + LaurentPoly.v(-d, rank)
                if d:
                    out = out + LaurentPoly.v(d, rank)
        return out

    def pcanonical(self, word, char=0):
        """Indecomposable multiplicities in the object of `word` over N:
        {x: m_x(v)} for each x with m_x nonzero, in (-length, word) order."""
        word = tuple(word)
        endpoints = sorted({e.endpoint for e in self.indices(word)},
                           key=lambda z: (-z.length, z.word))
        out = {}
        for x in endpoints:
            m = self.multiplicity(word, x, char=char)
            if not m.is_zero():
                out[x] = m
        return out


def relation_oracle(calc):
    """Check the defining relations of the calculus as exact matrix
    identities over Q_I: one-color relations per color, and (for every
    pair with m in {2, 3}) braid involution, dot slides or Jones-Wenzl
    equations, plus two-color associativity.  Returns [(name, bool)].

    The braid rule at a nonempty I is the I = {} table reduced mod I, and
    the reduction can hide a wrong entry, so the two-color checks also run
    on LocalCalculus(calc.ball), named with the prefix "I = {}, ".
    """
    out = _one_color_relations(calc) + _two_color_relations(calc)
    if calc.I:
        out += [("I = {}, " + name, ok)
                for name, ok in _two_color_relations(LocalCalculus(calc.ball))]
    return out


def _one_color_relations(calc):
    gm = calc.gen_matrix
    pr = calc.pr
    out = []
    for s in range(calc.ball.rank):
        tag = "color %d: " % s
        ident = StdMatrix.identity(calc.indices((s,)), pr)
        barbell = gm("enddot", (s,), 0).compose(gm("startdot", (), 0, color=s))
        out.append((tag + "barbell",
                    barbell == gm("poly", (), 0, poly=pr.alpha(s))))
        merge = gm("merge", (s, s), 0)
        out.append((tag + "dot-trivalent left",
                    merge.compose(gm("startdot", (s,), 0, color=s)) == ident))
        out.append((tag + "dot-trivalent right",
                    merge.compose(gm("startdot", (s,), 1, color=s)) == ident))
        out.append((tag + "needle",
                    not merge.compose(gm("split", (s,), 0)).entries))
        lhs = gm("merge", (s, s, s), 1).compose(gm("split", (s, s), 0))
        mid = gm("split", (s,), 0).compose(merge)
        rhs = gm("merge", (s, s, s), 0).compose(gm("split", (s, s), 1))
        out.append((tag + "frobenius associativity", lhs == mid and rhs == mid))
        f = pr.alpha(s) * pr.alpha(s) + pr.alpha((s + 1) % calc.ball.rank) \
            if calc.ball.rank > 1 else pr.alpha(s) * pr.alpha(s)
        nil_lhs = gm("poly", (s,), 0, poly=f)
        nil_rhs = gm("poly", (s,), 1, poly=pr.s_action(s, f)) \
            + gm("startdot", (), 0, color=s).compose(
                gm("enddot", (s,), 0)).scale(pr.qi_const(pr.demazure(s, f)))
        out.append((tag + "nil-Hecke", nil_lhs == nil_rhs))
    return out


def _two_color_relations(calc):
    gm = calc.gen_matrix
    pr = calc.pr
    out = []
    for b in range(calc.ball.rank):
        for r in range(calc.ball.rank):
            if b == r:
                continue
            m = calc._mst(b, r)
            if m not in _BRAIDS:
                continue
            tag = "pair (%d,%d): " % (b, r)
            X = gm("braid", calc._braid_window(b, r), 0)
            Xrev = gm("braid", calc._braid_window(r, b), 0)
            comp = Xrev.compose(X)
            out.append((tag + "endpoint matching", X.endpoint_matched()))
            if m == 2:
                out.append((tag + "braid involution",
                            comp == StdMatrix.identity(X.domain, pr)))
                slide = X.compose(gm("startdot", (r,), 0, color=b)) \
                    == gm("startdot", (r,), 1, color=b)
                out.append((tag + "dot slide", slide))
            else:
                # involution holds only on the top summand (unit coefficient
                # plus terms factoring through lower objects)
                top = (1,) * m
                if top in comp.dpos:
                    tval = comp.entries.get((comp.cpos[top], comp.dpos[top]))
                    ok = tval is not None and tval == pr.unit
                else:
                    ok = True  # top summand not antispherical: vacuous
                out.append((tag + "braid involution on top summand", ok))
                jw = all(X.compose(d) == rhs
                         for d, rhs in _braid3_equations(calc, b, r))
                out.append((tag + "jones-wenzl dotted legs", jw))
                lhs2 = gm("split", (b, r, b), 2).compose(Xrev)
                rhs2 = gm("braid", (r, b, r, b), 0).compose(
                    gm("braid", (r, r, b, r), 1)).compose(
                    gm("split", (r, b, r), 0))
                out.append((tag + "two-color associativity", lhs2 == rhs2))
    return out


def _braid3_equations(calc, b, r):
    """The dotted-leg (Jones-Wenzl) equations pinning the m = 3 braid
    matrix X: pairs (D, RHS) with X o D = RHS, one per domain strand."""
    gm = calc.gen_matrix

    d1 = gm("startdot", (r, b), 0, color=b)
    rhs1 = gm("startdot", (r, r), 1, color=b).compose(
        gm("split", (r,), 0)).compose(gm("enddot", (r, b), 1)) \
        + gm("startdot", (r, b), 2, color=r)

    d2 = gm("startdot", (b, b), 1, color=r)
    merge_b = gm("merge", (b, b), 0)
    cap = gm("enddot", (b,), 0).compose(merge_b)
    cup_r = gm("split", (r,), 0).compose(gm("startdot", (), 0, color=r))
    rhs2 = gm("startdot", (r, b), 2, color=r).compose(
        gm("startdot", (b,), 0, color=r)).compose(merge_b) \
        + gm("startdot", (r, r), 1, color=b).compose(cup_r).compose(cap)

    d3 = gm("startdot", (b, r), 2, color=b)
    rhs3 = gm("startdot", (r, r), 1, color=b).compose(
        gm("split", (r,), 0)).compose(gm("enddot", (b, r), 0)) \
        + gm("startdot", (b, r), 0, color=r)
    return [(d1, rhs1), (d2, rhs2), (d3, rhs3)]


def _divides_to_unit(pr, num, divisors):
    """True if num is a unit of K times a product of the divisors' forms.
    Roots come in scalar multiples (e.g. alpha and 2*alpha mod I), so greedy
    division can strand a non-unit content; this backtracks instead.

    Every division is exact over K, not over Frac(K).  A branch succeeds only
    along a path num = L_1 ... L_k u, u a unit of K, and every candidate form
    L_i is over K, so every quotient u L_(j+1) ... L_k on that path is over
    K too.  A branch whose quotient has a coefficient outside K can never
    succeed, so _divide_by_linear stops it at that coefficient and the
    verdict is the one division over Frac(K) gives."""
    if num.is_constant():
        return pr.ring.is_unit(num.constant())
    for divisor in divisors:
        q = _divide_by_linear(pr, num, divisor)
        if q is not None and _divides_to_unit(pr, q, divisors):
            return True
    return False


def _divide_by_linear(pr, poly, divisor):
    """The quotient of poly by a linear form over K, or None if the form
    does not divide poly or the quotient has a coefficient outside K;
    `divisor` is (form, leading monomial lm, (adj, norm)) with
    lc * adj == norm > 0 for the leading coefficient lc (_divisor), so each
    quotient coefficient c / lc is c * adj / norm."""
    form, lm, (adj, norm) = divisor
    ring = pr.ring
    zero = ring.zero()
    rem = dict(poly.coeffs)
    quo = {}
    while rem:
        m = max(rem)
        q_mono = tuple(a - b for a, b in zip(m, lm))
        if any(k < 0 for k in q_mono):
            return None
        scaled = ring.mul(rem.pop(m), adj)
        if any(a % norm for a in scaled):
            return None
        qc = quo[q_mono] = tuple(a // norm for a in scaled)
        for fm, fc in form.coeffs.items():
            if fm == lm:
                continue  # leading term already cancelled by the pop
            tm = tuple(a + b for a, b in zip(q_mono, fm))
            val = ring.sub(rem.get(tm, zero), ring.mul(qc, fc))
            if any(val):
                rem[tm] = val
            else:
                rem.pop(tm, None)
    return Poly(pr, quo)
