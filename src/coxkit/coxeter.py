"""Coxeter system engine.

The reflection representation lives on the |S|-dimensional space with the
simple roots as a basis (pairings <alpha_t, alpha_s^vee> = -2cos(pi/m_st),
exact in K = Z[2cos(pi/N)], the smallest such ring: N is the lcm of the
finite m_st >= 4, as the entries for m = 2 and 3 are the integers 0 and -1.
So K = Z for A_n, D_n and affine A, Z[sqrt 2] for B_n and Z[golden ratio]
for H3).  An element x is identified by the heights of x(alpha_t), one per
t: together they are x^-1(rho), and W acts freely on the chamber holding rho
(Tits).  A GroupBall enumerates all elements up to a length cap breadth
first; the first discovered reduced word of an element is its
ShortLex-least one.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

from .errors import CapError, NotFinitaryError, ResourceError, UsageError
from .scalars import ScalarRing

INF = math.inf

# A group ball larger than this raises ResourceError.
_MAX_ELEMENTS = 2_000_000


def _type_number(name, digits):
    try:
        return int(digits)
    except ValueError:
        raise UsageError("unknown Coxeter type %r" % name) from None


class CoxeterMatrix:
    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        rank = len(entries)
        if any(len(row) != rank for row in entries):
            raise UsageError("Coxeter matrix must be square")
        for i, row in enumerate(entries):
            if row[i] != 1:
                raise UsageError("diagonal entries must be 1")
            for j, m in enumerate(row):
                if i != j and (m != entries[j][i] or (m is not INF and (not isinstance(m, int) or m < 2))):
                    raise UsageError("off-diagonal entries must be symmetric, >= 2 or inf")
        self.rank = rank
        self.entries = entries

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_type(name):
        """Built-in types: A n, B n, D n, H 3, I2_m, affA n (e.g. 'A3', 'I2_7')."""
        name = name.strip()
        if name.startswith("I2_"):
            m = _type_number(name, name[3:])
            return CoxeterMatrix(((1, m), (m, 1)))
        for prefix in ("affA", "A", "B", "D", "H"):
            if name.startswith(prefix):
                n = _type_number(name, name[len(prefix):])
                break
        else:
            raise UsageError("unknown Coxeter type %r" % name)
        if prefix == "affA":
            if n < 1:
                raise UsageError("affA n needs n >= 1")
            if n == 1:
                return CoxeterMatrix(((1, INF), (INF, 1)))
            rank = n + 1
            edges = [(i, (i + 1) % rank) for i in range(rank)]
            order = 3
        elif prefix == "A":
            if n < 0:
                raise UsageError("A n needs n >= 0")
            rank = n
            edges = [(i, i + 1) for i in range(n - 1)]
            order = 3
        elif prefix == "B":
            if n < 2:
                raise UsageError("B n needs n >= 2")
            rank = n
            edges = [(i, i + 1) for i in range(n - 1)]
            order = 3
        elif prefix == "D":
            if n < 3:
                raise UsageError("D n needs n >= 3")
            rank = n
            edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
            order = 3
        else:  # H
            if n != 3:
                raise UsageError("only H 3 is built in")
            rank = 3
            edges = [(0, 1), (1, 2)]
            order = 3
        mat = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
        for a, b in edges:
            mat[a][b] = mat[b][a] = order
        if prefix == "B":
            mat[n - 2][n - 1] = mat[n - 1][n - 2] = 4
        if prefix == "H":
            mat[0][1] = mat[1][0] = 5
        return CoxeterMatrix(mat)

    @staticmethod
    def from_json(text):
        """{"rank": n, "entries": n rows of n entries, each an int or "inf"}."""
        try:
            data = json.loads(text)
            rank = data["rank"]
            entries = [[INF if e == "inf" else e for e in row]
                       for row in data["entries"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError("bad Coxeter matrix JSON: %s: %s"
                             % (type(exc).__name__, exc)) from None
        if len(entries) != rank:
            raise UsageError("rank does not match entry table")
        return CoxeterMatrix(entries)

    def to_json(self):
        rows = [["inf" if e is INF else e for e in row] for row in self.entries]
        return json.dumps({"rank": self.rank, "entries": rows}, sort_keys=True)

    def __eq__(self, other):
        return isinstance(other, CoxeterMatrix) and other.entries == self.entries

    def __hash__(self):
        return hash(self.entries)

    # -- scalars -----------------------------------------------------------

    def ring_modulus(self):
        """N = lcm of the finite off-diagonal entries m >= 4 (1 if there are
        none): the smallest Z[2cos(pi/N)] holding every -2cos(pi/m), since
        m = 2 and m = 3 give the integers 0 and -1."""
        n = 1
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                m = self.entries[i][j]
                if m is not INF and m >= 4:
                    n = math.lcm(n, m)
        return n

    def scalar_ring(self):
        return ScalarRing(self.ring_modulus())

    def cartan(self, ring=None):
        """c[t][s] = <alpha_t, alpha_s^vee>, an element of K."""
        ring = ring or self.scalar_ring()
        two = ring.embed(2)
        return tuple(
            tuple(two if s == t else ring.cos_entry(None if self.entries[t][s] is INF
                                                    else self.entries[t][s])
                  for s in range(self.rank))
            for t in range(self.rank))


class Element:
    """A group element, one object per index of its ball: equality is identity."""

    __slots__ = ("ball", "idx", "word", "length")

    def __init__(self, ball, idx, word):
        self.ball = ball
        self.idx = idx
        self.word = word
        self.length = len(word)

    def __repr__(self):
        return "<%s>" % ("".join("s%d" % (g + 1) for g in self.word) or "e")


class GroupBall:
    """All elements of (W, S) of length <= length_cap, breadth first.

    right_idx[i][s] is the index of elements[i] * s, or None outside the
    ball."""

    def __init__(self, matrix, length_cap):
        self.matrix = matrix
        self.length_cap = length_cap
        self.rank = matrix.rank
        self.ring = matrix.scalar_ring()
        self.cartan = matrix.cartan(self.ring)
        self._build()
        self._inv = None
        self._desc = None
        self._asc_memo = {}
        self._bruhat_memo = {}
        zero, one = self.ring.zero(), self.ring.one()
        self._root_memo = {0: tuple(tuple(one if u == s else zero for u in range(self.rank))
                                    for s in range(self.rank))}
        self._wi_memo = {}

    # -- construction ------------------------------------------------------

    def _build(self):
        """Key each element x by x^-1(rho): block t holds the `deg`
        coefficients of rho(x(alpha_t)), the height of x(alpha_t).  Since
        rho lies inside the fundamental chamber, on which W acts freely
        (Tits' theorem; Humphreys, Reflection Groups and Coxeter Groups,
        5.13), distinct elements get distinct keys.  Right multiplication by
        s negates block s and changes only the neighbours t of s:
        key(xs)_t = key(x)_t - <alpha_t, alpha_s^vee> key(x)_s."""
        rank, d = self.rank, self.ring.deg
        cartan = self.cartan
        neigh = [[t for t in range(rank) if t != s and any(cartan[t][s])]
                 for s in range(rank)]
        mul = self.ring.mul

        def mul_key(key, s):
            lst = list(key)
            b = s * d
            ks = key[b:b + d]
            lst[b:b + d] = [-v for v in ks]
            for t in neigh[s]:
                bt = t * d
                lst[bt:bt + d] = [p - q for p, q in zip(key[bt:bt + d], mul(cartan[t][s], ks))]
            return tuple(lst)

        ident = ((1,) + (0,) * (d - 1)) * rank
        keys = [ident]
        index = {ident: 0}
        words = [()]
        right = [[None] * rank]
        frontier = [0]
        for _length in range(self.length_cap):
            nxt = []
            for x in frontier:
                key = keys[x]
                for s in range(rank):
                    if right[x][s] is not None:
                        continue
                    ykey = mul_key(key, s)
                    j = index.get(ykey)
                    if j is None:
                        j = len(keys)
                        if j > _MAX_ELEMENTS:
                            raise ResourceError("group ball exceeds element budget")
                        keys.append(ykey)
                        index[ykey] = j
                        words.append(words[x] + (s,))
                        right.append([None] * rank)
                        nxt.append(j)
                    right[x][s] = j
                    right[j][s] = x
            frontier = nxt
            if not frontier:
                break
        # The last round recorded each top element's descents; its ascents leave the ball.
        self.right_idx = right
        self.elements = [Element(self, i, w) for i, w in enumerate(words)]
        self.identity = self.elements[0]

    def __len__(self):
        return len(self.elements)

    # -- basic operations ----------------------------------------------------

    def right(self, x, s):
        """x*s, or None if it falls outside the ball."""
        j = self.right_idx[x.idx][s]
        return self.elements[j] if j is not None else None

    def product_of_word(self, word, start=None):
        x = start or self.identity
        for s in word:
            y = self.right(x, s)
            if y is None:
                raise CapError("product of length %d exceeds cap %d"
                               % (x.length + 1, self.length_cap))
            x = y
        return x

    def inverse(self, x):
        if self._inv is None:
            self._inv = {0: self.identity}
        got = self._inv.get(x.idx)
        if got is None:
            got = self.product_of_word(tuple(reversed(x.word)))
            self._inv[x.idx] = got
        return got

    def descents(self):
        """Per ball index, the bitmask of the right descents s (xs < x)."""
        if self._desc is None:
            els = self.elements
            self._desc = [sum(1 << s for s, j in enumerate(row)
                              if j is not None and els[j].length < x.length)
                          for x, row in zip(els, self.right_idx)]
        return self._desc

    # -- roots ---------------------------------------------------------------

    def root_image(self, x, s):
        """x(alpha_s) as a tuple of K coordinates in the simple-root basis.

        All `rank` images of x come at once from its parent p = x t, t the
        last letter of x's word: x(alpha_u) = p(alpha_u) - <alpha_u,
        alpha_t^vee> p(alpha_t).  A loop climbs to the nearest element whose
        images are known and memoizes every element on the way down.
        """
        memo = self._root_memo
        got = memo.get(x.idx)
        if got is None:
            chain = []
            y = x
            while y.idx not in memo:
                chain.append(y)
                y = self.right(y, y.word[-1])
            got = memo[y.idx]
            cartan = self.cartan
            neg, sub, mul = self.ring.neg, self.ring.sub, self.ring.mul
            for y in reversed(chain):
                t = y.word[-1]
                pt = got[t]
                got = tuple(
                    tuple(map(neg, pt)) if u == t
                    else img if not any(cartan[u][t])
                    else tuple(sub(a, mul(cartan[u][t], b)) for a, b in zip(img, pt))
                    for u, img in enumerate(got))
                memo[y.idx] = got
        return got[s]

    # -- Bruhat order ----------------------------------------------------------

    def bruhat_leq(self, y, x):
        """y <= x, by recursion on s = the last letter of x's word, a right
        descent: if ys < y, then y <= x iff ys <= xs, else y <= x iff
        y <= xs (the lifting property; Bjorner-Brenti, Combinatorics of
        Coxeter Groups, Prop. 2.2.7, applied to inverses)."""
        if y.idx == x.idx:
            return True
        key = (y.idx, x.idx)
        got = self._bruhat_memo.get(key)
        if got is None:
            if y.length >= x.length:
                got = False
            else:
                s = x.word[-1]
                els, right = self.elements, self.right_idx
                xs = els[right[x.idx][s]]
                j = right[y.idx][s]
                if j is not None and els[j].length < y.length:
                    got = self.bruhat_leq(els[j], xs)
                else:
                    got = self.bruhat_leq(y, xs)
            self._bruhat_memo[key] = got
        return got

    # -- parabolic structure -----------------------------------------------------

    def ascents(self, I):
        """Per ball index: for x in ^IW (every s in I has sx > x) the bitmask
        of the s with xs > x in ^IW, else None; built once per I.  Every
        xs < x of an x in ^IW is in ^IW too (Deodhar, J. Algebra 111, 1987),
        so a stroll inside ^IW needs only these masks.  The left descents
        of x are the right descents of x^-1."""
        I = frozenset(I)
        got = self._asc_memo.get(I)
        if got is None:
            els, desc = self.elements, self.descents()
            mask = sum(1 << s for s in I)
            inq = [not mask or not desc[self.inverse(x).idx] & mask for x in els]
            got = [sum(1 << s for s, j in enumerate(row)
                       if j is not None and inq[j] and els[j].length > x.length)
                   if inq[x.idx] else None
                   for x, row in zip(els, self.right_idx)]
            self._asc_memo[I] = got
        return got

    def min_reps(self, I):
        """^IW inside the ball, in index (shortlex) order."""
        return [x for x, a in zip(self.elements, self.ascents(I)) if a is not None]

    def subgroup_elements(self, I):
        """Elements of W_I inside the ball."""
        I = frozenset(I)
        got = self._wi_memo.get(I)
        if got is None:
            got = [x for x in self.elements if all(g in I for g in x.word)]
            self._wi_memo[I] = got
        return got

    def longest_element(self, I):
        x = self.identity
        while True:
            for s in I:
                y = self.right(x, s)
                if y is None:
                    raise NotFinitaryError("W_I not exhausted within length cap")
                if y.length > x.length:
                    x = y
                    break
            else:
                return x


@lru_cache(maxsize=32)
def _cached_ball(matrix, cap):
    return GroupBall(matrix, cap)


def build_ball(matrix, length_cap):
    if length_cap < 0:
        raise UsageError("length cap must be >= 0")
    return _cached_ball(matrix, length_cap)
