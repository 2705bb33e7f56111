"""Exact arithmetic in K = Z[theta], theta = 2cos(pi/N)."""

import math
import random
from fractions import Fraction

import pytest

from coxkit.coxeter import CoxeterMatrix, build_ball
from coxkit.errors import (CoxkitError, NotInvertibleError, RingParameterError,
                           UnsupportedCharacteristicError)
from coxkit.localization import LocalCalculus
from coxkit.polyring import PolyRing
from coxkit.scalars import PrimeFieldK, ScalarRing, _is_prime, bareiss
from field_refs import CycRat, evaluate, prime_field_ops, reduce, sign


@pytest.fixture
def R6():
    return ScalarRing(6)


def test_cos_entry_infinite_is_minus_two(R6):
    assert R6.cos_entry(None) == R6.embed(-2)


def test_cos_entry_m2_is_zero(R6):
    assert R6.cos_entry(2) == R6.zero()


def test_cos_entry_m3_in_ring_six(R6):
    # -2cos(pi/3) = -1; via Chebyshev rewriting -(theta^2 - 2) with theta^2 = 3
    assert R6.cos_entry(3) == R6.embed(-1)
    theta = R6.theta()
    assert R6.neg(R6.sub(R6.mul(theta, theta), R6.embed(2))) == R6.embed(-1)


def test_cos_entry_requires_divisor():
    with pytest.raises(RingParameterError):
        ScalarRing(6).cos_entry(5)


def test_cos_entry_m2_and_m3_are_integers_in_every_ring():
    # 0 and -1 need no theta, so ScalarRing(N) holds them whether or not
    # 2 and 3 divide N; m >= 4 still has to divide N
    for n in (1, 5):
        R = ScalarRing(n)
        assert R.cos_entry(2) == R.zero()
        assert R.cos_entry(3) == R.embed(-1)
    with pytest.raises(RingParameterError):
        ScalarRing(6).cos_entry(5)


def test_cos_entry_m4_squares_to_two():
    R = ScalarRing(4)
    c = R.cos_entry(4)
    assert R.mul(c, c) == R.embed(2)


def test_theta_squared_reduces(R6):
    theta = R6.theta()
    assert R6.mul(theta, theta) == R6.embed(3)


def test_ring_ops(R6):
    a = R6.add(R6.theta(), R6.embed(7))
    assert R6.add(a, R6.zero()) == a
    assert R6.mul(R6.embed(5), R6.embed(2)) == R6.embed(10)
    assert R6.sub(a, a) == R6.zero()
    assert R6.add(R6.neg(a), a) == R6.zero()


def test_sign_examples(R6):
    theta = R6.theta()
    assert sign(R6, R6.zero()) == 0
    assert sign(R6, R6.sub(theta, R6.embed(1))) == 1  # sqrt(3) > 1
    assert sign(R6, R6.sub(R6.mul(theta, theta), R6.embed(3))) == 0


def test_sign_zero_iff_canonical_zero(R6):
    rng = random.Random(5)
    for _ in range(200):
        a = tuple(rng.randint(-4, 4) for _ in range(R6.deg))
        assert (sign(R6, a) == 0) == (a == R6.zero())


@pytest.mark.parametrize("n", [4, 5, 6, 12])
def test_sign_matches_float_evaluation(n):
    R = ScalarRing(n)
    theta = 2 * math.cos(math.pi / n)
    rng = random.Random(n)
    for _ in range(1000):
        a = tuple(rng.randint(-6, 6) for _ in range(R.deg))
        approx = sum(c * theta ** i for i, c in enumerate(a))
        if abs(approx) > 1e-9:
            assert sign(R, a) == (1 if approx > 0 else -1)
        else:
            assert sign(R, a) == 0


def test_norm_and_units(R6):
    assert R6.is_unit(R6.one())
    assert R6.is_unit(R6.neg(R6.one()))
    assert not R6.is_unit(R6.embed(2))
    assert R6.norm(R6.embed(6)) == 36  # deg-2 ring: norm of an integer k is k^2
    # 2 + theta has norm 4 - 3 = 1 in Z[sqrt(3)]
    assert R6.is_unit(R6.add(R6.embed(2), R6.theta()))


def test_cycrat_inverse_roundtrip(R6):
    rng = random.Random(11)
    one = CycRat(R6, R6.one())
    for _ in range(100):
        a = CycRat(R6, (rng.randint(-5, 5) for _ in range(R6.deg)))
        if a.is_zero():
            continue
        assert a * a.inverse() == one
        assert a / a == one


def test_cycrat_integrality(R6):
    half = CycRat(R6, R6.one()) / CycRat(R6, R6.embed(2))
    assert not half.is_integral()
    assert (half + half).is_integral()
    assert (half + half).to_integral() == R6.one()


def test_prime_field_basic():
    R = ScalarRing(1)  # K = Z
    for p in (2, 3, 5, 97):
        F = PrimeFieldK(R, p)
        Fp = prime_field_ops(F)
        a = reduce(F, R.embed(p + 1), 1)
        assert Fp.mul(a, Fp.inv(a)) == Fp.one()
        assert a == (1,)
        assert reduce(F, (-1,), p + 1) == (p - 1,)
        assert reduce(F, (p,), p * (p + 1)) == reduce(F, (1,), p + 1) == (1,)
        assert F.rank([]) == 0 and F.rank([[Fp.zero()]]) == 0
        assert F.rank([[a]]) == 1 and F.rank([[a, a], [a, a]]) == 1
        # det = -2: singular exactly mod 2
        m = [[reduce(F, (x,), 1) for x in row] for row in ((1, 2), (3, 4))]
        assert F.rank(m) == (1 if p == 2 else 2)
        # integral entries are ranked as their images
        assert F.rank([[(x,) for x in row] for row in ((1, 2), (3, 4))]) == F.rank(m)


def test_partial_operations_raise_typed_errors(R6):
    # these checks used to be asserts, which python -O strips
    half = CycRat(R6, R6.one()) / 2
    with pytest.raises(NotInvertibleError):
        CycRat(R6, R6.zero()).inverse()
    with pytest.raises(CoxkitError):
        half.to_integral()
    with pytest.raises(CoxkitError):
        reduce(PrimeFieldK(R6, 5), R6.theta(), 5)  # theta / 5 has no image mod 5
    F = prime_field_ops(PrimeFieldK(ScalarRing(1), 5))
    with pytest.raises(NotInvertibleError):
        F.inv(F.zero())


def test_prime_field_rejects_composite():
    R = ScalarRing(1)
    for bad in (0, 1, 4, 6, 9):
        with pytest.raises(UnsupportedCharacteristicError):
            PrimeFieldK(R, bad)


def test_primality_test_matches_trial_division_below_10_4():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
    for n in range(10 ** 4):
        assert _is_prime(n) == trial(n), n


# the least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 8, 11 and 12
# prime bases, each as its factors
@pytest.mark.parametrize("factors", [
    (23, 89), (829, 1657), (2251, 11251), (151, 751, 28351),
    (6763, 10627, 29947), (1303, 16927, 157543), (10670053, 32010157),
    (149491, 747451, 34233211), (399165290221, 798330580441)])
def test_primality_test_rejects_strong_pseudoprimes(factors):
    assert not _is_prime(math.prod(factors))


def test_primality_test_accepts_large_primes():
    for p in (2 ** 31 - 1, 2 ** 61 - 1, 10 ** 18 + 9, 2 ** 64 - 59):
        assert _is_prime(p)
    assert not _is_prime((2 ** 31 - 1) * (2 ** 61 - 1))


def test_prime_field_rejects_split_prime():
    R = ScalarRing(4)  # Z[sqrt(2)]; y^2 - 2 factors mod 7
    with pytest.raises(UnsupportedCharacteristicError):
        PrimeFieldK(R, 7)
    PrimeFieldK(R, 3)  # inert: fine


def test_prime_field_rejects_bad_denominator():
    R = ScalarRing(1)
    F = PrimeFieldK(R, 5)
    fifth = CycRat(R, R.one()) / CycRat(R, R.embed(5))
    with pytest.raises(UnsupportedCharacteristicError):
        reduce(F, (fifth.coeffs[0].numerator,), fifth.coeffs[0].denominator)


def test_mixed_ring_arithmetic_rejected():
    # I2_6 and B2: N = 6 and 4, both of degree 2, so the coefficient tuples
    # alone cannot tell them apart; A2 and A3: one ring, two ranks
    for a, b in (("I2_6", "B2"), ("A2", "A3")):
        p, q = (PolyRing(build_ball(CoxeterMatrix.from_type(t), 2)) for t in (a, b))
        for f, g in ((p.alpha(0), q.alpha(1)), (p.alpha(1), q.alpha(1))):
            with pytest.raises(RingParameterError):
                f + g
            with pytest.raises(RingParameterError):
                f * g


# -- the one exact elimination, against Fraction references -------------------

def _fraction_rank_det(rows, ncols):
    """(rank, det) over Q by Gaussian elimination on Fractions; det of a
    square matrix, 0 otherwise."""
    mat = [[Fraction(x) for x in row] for row in rows]
    det, rank = Fraction(1), 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            mat[rank], mat[piv] = mat[piv], mat[rank]
            det = -det
        det *= mat[rank][col]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] / mat[rank][col]
            mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank, det if rank == len(mat) == ncols else Fraction(0)


def _random_matrix(rng, nrows, ncols, inner, lo=-6, hi=6):
    """A product of random nrows x inner and inner x ncols integer
    matrices (rank at most inner), with leading zeros put into some rows
    so that pivots need row moves."""
    left = [[rng.randint(lo, hi) for _ in range(inner)] for _ in range(nrows)]
    right = [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(inner)]
    mat = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
           if right else [0] * ncols for row in left]
    for row in mat:
        if rng.random() < 0.4:
            k = rng.randint(1, ncols)
            row[:k] = [0] * k
    return mat


def test_bareiss_rank_and_det_match_fraction_elimination():
    rng = random.Random(3)
    mats = [([], 0), ([[]], 0), ([[4]], 1), ([[0]], 1), ([[-3]], 1),
            ([[0, 1], [1, 0]], 2), ([[1, 2], [2, 4]], 2),
            ([[0, 0, 2], [0, 3, 1], [5, 1, 1]], 3)]
    for _ in range(400):
        n = rng.randint(1, 5)
        ncols = n if rng.random() < 0.8 else rng.randint(1, 5)
        mats.append((_random_matrix(rng, n, ncols, rng.randint(0, 5)), ncols))
    signs = set()
    for mat, ncols in mats:
        rank, det = bareiss(mat)
        want_rank, want_det = _fraction_rank_det(mat, ncols)
        assert (rank, det) == (want_rank, want_det), mat
        signs.add((want_det > 0) - (want_det < 0))
    assert bareiss([]) == (0, 1)
    assert signs == {-1, 0, 1}


def test_bareiss_matches_fraction_elimination_on_sparse_matrices():
    """Mostly-zero matrices, up to 9 x 9: rows skip several pivots before
    they are next updated (their deferred scaling), and the sparsest row
    with a nonzero leading entry, not the first, is the pivot."""
    rng = random.Random(11)
    signs = set()
    for _ in range(300):
        n = rng.randint(2, 9)
        ncols = n if rng.random() < 0.8 else rng.randint(2, 9)
        density = rng.choice([0.15, 0.3, 0.5])
        mat = [[rng.randint(-9, 9) if rng.random() < density else 0
                for _ in range(ncols)] for _ in range(n)]
        want_rank, want_det = _fraction_rank_det(mat, ncols)
        assert bareiss([list(row) for row in mat]) == (want_rank, want_det), mat
        signs.add((want_det > 0) - (want_det < 0))
    assert signs == {-1, 0, 1}


def _laplace_det(ring, rows):
    """Determinant of a square matrix over K by Laplace expansion."""
    if not rows:
        return ring.one()
    det = ring.zero()
    for j in range(len(rows)):
        term = ring.mul(rows[0][j], _laplace_det(ring, [r[:j] + r[j + 1:] for r in rows[1:]]))
        det = ring.sub(det, term) if j % 2 else ring.add(det, term)
    return det


@pytest.mark.parametrize("n", [5, 6, 12])
def test_bareiss_det_over_k_matches_laplace_expansion(n):
    """Bareiss on the regular representation of a matrix over K: its
    integer det is the norm of the Laplace det over K, and its rank is
    deg K times full rank exactly when that det is nonzero."""
    R = ScalarRing(n)
    rng = random.Random(n)
    nonzero = singular = 0
    for _ in range(60):
        size, inner = rng.randint(0, 4), rng.randint(0, 4)
        # K entries: coefficient-wise random matrices of the same shape
        parts = [_random_matrix(rng, size, size, inner, -3, 3) for _ in range(R.deg)]
        mat = [[tuple(p[i][j] for p in parts) for j in range(size)]
               for i in range(size)]
        want = _laplace_det(R, mat)
        rank, det = bareiss(R.regular(mat))
        assert det == _fraction_norm(R, want), mat
        assert (rank == size * R.deg) == any(want)
        nonzero += any(want)
        singular += not any(want) and size > 0
    assert nonzero > 10 and singular > 5


def _mul_columns(ring, coeffs):
    """Columns r * theta^j (j < deg) of the multiplication-by-r matrix."""
    cols = [list(coeffs)]
    for _ in range(ring.deg - 1):
        cols.append(list(ring._reduce([0] + cols[-1])))
    return cols


def _fraction_norm(ring, a):
    """N(a) by Gaussian elimination over Fraction on the multiplication
    matrix (the elimination norm() ran before adjugate)."""
    cols = _mul_columns(ring, a)
    rows = [[col[i] for col in cols] for i in range(ring.deg)]
    det = _fraction_rank_det(rows, ring.deg)[1]
    assert det.denominator == 1
    return int(det)


def _fraction_inverse(a):
    """1/a by Gauss-Jordan over Fraction on the multiplication matrix (the
    elimination CycRat.inverse ran before adjugate)."""
    d = a.ring.deg
    cols = _mul_columns(a.ring, a.coeffs)
    aug = [[Fraction(col[i]) for col in cols] + [Fraction(i == 0)] for i in range(d)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return CycRat(a.ring, (aug[i][d] for i in range(d)))


@pytest.mark.parametrize("n, deg", [(1, 1), (5, 2), (6, 2), (12, 4), (30, 8)])
def test_adjugate_norm_and_inverse_match_fraction_eliminations(n, deg):
    R = ScalarRing(n)
    assert R.deg == deg
    rng = random.Random(n)
    negative = 0
    for _ in range(150):
        a = tuple(rng.randint(-9, 9) for _ in range(deg))
        adj, det = R.adjugate(a)
        assert det == R.norm(a) == _fraction_norm(R, a)
        assert R.mul(a, adj) == R.embed(det)
        negative += det < 0
        q = CycRat(R, (Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(deg)))
        if not q.is_zero():
            assert q.inverse() == _fraction_inverse(q)
            assert not any(a) or CycRat(R, a).inverse() == \
                _fraction_inverse(CycRat(R, a))
    assert negative > 10
    assert R.adjugate(R.zero())[1] == 0


def _minor_adjugate(ring, coeffs):
    """(adj, det) by cofactors: each entry of adj is a signed Bareiss
    minor of the multiplication matrix below its first row, and det is
    the Laplace expansion along that row (the adjugate before one
    elimination with back-substitution replaced it)."""
    cols = ring.mul_columns(coeffs)
    below = [[col[i] for col in cols] for i in range(1, ring.deg)]
    adj = tuple((-1) ** i * bareiss([row[:i] + row[i + 1:] for row in below])[1]
                for i in range(ring.deg))
    return adj, sum(col[0] * a for col, a in zip(cols, adj))


@pytest.mark.parametrize("n, deg, count", [(3, 1, 200), (5, 2, 200), (12, 4, 100),
                                           (30, 8, 50), (140, 48, 1)])
def test_adjugate_matches_the_cofactor_reference(n, deg, count):
    """One elimination with back-substitution gives the cofactors' (adj,
    det); at N = 140 (deg 48) the reference takes seconds per element."""
    R = ScalarRing(n)
    assert R.deg == deg
    rng = random.Random(n)
    for _ in range(count):
        a = tuple(rng.randint(-3, 3) for _ in range(deg))
        assert R.adjugate(a) == _minor_adjugate(R, a)
    assert R.adjugate(R.zero()) == _minor_adjugate(R, R.zero())


def _fraction_reduce(F, coeffs, den):
    """coeffs / den in F by the per-coefficient rule: each a / den in lowest
    terms, refused when p divides its denominator."""
    out = []
    for a in coeffs:
        q = Fraction(a, den)
        if q.denominator % F.p == 0:
            raise UnsupportedCharacteristicError("denominator divisible by p")
        out.append(q.numerator * pow(q.denominator, F.p - 2, F.p) % F.p)
    return tuple(out)


@pytest.mark.parametrize("n, p", [(1, 5), (1, 7), (5, 3), (5, 7), (6, 5)])
def test_prime_field_reduce_refuses_exactly_when_a_coefficient_does(n, p):
    F = PrimeFieldK(ScalarRing(n), p)
    rng = random.Random(n * p)
    refused = 0
    for _ in range(500):
        den = rng.randint(1, 12) * rng.choice((1, p, p * p))
        coeffs = tuple(rng.randint(-3, 3) * rng.choice((1, p)) for _ in range(F.deg))
        try:
            want = _fraction_reduce(F, coeffs, den)
        except UnsupportedCharacteristicError:
            refused += 1
            with pytest.raises(UnsupportedCharacteristicError):
                reduce(F, coeffs, den)
        else:
            assert reduce(F, coeffs, den) == want
    assert 50 < refused < 450


# -- one element format: integral coefficient tuples ---------------------------

def _is_element(ring, a):
    return type(a) is tuple and len(a) == ring.deg and all(type(c) is int for c in a)


# rank-3 matrices with m12, m13, m23 = 3, 2, 7 and 4, 5, 7
_RANK3 = {"M_3_2_7": ((1, 3, 2), (3, 1, 7), (2, 7, 1)),
          "M_4_5_7": ((1, 4, 5), (4, 1, 7), (5, 7, 1))}


@pytest.mark.parametrize("name, deg", [("A3", 1), ("B3", 2), ("M_3_2_7", 3),
                                       ("I2_12", 4), ("M_4_5_7", 48)])
def test_k_values_are_tuples_of_deg_ints(name, deg):
    """Every element of K the library hands out is a tuple of deg ints:
    ring constants, Cartan entries, root images, Poly coefficients (linear,
    w_action, demazure), Poly.evaluate and the stroll values at a point."""
    matrix = CoxeterMatrix(_RANK3[name]) if name in _RANK3 \
        else CoxeterMatrix.from_type(name)
    ball = build_ball(matrix, 3)
    ring, rank = ball.ring, ball.rank
    assert ring.deg == deg
    consts = [ring.embed(3), ring.zero(), ring.one(), ring.theta(), ring.cos_entry(None)]
    consts += [c for row in ball.cartan for c in row]
    assert all(_is_element(ring, c) for c in consts)
    calc = LocalCalculus(ball)
    pr = calc.pr
    point = calc._point = tuple(range(2, 2 + rank))
    f = pr.alpha(0) * pr.alpha(rank - 1) + pr.const(3)
    for x in ball.elements:
        roots = [ball.root_image(x, s) for s in range(rank)]
        assert all(_is_element(ring, c) for root in roots for c in root)
        polys = [pr.linear(root) for root in roots]
        polys += [pr.w_action(x, f), pr.demazure(0, pr.w_action(x, f))]
        assert all(_is_element(ring, c) for g in polys for c in g.coeffs.values())
        assert all(_is_element(ring, evaluate(g, point)) for g in polys)
        assert all(_is_element(ring, v) for v in calc._stroll_values(x))


@pytest.mark.parametrize("n", [1, 4, 5, 6, 7, 12, 140])
def test_element_ops_match_the_fraction_reference(n):
    """add, sub, neg and mul against CycRat (Fraction coordinates), norm and
    is_unit against the Fraction elimination of the multiplication matrix;
    at N = 140 (deg 48) that elimination takes seconds, so norm and is_unit
    are left out there, and 50 elements keep the Fraction products short."""
    R = ScalarRing(n)
    rng = random.Random(n)
    zero = CycRat(R, R.zero())
    units = 0
    for _ in range(50 if n == 140 else 500):
        a, b = (tuple(rng.randint(-2, 2) for _ in range(R.deg)) for _ in range(2))
        ra, rb = CycRat(R, a), CycRat(R, b)
        assert CycRat(R, R.add(a, b)) == ra + rb
        assert CycRat(R, R.sub(a, b)) == ra - rb
        assert CycRat(R, R.neg(a)) == zero - ra
        assert CycRat(R, R.mul(a, b)) == ra * rb
        if n != 140:
            norm = _fraction_norm(R, a)
            assert R.norm(a) == norm
            assert R.is_unit(a) == (abs(norm) == 1)
            units += abs(norm) == 1
    assert n == 140 or units > 0
