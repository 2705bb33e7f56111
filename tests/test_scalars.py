"""Exact arithmetic in K = Z[theta], theta = 2cos(pi/N)."""

import math
import random

import pytest

from coxkit.errors import (CoxkitError, NotInvertibleError, RingParameterError,
                           UnsupportedCharacteristicError)
from coxkit.scalars import CycInt, CycRat, PrimeFieldK, ScalarRing


@pytest.fixture
def R6():
    return ScalarRing(6)


def from_coeffs(ring, coeffs):
    """The element of K with the given power-basis coefficients."""
    return CycInt(ring, ring._reduce(list(coeffs)))


def test_cos_entry_infinite_is_minus_two(R6):
    assert R6.cos_entry(None) == R6.embed(-2)


def test_cos_entry_m2_is_zero(R6):
    assert R6.cos_entry(2).is_zero()


def test_cos_entry_m3_in_ring_six(R6):
    # -2cos(pi/3) = -1; via Chebyshev rewriting -(theta^2 - 2) with theta^2 = 3
    assert R6.cos_entry(3) == R6.embed(-1)
    theta = R6.theta()
    assert -(theta * theta - R6.embed(2)) == R6.embed(-1)


def test_cos_entry_requires_divisor():
    with pytest.raises(RingParameterError):
        ScalarRing(6).cos_entry(5)


def test_cos_entry_m4_squares_to_two():
    R = ScalarRing(4)
    c = R.cos_entry(4)
    assert c * c == R.embed(2)


def test_theta_squared_reduces(R6):
    theta = R6.theta()
    assert theta * theta == R6.embed(3)


def test_ring_ops(R6):
    a = R6.theta() + R6.embed(7)
    assert a + R6.zero() == a
    assert R6.embed(5) * R6.embed(2) == R6.embed(10)
    assert a - a == R6.zero()
    assert (-a) + a == R6.zero()


def test_sign_examples(R6):
    assert R6.zero().sign() == 0
    assert (R6.theta() - R6.embed(1)).sign() == 1  # sqrt(3) > 1
    assert (R6.theta() * R6.theta() - R6.embed(3)).sign() == 0


def test_sign_zero_iff_canonical_zero(R6):
    rng = random.Random(5)
    for _ in range(200):
        a = from_coeffs(R6, [rng.randint(-4, 4) for _ in range(R6.deg)])
        assert (a.sign() == 0) == a.is_zero()


@pytest.mark.parametrize("n", [4, 5, 6, 12])
def test_sign_matches_float_evaluation(n):
    R = ScalarRing(n)
    theta = 2 * math.cos(math.pi / n)
    rng = random.Random(n)
    for _ in range(1000):
        coeffs = [rng.randint(-6, 6) for _ in range(R.deg)]
        a = from_coeffs(R, coeffs)
        approx = sum(c * theta ** i for i, c in enumerate(coeffs))
        if abs(approx) > 1e-9:
            assert a.sign() == (1 if approx > 0 else -1)
        else:
            assert a.sign() == 0


def test_norm_and_units(R6):
    assert R6.one().is_unit()
    assert (-R6.one()).is_unit()
    assert not R6.embed(2).is_unit()
    assert R6.embed(6).norm() == 36  # deg-2 ring: norm of an integer k is k^2
    # 2 + theta has norm 4 - 3 = 1 in Z[sqrt(3)]
    assert (R6.embed(2) + R6.theta()).is_unit()


def test_cycrat_inverse_roundtrip(R6):
    rng = random.Random(11)
    one = CycRat.from_cycint(R6.one())
    for _ in range(100):
        a = CycRat.from_cycint(
            from_coeffs(R6, [rng.randint(-5, 5) for _ in range(R6.deg)]))
        if a.is_zero():
            continue
        assert a * a.inverse() == one
        assert a / a == one


def test_cycrat_integrality(R6):
    half = CycRat.from_cycint(R6.one()) / CycRat.from_cycint(R6.embed(2))
    assert not half.is_integral()
    assert (half + half).is_integral()
    assert (half + half).to_cycint() == R6.one()


def test_prime_field_basic():
    R = ScalarRing(1)  # K = Z
    for p in (2, 3, 5, 97):
        F = PrimeFieldK(R, p)
        a = F.from_cycrat(CycRat.from_cycint(R.embed(p + 1)))
        assert F.mul(a, F.inv(a)) == F.one()


def test_partial_operations_raise_typed_errors(R6):
    # these checks used to be asserts, which python -O strips
    half = CycRat.from_cycint(R6.one()) / 2
    with pytest.raises(NotInvertibleError):
        CycRat.from_cycint(R6.zero()).inverse()
    with pytest.raises(CoxkitError):
        half.to_cycint()
    with pytest.raises(CoxkitError):
        R6.theta().as_integer()
    F = PrimeFieldK(ScalarRing(1), 5)
    with pytest.raises(NotInvertibleError):
        F.inv(F.zero())


def test_prime_field_rejects_composite():
    R = ScalarRing(1)
    for bad in (0, 1, 4, 6, 9):
        with pytest.raises(UnsupportedCharacteristicError):
            PrimeFieldK(R, bad)


def test_prime_field_rejects_split_prime():
    R = ScalarRing(4)  # Z[sqrt(2)]; y^2 - 2 factors mod 7
    with pytest.raises(UnsupportedCharacteristicError):
        PrimeFieldK(R, 7)
    PrimeFieldK(R, 3)  # inert: fine


def test_prime_field_rejects_bad_denominator():
    R = ScalarRing(1)
    F = PrimeFieldK(R, 5)
    fifth = CycRat.from_cycint(R.one()) / CycRat.from_cycint(R.embed(5))
    with pytest.raises(UnsupportedCharacteristicError):
        F.from_cycrat(fifth)


def test_mixed_ring_arithmetic_rejected():
    a = ScalarRing(6).one()
    b = ScalarRing(4).one()
    with pytest.raises(Exception):
        a + b
