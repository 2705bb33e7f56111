"""Laurent polynomial ring Z[v, v^-1] with bar involution."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxkit.errors import UsageError
from coxkit.laurent import LaurentPoly, ONE, V, VINV
from hecke_refs import laurent_bar


def parse(text):
    """Inverse of str(); accepts e.g. 'v^-1 + 2 + v^3', '-v', '0'."""
    text = text.replace("-", "+-").replace("^+-", "^-")
    coeffs = {}
    for term in text.split("+"):
        term = term.strip()
        if not term or term == "0":
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:].strip()
        if "v" in term:
            head, _, tail = term.partition("v")
            c = int(head.rstrip("*").strip() or "1")
            e = int(tail.lstrip("^").strip() or "1")
        else:
            c, e = int(term), 0
        coeffs[e] = coeffs.get(e, 0) + (-c if neg else c)
    return LaurentPoly(coeffs)


def lpoly():
    return st.dictionaries(st.integers(-6, 6), st.integers(-20, 20),
                           max_size=6).map(LaurentPoly)


def test_square_of_v_plus_vinv():
    p = V + VINV
    assert p * p == LaurentPoly.v(2) + LaurentPoly.const(2) + LaurentPoly.v(-2)


def test_multiplicative_identity():
    p = LaurentPoly({3: 5, -1: 2})
    assert p * ONE == p


def test_signed_product():
    assert V * (-V) == LaurentPoly.v(2, -1)


@pytest.mark.parametrize("k", [-1, 2.0])
def test_power_needs_nonneg_int(k):
    with pytest.raises(UsageError):
        V ** k


def test_bar_examples():
    assert laurent_bar(V) == VINV
    assert laurent_bar(V + VINV) == V + VINV
    p = LaurentPoly.v(2, 3) - V
    assert laurent_bar(p) == LaurentPoly.v(-2, 3) - VINV


@given(lpoly())
def test_bar_is_involution(p):
    assert laurent_bar(laurent_bar(p)) == p


@given(lpoly(), lpoly())
def test_bar_is_ring_hom(p, q):
    assert laurent_bar(p + q) == laurent_bar(p) + laurent_bar(q)
    assert laurent_bar(p * q) == laurent_bar(p) * laurent_bar(q)


def test_coeffwise_comparisons():
    assert LaurentPoly.zero().leq_coeffwise(V + LaurentPoly.v(3))
    assert V.leq_coeffwise(V + LaurentPoly.v(3))
    assert not (V + V).leq_coeffwise(V)
    assert (V + LaurentPoly.const(2)).coeff(0) == 2
    assert (V + LaurentPoly.const(2)).is_nonneg()
    assert not (V - ONE).is_nonneg()


@given(lpoly())
def test_leq_reflexive(p):
    assert p.leq_coeffwise(p)


@given(lpoly(), lpoly())
def test_leq_antisymmetric(p, q):
    if p.leq_coeffwise(q) and q.leq_coeffwise(p):
        assert p == q


@given(lpoly(), lpoly(), lpoly())
def test_leq_transitive(p, q, r):
    if p.leq_coeffwise(q) and q.leq_coeffwise(r):
        assert p.leq_coeffwise(r)


def test_rendering_is_sorted_and_exact():
    assert str(VINV + LaurentPoly.const(2) + LaurentPoly.v(3)) == "v^-1 + 2 + v^3"
    assert str(LaurentPoly.zero()) == "0"


def test_parse_roundtrip():
    for p in (VINV + LaurentPoly.const(2) + LaurentPoly.v(3),
              LaurentPoly.v(2, -3) + V,
              LaurentPoly.zero(), -ONE):
        assert parse(str(p)) == p
