from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopfext.gradedpoly import (
    MODE_F5,
    MODE_LOCAL,
    InhomogeneousInput,
    Polynomial,
    RingMismatch,
    RingSpec,
    ZeroPolynomial,
    format_polynomial,
    graded_piece_basis,
    parse_polynomial,
)

A_RING = RingSpec(("a1", "a2", "a3", "a4", "a5"), (8, 16, 24, 32, 40))
A_F5 = RingSpec(("a1", "a2", "a3", "a4", "a5"), (8, 16, 24, 32, 40), mode=MODE_F5)


def gen(name, ring=A_RING):
    return Polynomial.generator(ring, name)


def test_ring_validation():
    with pytest.raises(ValueError):
        RingSpec(("x", "x"), (2, 2))
    with pytest.raises(ValueError):
        RingSpec(("x",), (0,))
    with pytest.raises(ValueError):
        RingSpec(("x",), (2,), mode="bogus")


def test_basic_arithmetic_and_degrees():
    p = gen("a1") * gen("a1") + 5 * gen("a2")
    assert p.degree() == 16
    q = p - p
    assert q.is_zero()
    assert q.degree() is None
    mixed = gen("a1") + gen("a2")
    with pytest.raises(InhomogeneousInput):
        mixed.degree()


@pytest.mark.parametrize("ring", [A_RING, A_F5], ids=["local", "f5"])
def test_scalar_on_the_left(ring):
    # 1 + p, 1 - p and sum() reach __radd__ and __rsub__
    p, q = gen("a1", ring), gen("a2", ring)
    one = Polynomial.constant(ring, 1)
    assert 1 + p == p + 1 == one + p
    assert 1 - p == one - p
    assert (1 - p) + p == one
    assert 7 - p == Polynomial.constant(ring, 7) - p
    assert Fraction(1, 2) + p == p + Fraction(1, 2)
    assert sum([p, q]) == p + q
    assert sum([p, -p]).is_zero()


@pytest.mark.parametrize("ring", [A_RING, A_F5], ids=["local", "f5"])
def test_negative_power_is_refused(ring):
    p = gen("a1", ring) + 1
    assert p ** 0 == Polynomial.constant(ring, 1)
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


def test_mod5_reduction():
    p = Polynomial(A_F5, {(1, 0, 0, 0, 0): 5})
    assert p.is_zero()
    q = gen("a1", A_F5).scale(7)
    assert list(q.terms.values()) == [2]


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        gen("a1") + gen("a1", A_F5)


def test_format_and_parse_roundtrip():
    p = (-2) * gen("a1") * gen("a1") + 5 * gen("a2")
    assert format_polynomial(p) == "-2*a1^2 + 5*a2"
    assert parse_polynomial(A_RING, "-2*a1^2 + 5*a2") == p
    assert format_polynomial(Polynomial.zero(A_RING)) == "0"
    frac = Polynomial(A_RING, {(0, 1, 0, 0, 0): Fraction(3, 7)})
    assert parse_polynomial(A_RING, format_polynomial(frac)) == frac


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial(A_RING, "a9 + 1")
    with pytest.raises(ValueError):
        parse_polynomial(A_RING, "a1 $ a2")
    with pytest.raises(ValueError, match="1/0"):
        parse_polynomial(A_RING, "1/0*a1")


def test_float_coefficient_is_refused():
    # a float used to be truncated: 2.5 became 2
    for ring in (A_RING, A_F5):
        with pytest.raises(TypeError):
            Polynomial(ring, {(1, 0, 0, 0, 0): 2.5})


def test_float_scale_is_refused():
    # a float used to be truncated: scaling by 0.5 gave 0
    for p in (gen("a1"), gen("a1", A_F5)):
        with pytest.raises(TypeError):
            p.scale(0.5)
        with pytest.raises(TypeError):
            0.5 * p


def test_float_constant_is_refused():
    # adding a float used to raise AttributeError
    for p in (gen("a1"), gen("a1", A_F5)):
        with pytest.raises(TypeError):
            p + 0.7
        with pytest.raises(TypeError):
            p - 0.7


def test_numpy_integer_coefficients_become_ints():
    p = Polynomial(A_RING, {(1, 0, 0, 0, 0): np.int64(3)}) + np.int32(2)
    assert p == 3 * gen("a1") + 2
    assert all(type(c) is int for c in p.terms.values())
    assert gen("a1", A_F5).scale(np.int64(7)).terms == {(1, 0, 0, 0, 0): 2}


local_coeffs = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12))
local_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0), st.just(0),
              st.just(0)),
    local_coeffs, max_size=4)


def _in_fractions(terms):
    return {m: Fraction(c) for m, c in terms.items() if c}


def _add_in_fractions(x, y):
    out = dict(x)
    for m, c in y.items():
        out[m] = out.get(m, 0) + c
    return out


def _mul_in_fractions(x, y):
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return out


@given(local_terms, local_terms, local_coeffs)
def test_local_arithmetic_keeps_the_normal_form(x, y, c):
    # an int when integral, else a Fraction with denominator > 1, and the
    # same values as the computation done in Fraction throughout
    p, q = Polynomial(A_RING, x), Polynomial(A_RING, y)
    fx, fy = _in_fractions(x), _in_fractions(y)
    scaled = {m: v * c for m, v in fx.items()}
    neg_y = {m: -v for m, v in fy.items()}
    const = {(0,) * 5: Fraction(c)}
    for got, want in ((p, fx), (p + q, _add_in_fractions(fx, fy)),
                      (p - q, _add_in_fractions(fx, neg_y)),
                      (p * q, _mul_in_fractions(fx, fy)),
                      (p.scale(c), scaled), (p * c, scaled),
                      (p + c, _add_in_fractions(fx, const))):
        want = {m: v for m, v in want.items() if v}
        assert got.terms == want
        assert all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
                   for v in got.terms.values()), got.terms
        same = Polynomial(A_RING, want)
        assert same == got and hash(same) == hash(got)


@given(st.lists(st.tuples(
    st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(5))),
    st.integers(min_value=-20, max_value=20)), max_size=6))
def test_text_roundtrip_random(raw):
    p = Polynomial(A_RING, {})
    for mono, c in raw:
        p = p + Polynomial(A_RING, {mono: c})
    assert parse_polynomial(A_RING, format_polynomial(p)) == p


def test_graded_piece_basis():
    assert graded_piece_basis(A_RING, 0) == [(0, 0, 0, 0, 0)]
    assert graded_piece_basis(A_RING, 4) == []
    b16 = graded_piece_basis(A_RING, 16)
    assert b16 == [(2, 0, 0, 0, 0), (0, 1, 0, 0, 0)]
    b48 = graded_piece_basis(A_RING, 48)
    # graded-lex: a1-heavy monomials first
    assert b48[0] == (6, 0, 0, 0, 0)
    assert b48[-1] == (0, 0, 2, 0, 0)
    assert len(b48) == len(set(b48))
    assert all(A_RING.monomial_degree(m) == 48 for m in b48)


@given(st.integers(min_value=0, max_value=120))
def test_graded_piece_count_matches_series(t):
    # compare against direct coefficient extraction from the Hilbert series
    if t % 8:
        assert graded_piece_basis(A_RING, t) == []
        return
    n = t // 8
    # partitions of n into parts 1..5
    table = [1] + [0] * n
    for part in range(1, 6):
        for k in range(part, n + 1):
            table[k] += table[k - part]
    assert len(graded_piece_basis(A_RING, t)) == table[n]


def test_content_valuation_and_leading():
    p = 25 * gen("a1") + Polynomial(A_RING, {(0, 1, 0, 0, 0): Fraction(5, 1)})
    assert p.content_valuation() == 1
    with pytest.raises(ZeroPolynomial):
        Polynomial.zero(A_RING).content_valuation()
