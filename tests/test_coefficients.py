import math
import random

import pytest
from hypothesis import given, strategies as st

from hopfext.coefficients import (
    IntMatrix,
    LocalRational,
    ZeroDenominator,
    kernel_saturated,
    smith_normal_form,
    v5,
)
from kernel_reference import kernel_saturated_tracked


def test_v5_basic():
    assert v5(1) == 0
    assert v5(5) == 1
    assert v5(-250) == 3
    with pytest.raises(ValueError):
        v5(0)


def test_fraction_reduction_and_sign():
    x = LocalRational(-4, -6)
    assert (x.num, x.den) == (2, 3)
    assert LocalRational(10, 5) == 2
    with pytest.raises(ZeroDenominator):
        LocalRational(1, 0)


def test_fraction_arithmetic():
    a = LocalRational(1, 2)
    b = LocalRational(1, 3)
    assert a + b == LocalRational(5, 6)
    assert a - b == LocalRational(1, 6)
    assert a * b == LocalRational(1, 6)
    assert a / b == LocalRational(3, 2)
    assert 1 - a == a
    assert (-a).num == -1
    assert a ** -2 == 4


def test_valuation_and_integrality():
    assert LocalRational(25, 3).valuation() == 2
    assert LocalRational(3, 25).valuation() == -2
    assert LocalRational(7, 3).is_5_integral()
    assert not LocalRational(1, 5).is_5_integral()
    with pytest.raises(ValueError):
        LocalRational(0).valuation()


rationals = st.builds(
    LocalRational,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=50),
)


@given(rationals, rationals, rationals)
def test_fraction_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if b:
        assert (a / b) * b == a


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * _det(minor)
    return total


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(small_matrices)
def test_smith_normal_form_properties(rows):
    _assert_smith(IntMatrix.from_rows(rows))


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_smith_normal_form_empty(shape):
    _assert_smith(IntMatrix(*shape))


def _assert_smith(m):
    snf = smith_normal_form(m)
    prod = snf.left_transform.matmul(m).matmul(snf.right_transform)
    for (i, j), val in prod.entries.items():
        if i == j and i < len(snf.diagonal):
            assert val == snf.diagonal[i]
        else:
            assert val == 0
    for i in range(len(snf.diagonal)):
        assert prod.get(i, i) == snf.diagonal[i]
    for d1, d2 in zip(snf.diagonal, snf.diagonal[1:]):
        assert d1 > 0 and d2 % d1 == 0
    assert abs(_det(snf.left_transform.to_rows())) == 1
    assert abs(_det(snf.right_transform.to_rows())) == 1
    ident = snf.left_transform.matmul(snf.left_inverse)
    assert (ident.rows, ident.cols) == (m.rows, m.rows)
    assert ident.entries == {(i, i): 1 for i in range(m.rows)}


def test_smith_known_example():
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert smith_normal_form(m).diagonal == (2, 2, 156)


@given(small_matrices)
def test_kernel_saturated_is_kernel(rows):
    m = IntMatrix.from_rows(rows)
    basis = kernel_saturated(m)
    mat = m.to_rows()
    for vec in basis:
        for row in mat:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    # rank of kernel basis + rank of matrix = number of columns
    rank_m = sum(1 for d in smith_normal_form(m).diagonal if d != 0)
    assert len(basis) == m.cols - rank_m
    if basis:
        k = IntMatrix.from_rows([list(v) for v in basis])
        divisors = smith_normal_form(k).diagonal
        assert all(d == 1 for d in divisors)


def test_kernel_saturation_nontrivial():
    # kernel of [1, -2] is spanned by (2, 1); a non-saturated routine could
    # return a multiple
    basis = kernel_saturated(IntMatrix.from_rows([[1, -2]]))
    assert len(basis) == 1
    assert basis[0] in ((2, 1), (-2, -1))
    assert math.gcd(*basis[0]) == 1


def test_kernel_matches_tracked_transform():
    # the backward replay of the logged column operations gives the
    # tracked transform's kernel vector for vector, on sparse and dense
    # integer matrices of every shape, wide ones with large entries too
    rng = random.Random(20261019)
    for _ in range(3000):
        rows, cols = rng.randint(0, 7), rng.randint(0, 9)
        density, size = rng.choice((0.2, 0.5, 1.0)), rng.choice((3, 50, 10 ** 6))
        m = IntMatrix.from_rows([
            [rng.randint(-size, size) if rng.random() < density else 0
             for _ in range(cols)] for _ in range(rows)]) if rows else \
            IntMatrix(0, cols)
        assert kernel_saturated(m) == kernel_saturated_tracked(m)
