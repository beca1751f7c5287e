import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopfext.coefficients import (
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


def test_v5_fraction():
    # numerator's valuation minus the denominator's; v5 >= 0 is 5-locality
    assert v5(Fraction(25, 3)) == 2
    assert v5(Fraction(-3, 125)) == -3
    assert v5(Fraction(7, 3)) == 0
    with pytest.raises(ValueError):
        v5(Fraction(0))


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
    _assert_smith(np.array(rows, dtype=np.int64))


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_smith_normal_form_empty(shape):
    _assert_smith(np.zeros(shape, dtype=np.int64))


def _assert_smith(m):
    snf = smith_normal_form(m)
    rows, cols = m.shape
    for a, n in ((snf.left_transform, rows), (snf.right_transform, cols),
                 (snf.left_inverse, rows)):
        assert a.dtype == object and a.shape == (n, n)
        assert not a.flags.writeable
    diag = np.zeros(m.shape, dtype=object)
    for i, d in enumerate(snf.diagonal):
        diag[i, i] = d
    assert (snf.left_transform @ m.astype(object) @ snf.right_transform
            == diag).all()
    for d1, d2 in zip(snf.diagonal, snf.diagonal[1:]):
        assert d1 > 0 and d2 % d1 == 0
    assert abs(_det(snf.left_transform.tolist())) == 1
    assert abs(_det(snf.right_transform.tolist())) == 1
    assert (snf.left_transform @ snf.left_inverse == np.eye(rows, dtype=int)).all()


def test_smith_known_example():
    m = np.array([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert smith_normal_form(m).diagonal == (2, 2, 156)


def _big_matrix(rows, cols):
    rng = random.Random(rows * 10 + cols)
    return np.array([[rng.randint(2 ** 59, 2 ** 61) for _ in range(cols)]
                     for _ in range(rows)], dtype=np.int64)


def test_smith_int64_input_is_exact_past_int64():
    # the entries fit in int64 but the elimination does not: the last
    # divisor is about det / 2^180 ~ 2^64; int64 input gives the object
    # input's decomposition, entry for entry
    m = _big_matrix(4, 4)
    snf = smith_normal_form(m)
    assert snf.diagonal[-1] > 2 ** 63
    ref = smith_normal_form(m.astype(object))
    assert snf.diagonal == ref.diagonal
    for name in ("left_transform", "right_transform", "left_inverse"):
        assert (getattr(snf, name) == getattr(ref, name)).all(), name
    _assert_smith(m)


def test_kernel_int64_input_is_exact_past_int64():
    # a kernel vector of a 3 x 4 matrix holds its 3 x 3 minors, ~2^180
    m = _big_matrix(3, 4)
    basis = kernel_saturated(m)
    assert len(basis) == 1 and max(map(abs, basis[0])) > 2 ** 63
    assert basis == kernel_saturated(m.astype(object))
    assert not (m.astype(object) @ np.array(basis[0], dtype=object)).any()


@given(small_matrices)
def test_kernel_saturated_is_kernel(rows):
    m = np.array(rows, dtype=np.int64)
    basis = kernel_saturated(m)
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    # rank of kernel basis + rank of matrix = number of columns
    rank_m = sum(1 for d in smith_normal_form(m).diagonal if d != 0)
    assert len(basis) == m.shape[1] - rank_m
    if basis:
        divisors = smith_normal_form(np.array(basis, dtype=object)).diagonal
        assert all(d == 1 for d in divisors)


def test_kernel_saturation_nontrivial():
    # kernel of [1, -2] is spanned by (2, 1); a non-saturated routine could
    # return a multiple
    basis = kernel_saturated(np.array([[1, -2]]))
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
        m = np.array([
            [rng.randint(-size, size) if rng.random() < density else 0
             for _ in range(cols)] for _ in range(rows)],
            dtype=np.int64).reshape(rows, cols)
        assert kernel_saturated(m) == kernel_saturated_tracked(m)
