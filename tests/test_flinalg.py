import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopfext.flinalg import (
    _echelon,
    inv_gf5,
    matmul_mod,
    nullspace_gf5,
    rref_gf5,
    inv_mod,
    nullspace_mod,
    rank_gf5,
    rank_mod,
    rref_mod,
    solve_mod,
)


def _rref_reference(a, mod, full=True):
    """The whole-row scalar echelon the kernel must reproduce bit for bit;
    with `full` false it clears only the rows below each pivot."""
    a = np.asarray(a, dtype=np.int64) % mod
    a = a.copy()
    m, n = a.shape
    pivots = []
    r = 0
    for j in range(n):
        if r >= m:
            break
        col = a[r:, j]
        nz = np.nonzero(col % 5)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, j]), -1, mod)) % mod
        col = a[:, j].copy()
        col[r] = 0
        if not full:
            col[:r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            a[rows] = (a[rows] - np.outer(col[rows], a[r])) % mod
        pivots.append(j)
        r += 1
    return a, pivots


def _naive_rank_f5(a):
    a = np.array(a, dtype=np.int64) % 5
    m, n = a.shape
    r = 0
    for j in range(n):
        if r >= m:
            break
        nz = np.nonzero(a[r:, j])[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, j]), -1, 5)) % 5
        for i2 in range(m):
            if i2 != r and a[i2, j]:
                a[i2] = (a[i2] - a[i2, j] * a[r]) % 5
        r += 1
    return r


np_matrices = st.integers(min_value=1, max_value=8).flatmap(
    lambda m: st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(
            st.integers(min_value=0, max_value=624), min_size=m * n, max_size=m * n
        ).map(lambda flat: np.array(flat, dtype=np.int64).reshape(m, n))
    )
)


@given(np_matrices)
def test_rref_idempotent_and_rank(a):
    r, pivots = rref_mod(a, 5)
    r2, pivots2 = rref_mod(r, 5)
    assert np.array_equal(r, r2)
    assert pivots == pivots2
    assert rank_mod(a, 5) == _naive_rank_f5(a)


@given(np_matrices)
def test_nullspace_mod5(a):
    ker = nullspace_mod(a, 5)
    assert not np.any((a % 5) @ ker % 5)
    assert rank_mod(a, 5) + ker.shape[1] == a.shape[1]


def test_inv_mod_prime_power():
    a = np.array([[1, 2], [3, 9]], dtype=np.int64)
    for mod in (5, 25, 625):
        inv = inv_mod(a, mod)
        assert np.array_equal(a @ inv % mod, np.eye(2, dtype=np.int64))
    with pytest.raises(ValueError):
        inv_mod(np.array([[5]], dtype=np.int64), 25)


@given(np_matrices, st.sampled_from([5, 25, 125]))
def test_solve_roundtrip(a, mod):
    rng = np.random.default_rng(int(np.sum(a)) + mod)
    x_true = rng.integers(0, mod, size=a.shape[1])
    b = a @ x_true % mod
    x = solve_mod(a, b, mod)
    if x is not None:
        assert np.array_equal(a @ x % mod, b % mod)
    else:
        # only acceptable over a proper prime power when the echelon hit a
        # stuck 5-divisible column
        assert mod > 5
        _, pivots = rref_mod(a, mod)
        red = rref_mod(a, mod)[0]
        assert np.any(red[len(pivots):] % mod) or len(pivots) < a.shape[1]


def test_echelon_refuses_modulus_past_int64_bound():
    # (5^13 - 1)^2 < 2^63, so every update stays exact; at 5^14 one
    # product of residues already passes 2^63 and would wrap
    a = np.array([[2, 5 ** 13 - 1], [5 ** 13 - 2, 3]], dtype=np.int64)
    assert rank_mod(a, 5 ** 13) == 2
    assert rref_mod(a, 5 ** 13)[1] == [0, 1]
    with pytest.raises(ValueError, match="int64"):
        rank_mod(a, 5 ** 14)


def test_solve_inconsistent():
    a = np.array([[1, 1], [2, 2]], dtype=np.int64)
    assert solve_mod(a, np.array([1, 3]), 5) is None


@settings(deadline=None)
@given(np_matrices)
def test_rank_gf5_matches_naive_small(a):
    assert rank_gf5(a) == _naive_rank_f5(a)


@pytest.mark.parametrize("seed,m,n", [(0, 300, 220), (1, 180, 400), (2, 257, 257)])
def test_rank_gf5_matches_rref_large(seed, m, n):
    rng = np.random.default_rng(seed)
    # low-rank plus noise-free structure so rank is not trivially min(m, n)
    r = min(m, n) // 2
    a = (rng.integers(0, 5, (m, r)) @ rng.integers(0, 5, (r, n))) % 5
    assert rank_gf5(a) == rank_mod(a, 5) == len(_rref_reference(a, 5)[1])


@settings(deadline=None)
@given(np_matrices)
def test_rref_gf5_matches_scalar(a):
    r1, p1 = rref_gf5(a)
    r2, p2 = _rref_reference(a, 5)
    assert p1 == p2
    assert np.array_equal(r1, r2)


def _planted(rng, m, n, mod):
    """Sparse random matrix whose planted columns are 5-divisible, so over
    5^K the echelon skips them and later pivots still update them."""
    a = rng.integers(0, mod, (m, n)) * (rng.random((m, n)) < 0.4)
    fives = rng.random(n) < 0.3
    a[:, fives] = a[:, fives] * 5 ** rng.integers(1, 3, fives.sum()) % mod
    if m > 2:
        a[-1] = (3 * a[0] + a[1]) % mod
    return a


@pytest.mark.parametrize("mod", [5, 25, 625, 5 ** 9, 5 ** 13])
def test_echelon_bit_identical_to_reference(mod):
    # at 5^13 the kernel reduces all of its matrix every 6 pivots, so the
    # larger shapes pass through that reduction
    rng = np.random.default_rng(mod)
    shapes = [(0, 0), (0, 4), (4, 0)] + [tuple(rng.integers(1, 12, 2))
                                          for _ in range(200)]
    for m, n in shapes:
        a = _planted(rng, m, n, mod)
        want, want_piv = _rref_reference(a, mod)
        got, piv = rref_mod(a, mod)
        assert piv == want_piv
        assert np.array_equal(got, want)
        assert rank_mod(a, mod) == len(want_piv)
        # the rank path: its rows below the pivots are what
        # diagonal_valuations divides by 5 and eliminates again
        below, below_piv = _rref_reference(a, mod, full=False)
        got = np.asarray(a, dtype=np.int64) % mod
        assert _echelon(got, mod, full=False) == below_piv == want_piv
        assert np.array_equal(got[len(piv):], below[len(piv):])
        if n:
            ker = nullspace_mod(a, mod)
            free = [j for j in range(n) if j not in want_piv]
            assert np.array_equal(ker[free], np.eye(len(free), dtype=np.int64))
            assert np.array_equal(ker[want_piv], -want[:len(want_piv)][:, free] % mod)


def test_echelon_reduces_before_int64_wraps():
    # each of the 8 pivots subtracts (5^13 - 1)^2 from the last row's
    # trailing entries; left unreduced they would pass -2^63 at the 7th
    mod, p = 5 ** 13, 8
    a = np.full((p + 1, p + 2), mod - 1, dtype=np.int64)
    a[:p, :p] = np.eye(p, dtype=np.int64)
    a[p, -1] = 0  # unequal trailing entries, so a wrap shows after scaling
    for full in (True, False):
        want, want_piv = _rref_reference(a, mod, full)
        got = a.copy()
        assert _echelon(got, mod, full) == want_piv == list(range(p + 1))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed,m,n", [(3, 190, 260), (4, 310, 140)])
def test_nullspace_gf5_large(seed, m, n):
    rng = np.random.default_rng(seed)
    r = min(m, n) // 3
    a = (rng.integers(0, 5, (m, r)) @ rng.integers(0, 5, (r, n))) % 5
    k = nullspace_gf5(a)
    assert np.all(a @ k % 5 == 0)
    assert k.shape[1] == n - rank_mod(a, 5)
    assert rank_mod(k.T, 5) == k.shape[1]


def test_inv_gf5_roundtrip():
    rng = np.random.default_rng(9)
    while True:
        a = rng.integers(0, 5, (60, 60))
        if rank_mod(a, 5) == 60:
            break
    b = inv_gf5(a)
    assert np.array_equal(a @ b % 5, np.eye(60, dtype=np.int64))
    with pytest.raises(ValueError):
        inv_gf5(np.array([[1, 2], [2, 4]]))


def test_matmul_mod_exact():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 625, (40, 70))
    b = rng.integers(0, 625, (70, 30))
    assert np.array_equal(matmul_mod(a, b, 625), a @ b % 625)


def test_matmul_mod_exact_past_one_float64_sum():
    # at 5^9 one float64 sum holds 2,361 products; 5,000 take three chunks
    mod = 5 ** 9
    rng = np.random.default_rng(12)
    a = rng.integers(mod - 50, mod, (3, 5000))
    b = rng.integers(mod - 50, mod, (5000, 2))
    want = (a.astype(object) @ b.astype(object)) % mod
    assert np.array_equal(matmul_mod(a, b, mod), want.astype(np.int64))
    assert np.array_equal(matmul_mod(a[0], b[:, 0], mod), want[0, 0])
    with pytest.raises(ValueError):
        matmul_mod(a, b, 5 ** 12)
