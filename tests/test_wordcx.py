import numpy as np
import pytest

from hopfext.algebroid import AlgebroidSpec, quotient
from hopfext.cobar import cochain_basis, differential_matrix_mod
from hopfext.flinalg import (
    inv_gf5,
    inv_mod,
    matmul_mod,
    nullspace_gf5,
    nullspace_mod,
    rref_gf5,
    rref_mod,
)
from hopfext.wordcx import (
    _retract_level,
    block_contraction,
    block_words,
    letter_splits,
    reduced_contraction,
    reduced_word_h_dim,
    reduced_words,
    split_blocks,
    word_d_entries,
    word_matrix,
)

I4 = quotient(AlgebroidSpec("reduced"), 4)


def test_letter_splits():
    assert letter_splits(1) == []
    assert letter_splits(4) == [(4, 1, 3), (6, 2, 2), (4, 3, 1)]
    assert letter_splits(5) == []
    assert letter_splits(7) == [(2, 1, 6), (1, 2, 5)]
    assert letter_splits(14) == [(4, 1, 13), (6, 2, 12), (4, 3, 11), (1, 4, 10)]


def test_word_d_entries_signs():
    # first slot carries a minus sign, second a plus
    assert word_d_entries((2,)) == {(1, 1): -2}
    assert word_d_entries((1, 2)) == {(1, 1, 1): 2}
    assert word_d_entries((3, 3)) == {
        (1, 2, 3): -3, (2, 1, 3): -3, (3, 1, 2): 3, (3, 2, 1): 3}


def test_matches_cobar_matrix_top_quotient():
    for n, s in [(3, 2), (5, 2), (6, 3), (8, 4)]:
        t = 8 * n
        assert [w for _, w in cochain_basis(I4, s, t)] == list(reduced_words(n, s))
        a = differential_matrix_mod(I4, s, t, 5)
        b = word_matrix(reduced_words(n, s), reduced_words(n, s + 1), 5)
        assert np.array_equal(a % 5, b % 5)


def test_reduced_h_dims_pattern():
    for n in range(0, 13):
        for s in range(0, n + 2):
            want = 1 if (n % 5 == 0 and s == 2 * (n // 5)) or \
                (n % 5 == 1 and s == 2 * (n // 5) + 1) else 0
            assert reduced_word_h_dim(n, s) == want, (n, s)


def test_dual_resolution_matches_word_ranks():
    from hopfext.wordcx import dual_h_dim
    for n in range(0, 14):
        for s in range(0, n + 2):
            assert dual_h_dim(s, 8 * n) == reduced_word_h_dim(n, s), (n, s)
    # far beyond the reach of the dense word ranks
    assert dual_h_dim(8, 160) == 1
    assert dual_h_dim(9, 168) == 1
    assert dual_h_dim(8, 168) == 0


def _check_identities(c):
    for s in range(c.lo, c.top + 1):
        dim = c.dim(s)
        if dim == 0:
            continue
        eye = np.eye(dim, dtype=np.int64)
        lhs = np.zeros((dim, dim), dtype=np.int64)
        if s - 1 in c.d and c.h[s].size:
            lhs += matmul_mod(c.d[s - 1], c.h[s], c.mod)
        if s + 1 in c.h:
            if c.d[s].size and c.h[s + 1].size:
                lhs += matmul_mod(c.h[s + 1], c.d[s], c.mod)
            proj = matmul_mod(c.iota[s], c.pi[s], c.mod) if c.h_dim(s) \
                else np.zeros((dim, dim), dtype=np.int64)
            assert np.array_equal(lhs % c.mod, (eye - proj) % c.mod), s
        if c.h_dim(s):
            assert np.array_equal(
                matmul_mod(c.pi[s], c.iota[s], c.mod),
                np.eye(c.h_dim(s), dtype=np.int64))
            assert not np.any(matmul_mod(c.d[s], c.iota[s], c.mod))
        if s - 1 in c.pi and c.h[s].size and c.pi[s - 1].size:
            assert not np.any(matmul_mod(c.pi[s - 1], c.h[s], c.mod))
        if c.h_dim(s) and c.h[s].size:
            assert not np.any(matmul_mod(c.h[s], c.iota[s], c.mod))
        if s - 1 in c.h and c.h[s].size and c.h[s - 1].size:
            assert not np.any(matmul_mod(c.h[s - 1], c.h[s], c.mod))


@pytest.mark.parametrize("mod", [5, 625])
@pytest.mark.parametrize("n", [3, 5, 6, 7, 10])
def test_reduced_contraction_identities(n, mod):
    c = reduced_contraction(n, n, mod)
    _check_identities(c)
    for s in range(c.lo, c.top + 1):
        assert c.h_dim(s) == reduced_word_h_dim(n, s)


@pytest.mark.parametrize("W", [5, 6, 7, 9, 10, 12, 15])
def test_block_contraction(W):
    c = block_contraction(W, 4, 5)
    _check_identities(c)
    total = sum(c.h_dim(s) for s in range(c.lo, c.top + 1))
    assert total == (1 if W % 5 == 0 else 0)
    if W % 5 == 0:
        # the harmonic class is the bare z power
        assert list(c.words[1]) == [(W,)]
        assert c.iota[1].shape == (1, 1)


def test_block_words_and_split():
    assert block_words(7, 1) == ((7,),)
    assert (1, 6) in block_words(7, 2) and (2, 5) in block_words(7, 2)
    blocks, tail = split_blocks((2, 7, 1, 5, 3, 1))
    assert blocks == ((2, 7), (1, 5))
    assert tail == (3, 1)


def _contract_reference(words_by_s, mod, lo, top):
    """Four eliminations per level: nullspace of d[s], greedy harmonic
    columns from [bmat | ker], greedy unit complement from [base | I], then
    the inverse of the full basis.  The reference for wordcx._grow."""
    d = {}
    for s in range(lo, top + 1):
        d[s] = word_matrix(words_by_s.get(s, ()), words_by_s.get(s + 1, ()), mod)
    iota, pi, h = {}, {}, {}
    prev_dim = len(words_by_s.get(lo - 1, ()))
    prev_e = np.zeros((prev_dim, 0), dtype=np.int64)
    bmat = np.zeros((len(words_by_s.get(lo, ())), 0), dtype=np.int64)
    for s in range(lo, top + 1):
        dim = len(words_by_s.get(s, ()))
        if dim == 0:
            iota[s] = np.zeros((0, 0), dtype=np.int64)
            pi[s] = np.zeros((0, 0), dtype=np.int64)
            h[s] = np.zeros((prev_e.shape[0], 0), dtype=np.int64)
            prev_e = np.zeros((0, 0), dtype=np.int64)
            bmat = np.zeros((len(words_by_s.get(s + 1, ())), 0), dtype=np.int64)
            continue
        if mod == 5:
            ker = nullspace_gf5(d[s])
        else:
            ker = nullspace_mod(d[s], mod)
            if np.any(matmul_mod(d[s], ker, mod)):
                raise AssertionError("echelon kernel failed over the prime power")
        nb = bmat.shape[1]
        combo = np.concatenate([bmat, ker], axis=1)
        red, piv = (rref_gf5(combo) if mod == 5 else rref_mod(combo, mod))
        if piv[:nb] != list(range(nb)):
            raise AssertionError("boundary columns are not independent")
        hmat = ker[:, [p - nb for p in piv[nb:]]]
        base = np.concatenate([bmat, hmat], axis=1)
        aug = np.concatenate([base, np.eye(dim, dtype=np.int64)], axis=1)
        _, piv2 = (rref_gf5(aug) if mod == 5 else rref_mod(aug, mod))
        wb = base.shape[1]
        if piv2[:wb] != list(range(wb)):
            raise AssertionError("basis columns degenerate")
        ecols = [p - wb for p in piv2[wb:]]
        emat = np.zeros((dim, len(ecols)), dtype=np.int64)
        for k, c in enumerate(ecols):
            emat[c, k] = 1
        t = np.concatenate([base, emat], axis=1)
        tinv = inv_gf5(t) if mod == 5 else inv_mod(t, mod)
        h[s] = matmul_mod(prev_e, tinv[:nb], mod) if nb else \
            np.zeros((prev_e.shape[0], dim), dtype=np.int64)
        pi[s] = tinv[nb:nb + hmat.shape[1]]
        iota[s] = hmat
        prev_e = emat
        bmat = matmul_mod(d[s], emat, mod) if emat.size else \
            np.zeros((len(words_by_s.get(s + 1, ())), 0), dtype=np.int64)
    return d, iota, pi, h


def _assert_matches_reference(c):
    ref = _contract_reference(c.words, c.mod, c.lo, c.top)
    for name, want in zip(("d", "iota", "pi", "h"), ref):
        got = getattr(c, name)
        assert sorted(got) == sorted(want), name
        for s in want:
            assert got[s].dtype == want[s].dtype, (name, s)
            assert np.array_equal(got[s], want[s]), (name, s)


@pytest.mark.parametrize("mod", [5, 625])
@pytest.mark.parametrize("top", [3, 5, 7])
def test_reduced_contraction_matches_reference(top, mod):
    # n = 4 * top + 1 has its lowest level above top: no levels at all
    for n in list(range(0, 12)) + [4 * top + 1]:
        _assert_matches_reference(reduced_contraction(n, top, mod))


@pytest.mark.parametrize("mod", [5, 625])
@pytest.mark.parametrize("top", [3, 5])
def test_block_contraction_matches_reference(top, mod):
    for W in range(1, 21):
        _assert_matches_reference(block_contraction(W, top, mod))


def _shares_levels(low, high):
    assert low.top <= high.top
    for name in ("d", "iota", "pi", "h"):
        for s, arr in getattr(low, name).items():
            assert getattr(high, name)[s] is arr, (name, s)


@pytest.mark.parametrize("mod", [5, 625])
def test_contraction_levels_are_built_once(mod):
    # a deeper contraction extends the shallower one: each level of a
    # weight is eliminated once, and every depth reads the same arrays
    for n in range(0, 13):
        _shares_levels(reduced_contraction(n, 3, mod),
                       reduced_contraction(n, 7, mod))
    for W in range(5, 21):
        _shares_levels(block_contraction(W, 2, mod),
                       block_contraction(W, 5, mod))


def test_stuck_column_trips_the_prime_power_guard():
    # over Z/25 the second column is 5-divisible and nonzero: the echelon
    # skips it as free, but its kernel vector e_1 is not in ker d
    ds = np.array([[1, 5], [0, 10]], dtype=np.int64)
    with pytest.raises(AssertionError, match="prime power"):
        _retract_level(ds, np.zeros((2, 0), dtype=np.int64), 25)
    # the same matrix over F5 has the honest kernel e_1
    piv, free, iota, minv = _retract_level(ds % 5, np.zeros((2, 0),
                                           dtype=np.int64), 5)
    assert (piv, free) == ([0], [1])
    assert iota.tolist() == [[0], [1]]
    assert minv.tolist() == [[1]]
