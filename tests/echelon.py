"""The echelon contraction of the word complexes: the oracle the Morse
contraction of hopfext.wordcx is checked against, and the maps the series
of tests/series_reference.py reads to transfer by it.

Each level costs four eliminations (a nullspace, two greedy column picks
and the inverse of the full basis), so it only serves small weights."""

from functools import lru_cache

import numpy as np

from hopfext import transfer
from hopfext.cobar import compositions
from hopfext.flinalg import (
    inv_gf5,
    inv_mod,
    matmul_mod,
    nullspace_gf5,
    nullspace_mod,
    rref_gf5,
    rref_mod,
)
from hopfext.wordcx import CAP, reduced_words, word_matrix

from series_reference import Maps, split_blocks, tensor


@lru_cache(maxsize=None)
def block_words(W, s):
    """Extended-alphabet words of weight W whose last letter carries z."""
    if s < 1 or W < 5 + (s - 1):
        return ()
    out = []
    for heavy in range(5, W - (s - 1) + 1):
        for prefix in compositions(W - heavy, s - 1, CAP):
            out.append(prefix + (heavy,))
    return tuple(out)


def contract_reference(words_by_s, mod, lo, top):
    """Strong deformation retraction of the word complex with bases
    words_by_s, levels lo..top: per level, the nullspace of d[s], greedy
    harmonic columns from [bmat | ker], a greedy unit complement from
    [base | I], then the inverse of the full basis.  Returns the d, iota,
    pi and h arrays by level."""
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


def complex_levels(block, n, top):
    """Word bases by level, through top + 1, of the weight-n bounded
    complex or block complex, and its lowest level."""
    lo = 1 if block else (0 if n == 0 else -(-n // CAP))
    words = block_words if block else reduced_words
    return {s: words(n, s) for s in range(max(lo - 1, 0), top + 2)}, lo


@lru_cache(maxsize=None)
def echelon_contraction(block, n, mod, top):
    """(words by level, iota, pi, h) of the echelon contraction of one
    weight's complex through level top."""
    words, lo = complex_levels(block, n, top)
    _, iota, pi, h = contract_reference(words, mod, lo, top)
    return words, iota, pi, h


# --- a transfer contracted by the echelon oracle ---------------------------
#
# The same tensor assembly as series_reference, on the oracle's columns.  A
# label is one (weight, level, harmonic index) triple per tensor factor.

TOP = 5  # the longest word a transfer from word length 4 reads


def _column(mat, j, basis, mod):
    return {basis[i]: int(mat[i, j]) % mod for i in np.flatnonzero(mat[:, j] % mod)}


@lru_cache(maxsize=None)
def _factor(f, block, mod):
    """h, pi (onto (weight, level, index) keys) and iota pi of one factor."""
    n, s = sum(f), len(f)
    words, iota, pi, h = echelon_contraction(block, n, mod, TOP)
    j = words[s].index(f)
    h_img = _column(h[s], j, words.get(s - 1, ()), mod) if h[s].size else {}
    pi_col = {(n, s, k): int(c) % mod for k, c in enumerate(pi[s][:, j]) if c % mod}
    proj = {}
    for (_, _, k), c in pi_col.items():
        for w, c2 in _column(iota[s], k, words[s], mod).items():
            proj[w] = (proj.get(w, 0) + c * c2) % mod
    return h_img, pi_col, {w: c for w, c in proj.items() if c}


def _factors(word, mod):
    blocks, tail = split_blocks(word)
    return ([(f,) + _factor(f, True, mod) for f in blocks]
            + [(tail,) + _factor(tail, False, mod)])


def h_word(word, mod):
    factors = _factors(word, mod)
    out = {}
    prefix = ()
    for i, (f, h_img, _, _) in enumerate(factors):
        sign = -1 if len(prefix) % 2 else 1
        parts = [{prefix: sign}, h_img] + [g[3] for g in factors[i + 1:]]
        for w, c in tensor(parts, mod).items():
            out[w] = (out.get(w, 0) + c) % mod
        prefix = prefix + f
    return tuple((w, c) for w, c in out.items() if c)


def pi_word(word, mod):
    out = {(): 1}
    for _, _, pi_col, _ in _factors(word, mod):
        out = {key + (k,): c * c2 % mod for key, c in out.items()
               for k, c2 in pi_col.items()}
    return tuple(out.items())


def iota_label(label, mod):
    parts = []
    for i, (n, s, k) in enumerate(label):
        words, iota, _, _ = echelon_contraction(i < len(label) - 1, n, mod, TOP)
        parts.append(_column(iota[s], k, words[s], mod))
    return tuple(tensor(parts, mod).items())


def small_word_labels(spec, s, n):
    out = []
    for b in range(0, s + 1 if spec.variant == "full" else 1):
        for zs in transfer._zweight_tuples(b, n):
            tail_n, st = n - sum(zs), s - b
            words, iota, _, _ = echelon_contraction(False, tail_n, 5, TOP)
            if st not in iota:
                continue
            for k in range(iota[st].shape[1]):
                out.append(tuple((w, 1, 0) for w in zs) + ((tail_n, st, k),))
    return tuple(out)


# the series of series_reference on the echelon contraction
MAPS = Maps(h_word, pi_word, iota_label, small_word_labels)
