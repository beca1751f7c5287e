"""Fixed-weight word complexes of the cobar construction, with numeric
strong deformation retractions onto their cohomology.

The cobar differential is the sum of a slot-splitting part (coefficient
untouched) and a coefficient-feeding part.  The splitting part preserves
the total r-weight of the bar word and is block-diagonal over it, so each
weight gives a finite complex of words; this module builds those
complexes, contracts them onto their (small) cohomology, and exposes the
projection / inclusion / homotopy triple that the transfer layer perturbs.
Each level costs two eliminations: one echelon of the differential and
one, of kernel-dimension size, of the boundaries (see _grow).  A
contraction is cached per (weight, level, modulus) and the one through
level s is the cached one through s - 1 plus one level, so each level is
eliminated once; the transfer layer reads a word at its own length.

Two alphabets appear.  The bounded alphabet has one letter of each weight
1..4 (bar slots r..r^4), used for the reduced presentation.  The extended
alphabet has exactly one letter of every positive weight: weight w stands
for the slot z^(w div 5) * r^(w mod 5), where z is the right-unit image of
the top base generator.  z is coproduct-passive, so extended words factor
into z-terminated blocks followed by a bounded tail, and the whole complex
is a tensor product of small pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Dict, List, Tuple

import numpy as np

from .cobar import compositions
from .flinalg import nullspace_gf5, rank_gf5, rref_gf5, rref_mod

Word = Tuple[int, ...]

CAP = 4


def letter_splits(w: int) -> List[Tuple[int, int, int]]:
    """Interior splits of the single weight-w letter.

    Returns (binomial, left weight, right weight) triples: the left part is
    always a bounded letter, and a z power never leaves its slot."""
    if w >= 5:
        j = w % 5
        stop = j + 1
    else:
        j = w
        stop = j
    return [(comb(j, i), i, w - i) for i in range(1, stop)]


def word_d_entries(word: Word) -> Dict[Word, int]:
    """Splitting differential of a single word, signs local to the word."""
    out: Dict[Word, int] = {}
    for i, w in enumerate(word):
        sign = -1 if (i + 1) % 2 else 1
        for cf, a, b in letter_splits(w):
            key = word[:i] + (a, b) + word[i + 1:]
            out[key] = out.get(key, 0) + sign * cf
    return {k: v for k, v in out.items() if v % 5}


@lru_cache(maxsize=None)
def reduced_words(n: int, s: int) -> Tuple[Word, ...]:
    return tuple(compositions(n, s, CAP))


@lru_cache(maxsize=None)
def block_words(W: int, s: int) -> Tuple[Word, ...]:
    """Extended-alphabet words of weight W whose last letter carries z."""
    if s < 1 or W < 5 + (s - 1):
        return ()
    out = []
    for heavy in range(5, W - (s - 1) + 1):
        for prefix in compositions(W - heavy, s - 1, CAP):
            out.append(prefix + (heavy,))
    return tuple(out)


def split_blocks(word: Word) -> Tuple[Tuple[Word, ...], Word]:
    """Factor an extended word into z-terminated blocks and the bounded tail."""
    blocks = []
    cur: List[int] = []
    for w in word:
        cur.append(w)
        if w >= 5:
            blocks.append(tuple(cur))
            cur = []
    return tuple(blocks), tuple(cur)


def word_matrix(src: Tuple[Word, ...], dst: Tuple[Word, ...], mod: int,
                dtype=np.int64) -> np.ndarray:
    idx = {w: i for i, w in enumerate(dst)}
    m = np.zeros((len(dst), len(src)), dtype=dtype)
    for j, w in enumerate(src):
        for k, v in word_d_entries(w).items():
            m[idx[k], j] = v % mod
    return m


@dataclass
class CellContraction:
    """Per-weight retraction data through level `top`: for each level s in
    [lo, top], harmonic inclusion iota, projection pi, and homotopy h
    (mapping level s to s-1), satisfying d h + h d = 1 - iota pi with
    h h = 0, pi h = 0, h iota = 0; piv[s] are the pivot columns of the
    echelon of d[s]."""

    mod: int
    lo: int
    top: int
    words: Dict[int, Tuple[Word, ...]]
    d: Dict[int, np.ndarray]
    iota: Dict[int, np.ndarray]
    pi: Dict[int, np.ndarray]
    h: Dict[int, np.ndarray]
    piv: Dict[int, List[int]]

    def dim(self, s: int) -> int:
        return len(self.words.get(s, ()))

    def h_dim(self, s: int) -> int:
        return self.iota[s].shape[1] if s in self.iota else 0


def _retract_level(ds: np.ndarray, bmat: np.ndarray, mod: int
                   ) -> Tuple[List[int], List[int], np.ndarray, np.ndarray]:
    """One level of the retraction: `ds` is d[s], `bmat` the boundaries of
    the previous level's complement.  Returns the pivot columns P and free
    columns F of the echelon of d[s], iota, and M^-1 for M = [bmat_F | H_F]."""
    rref = rref_gf5 if mod == 5 else (lambda a: rref_mod(a, mod))
    red, piv = rref(ds)
    # d ker = 0 exactly when no stuck 5-divisible column leaves residue
    if np.any(red[len(piv):]):
        raise AssertionError("echelon kernel failed over the prime power")
    free = sorted(set(range(ds.shape[1])) - set(piv))
    nb = bmat.shape[1]
    red2, piv2 = rref(np.concatenate(
        [bmat[free], np.eye(len(free), dtype=np.int64)], axis=1))
    if piv2[:nb] != list(range(nb)):
        raise AssertionError("boundary columns are not independent")
    hcols = [free[p - nb] for p in piv2[nb:]]
    iota = np.zeros((ds.shape[1], len(hcols)), dtype=np.int64)
    iota[hcols, range(len(hcols))] = 1
    iota[piv] = (-red[:len(piv)][:, hcols]) % mod
    return piv, free, iota, red2[:, nb:]


def _grow(con: CellContraction, here: Tuple[Word, ...],
          above: Tuple[Word, ...]) -> CellContraction:
    """`con` with one more level s = con.top + 1, whose differential maps
    the words `here` to the words `above`; levels below s are shared.

    With P and F the pivot and free columns of the echelon of d[s], the
    echelon kernel basis is the identity on F, and the complement E of
    ker d[s] is the unit vectors at P: the kernel vector of a free column
    f is e_f minus pivot columns p < f, so e_f lies in span(ker, e_{<f}).
    So the next level's boundaries are the columns d[s][:, P], and a
    kernel element is fixed by its F coordinates.  The second
    elimination, of [bmat_F | I_F], picks the harmonic columns H greedily
    after the boundaries and returns M^-1 for M = [bmat_F | H_F].  The
    inverse of the full basis [bmat | iota | E] is M^-1 on the F columns
    and 0 on P in its top rows, so pi[s] is the H rows of M^-1 and h[s]
    is its boundary rows, placed at the previous level's pivot rows."""
    s, mod = con.top + 1, con.mod
    words = {**con.words, s: here, s + 1: above}
    ds = word_matrix(here, above, mod)
    prev_piv = con.piv.get(s - 1, [])
    bmat = con.d[s - 1][:, prev_piv] if s - 1 in con.d else \
        np.zeros((len(here), 0), dtype=np.int64)
    piv, free, iota, minv = _retract_level(ds, bmat, mod)
    nb = len(prev_piv)
    pi = np.zeros((len(free) - nb, ds.shape[1]), dtype=np.int64)
    pi[:, free] = minv[nb:]
    h = np.zeros((len(words.get(s - 1, ())), ds.shape[1]), dtype=np.int64)
    h[np.ix_(prev_piv, free)] = minv[:nb]
    return CellContraction(mod, con.lo, s, words, {**con.d, s: ds},
                           {**con.iota, s: iota}, {**con.pi, s: pi},
                           {**con.h, s: h}, {**con.piv, s: piv})


@lru_cache(maxsize=None)
def reduced_contraction(n: int, s: int, mod: int) -> CellContraction:
    """Retraction of the bounded-alphabet weight-n complex through level s:
    the cached one through s - 1 plus one level."""
    lo = 0 if n == 0 else (n + CAP - 1) // CAP
    if s > n:
        return reduced_contraction(n, n, mod)
    if s < lo:
        return CellContraction(mod, lo, lo - 1, {}, {}, {}, {}, {}, {})
    return _grow(reduced_contraction(n, s - 1, mod), reduced_words(n, s),
                 reduced_words(n, s + 1))


@lru_cache(maxsize=None)
def block_contraction(W: int, s: int, mod: int) -> CellContraction:
    """Retraction of the weight-W block complex (last letter carries z)
    through level s, grown like reduced_contraction.

    Cohomology is one line: dimension 1 at level 1 when 5 divides W (the
    bare z power), zero otherwise; asserted as each level is added."""
    if s < 1:
        return CellContraction(mod, 1, 0, {}, {}, {}, {}, {}, {})
    out = _grow(block_contraction(W, s - 1, mod), block_words(W, s),
                block_words(W, s + 1))
    want = int(s == 1 and W % 5 == 0)
    if out.h_dim(s) != want:
        raise AssertionError(f"block weight {W} level {s}: "
                             f"harmonic dim {out.h_dim(s)} != {want}")
    return out


@lru_cache(maxsize=None)
def _reduced_rank(n: int, s: int) -> int:
    src = reduced_words(n, s)
    dst = reduced_words(n, s + 1)
    if not src or not dst:
        return 0
    return rank_gf5(word_matrix(src, dst, 5, dtype=np.int8))


def reduced_word_h_dim(n: int, s: int) -> int:
    """Mod-5 cohomology dimension of the bounded word complex at (s, n).

    This is the full cobar cohomology of the top quotient, where the
    coefficient part of the differential vanishes.  Computed by dense
    ranks over the word bases, so it is only practical while those stay
    small (word dimension peaks around n ~ 5s/2); use dual_h_dim for
    large windows."""
    dim = len(reduced_words(n, s))
    if dim == 0:
        return 0
    below = _reduced_rank(n, s - 1) if s > 0 else 0
    return dim - below - _reduced_rank(n, s)


# --- minimal resolution over the dual algebra -------------------------------
#
# The weight complex above is the cobar complex of the coalgebra
# F5[r]/r^5, whose graded dual is the algebra B = F5[x]/x^5 with |x| = 8.
# Cobar cohomology therefore equals Ext_B(F5, F5), which we compute by
# building a minimal free resolution of F5 over B degree by degree: by
# minimality, the number of stage-s generators in internal degree t is
# the cohomology dimension at (s, t).  Every graded piece of B is one-
# dimensional, so the matrices involved stay tiny at every s and t, in
# contrast to the word bases.

X_DEG = 8  # internal degree of the dual generator


def _piece_basis(degs: Tuple[int, ...], D: int) -> List[Tuple[int, int]]:
    return [(i, e) for i, d in enumerate(degs)
            for e in range(0, CAP + 1) if d + X_DEG * e == D]


@lru_cache(maxsize=None)
def _resolution_stages(s_max: int, t_max: int) -> Tuple[Tuple[int, ...], ...]:
    """Generator degrees of each stage of a minimal resolution of F5 over
    B = F5[x]/x^5, truncated to internal degree t_max."""
    stages: List[Tuple[int, ...]] = [(0,)]
    # images[i] = the element of the previous stage that generator i maps
    # to, as {(component, x-exponent): coefficient}; stage 0 maps to F5
    # by the augmentation, represented with an empty image.
    images: List[Dict[Tuple[int, int], int]] = [{}]
    for s in range(1, s_max + 1):
        prev_degs = stages[-1]
        new_degs: List[int] = []
        new_images: List[Dict[Tuple[int, int], int]] = []
        kernels: Dict[int, np.ndarray] = {}
        for D in range(0, t_max + 1, X_DEG):
            basis = _piece_basis(prev_degs, D)
            if not basis:
                continue
            if s == 1:
                # kernel of the augmentation: everything with e >= 1
                ker_cols = [k for k, (_, e) in enumerate(basis) if e >= 1]
                ker = np.zeros((len(basis), len(ker_cols)), dtype=np.int64)
                for c, k in enumerate(ker_cols):
                    ker[k, c] = 1
            else:
                below = _piece_basis(stages[-2], D)
                idx = {key: k for k, key in enumerate(below)}
                mat = np.zeros((len(below), len(basis)), dtype=np.int64)
                for col, (i, e) in enumerate(basis):
                    for (j, e2), c in images[i].items():
                        if e + e2 <= CAP:
                            mat[idx[(j, e + e2)], col] = c % 5
                ker = nullspace_gf5(mat)
            kernels[D] = ker
            # quotient by x * (kernel one degree down)
            old = kernels.get(D - X_DEG)
            cols = []
            if old is not None and old.size:
                down = _piece_basis(prev_degs, D - X_DEG)
                idx_up = {key: k for k, key in enumerate(basis)}
                shifted = np.zeros((len(basis), old.shape[1]), dtype=np.int64)
                for row, (i, e) in enumerate(down):
                    if e + 1 <= CAP:
                        shifted[idx_up[(i, e + 1)]] += old[row]
                cols.append(shifted % 5)
            cols.append(ker)
            combo = np.concatenate(cols, axis=1)
            _, piv = rref_gf5(combo)
            nb = combo.shape[1] - ker.shape[1]
            for p in piv:
                if p < nb:
                    continue
                vec = ker[:, p - nb]
                new_degs.append(D)
                new_images.append({basis[k]: int(vec[k]) % 5
                                   for k in range(len(basis)) if vec[k] % 5})
        stages.append(tuple(new_degs))
        images = new_images
    return tuple(stages)


def dual_h_dim(s: int, t: int, t_max: int = 400) -> int:
    """Cohomology dimension at (s, t) of the top-quotient cobar complex,
    via the minimal resolution over the dual algebra.  Agrees with
    reduced_word_h_dim(t // 8, s) wherever both are computed."""
    if t > t_max:
        t_max = t
    stages = _resolution_stages(max(s, 1) if s else 0, t_max)
    if s >= len(stages):
        return 0
    return sum(1 for d in stages[s] if d == t)
