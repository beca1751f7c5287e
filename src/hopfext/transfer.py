"""Transfer of the cobar differential onto the word-cohomology basis.

The cobar complex in a fixed internal degree splits coefficient-side
(monomials) against word-side (bar slots).  The word-side part is
contracted by the wordcx module, which caches a contraction per level;
each read of it here (h, iota or pi on a word or tensor factor) asks for
the level equal to the length of the word it reads, so no retraction
depth is fixed in advance.  This module perturbs that contraction by the
coefficient-feeding part of the differential, giving a small complex
with the same cohomology.  All the large-window computations (Ext tables,
integral structure, spectral sequence pages) run here.

The perturbation series pi delta sum_k (h delta)^k iota runs on word
blocks: a chain at internal degree t is one int64 array per bar word, whose
rows are the base monomials of degree t - 8 * weight(word) (the coefficient
piece, in graded-lex order) and whose columns are the source basis.  delta
touches only coefficients, so it is one matrix per piece degree and slot
weight, applied through float64 BLAS (flinalg.matmul_mod, exact under its
bound); h touches only words, so it is one scalar multiple of a block per
word image; and the small basis is label-major over the same pieces, so pi
adds each block to one run of rows.

For the full presentation, cochains are written in the extended letter
alphabet, where the right-unit image of the top base generator occupies
its own letter and the transfer data assembles tensorially from block and
tail retractions.  A reduced word is a letter word with no blocks, so both
presentations share one path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .algebroid import (
    AlgebroidSpec,
    coefficient_modulus,
    coefficient_piece,
    eta_R_int,
    sort_terms,
)
from .flinalg import diagonal_valuations, matmul_mod, rank_gf5
from .gradedpoly import Monomial
from .wordcx import (
    CellContraction,
    block_contraction,
    block_words,
    reduced_contraction,
    reduced_words,
    split_blocks,
)

Word = Tuple[int, ...]
R_DEG = 8


def _word_index(words: Sequence[Word]) -> Dict[Word, int]:
    return {w: i for i, w in enumerate(words)}


@lru_cache(maxsize=None)
def _cell_index(n: int, s: int) -> Dict[Word, int]:
    return _word_index(reduced_words(n, s))


@lru_cache(maxsize=None)
def _block_index(W: int, s: int) -> Dict[Word, int]:
    return _word_index(block_words(W, s))


# --- coefficient tails ------------------------------------------------------

def eta_items(spec: AlgebroidSpec, mono: Monomial, mod: int
              ) -> Tuple[Tuple[int, Monomial, int], ...]:
    """Right-unit tail of a base monomial as (slot weight, monomial, coeff).

    Reduced presentation: the right-unit image is already in normal form
    with slot weights 1..4."""
    return tuple(item for item in eta_R_int(spec, mono, mod) if item[0])


def eta_items_L(spec: AlgebroidSpec, mono: Monomial, mod: int
                ) -> Tuple[Tuple[int, Monomial, int], ...]:
    """Right-unit tail in the extended letter alphabet (full presentation).

    Rewrites high r powers through r^5 = z - a5 - a4 r - ... so every term
    is a single letter of weight 5m + j.  Each exponent is rewritten once,
    highest first, since every rewrite lands on lower exponents."""
    if spec.variant != "full":
        raise ValueError("extended alphabet applies to the full presentation")
    mod = coefficient_modulus(spec, mod)
    # r^5 = z - sum_j a_j r^(5-j) over the live a_j, as (5 - j, index of a_j)
    tail = [(5 - j, j - 1) for j in range((spec.quotient_level or 0) + 1, 6)]
    # levels[e][(m, monomial)] = coefficient of z^m r^e
    levels: Dict[int, Dict[Tuple[int, Monomial], int]] = {}
    for e, m2, c in eta_R_int(spec, mono, mod):
        levels.setdefault(e, {})[(0, m2)] = c
    for e in range(max(levels, default=0), 4, -1):
        up = levels.setdefault(e - 5, {})
        lows = [(levels.setdefault(e - 5 + j, {}), g) for j, g in tail]
        for (m, m2), c in levels.pop(e, {}).items():
            up[(m + 1, m2)] = up.get((m + 1, m2), 0) + c
            for low, g in lows:
                key = (m, m2[:g] + (m2[g] + 1,) + m2[g + 1:])
                low[key] = low.get(key, 0) - c
    out = []
    for e, terms in levels.items():
        for (m, m2), c in terms.items():
            w, v = 5 * m + e, c % mod
            # the weight-0 part dies in Gamma / (left unit image)
            if w and v:
                out.append((w, m2, v))
    sort_terms(out)
    return tuple(out)


# --- per-word contraction actions ------------------------------------------

def _col_items(mat: np.ndarray, j: int) -> List[Tuple[int, int]]:
    col = mat[:, j]
    nz = np.nonzero(col)[0]
    return [(int(i), int(col[i])) for i in nz]


@lru_cache(maxsize=None)
def _h_word(word: Word, mod: int) -> Tuple[Tuple[Word, int], ...]:
    """Homotopy applied to a single word, as (lower word, coeff) pairs.

    The word factors into z-terminated blocks and a bounded tail (a
    reduced word is all tail); h acts on one factor, iota pi on the later
    ones."""
    blocks, tailw = split_blocks(word)
    factors = list(blocks) + [tailw]
    out: Dict[Word, int] = {}
    prefix: Word = ()
    for i, f in enumerate(factors):
        hv = _factor_h(f, mod)
        if hv:
            sign = -1 if len(prefix) % 2 else 1
            parts: List[List[Tuple[Word, int]]] = [list(hv.items())]
            dead = False
            for g in factors[i + 1:]:
                pv = _factor_proj(g, mod)
                if not pv:
                    dead = True
                    break
                parts.append(list(pv.items()))
            if not dead:
                stack = [(prefix, sign)]
                for choices in parts:
                    stack = [(w + w2, c * c2 % mod)
                             for (w, c) in stack for (w2, c2) in choices]
                for w, c in stack:
                    out[w] = (out.get(w, 0) + c) % mod
        prefix = prefix + f
    return tuple((w, c) for w, c in out.items() if c)


def _factor(f: Word, mod: int) -> Tuple[CellContraction, int]:
    """Contraction through level len(f) of the complex holding the nonempty
    factor f (a block or a bounded word), and f's index at that level."""
    n, s = sum(f), len(f)
    if f[-1] >= 5:
        return block_contraction(n, s, mod), _block_index(n, s)[f]
    return reduced_contraction(n, s, mod), _cell_index(n, s)[f]


def _factor_h(f: Word, mod: int) -> Dict[Word, int]:
    if not f:
        return {}
    con, idx = _factor(f, mod)
    low = con.words.get(len(f) - 1, ())
    return {low[i]: c for i, c in _col_items(con.h[len(f)], idx)}


def _factor_proj(f: Word, mod: int) -> Dict[Word, int]:
    """iota compose pi on one tensor factor."""
    if not f:
        return {(): 1}
    con, idx = _factor(f, mod)
    s = len(f)
    if con.h_dim(s) == 0:
        return {}
    vec = matmul_mod(con.iota[s], con.pi[s][:, idx:idx + 1], mod)[:, 0]
    return {con.words[s][i]: int(vec[i]) for i in np.nonzero(vec)[0]}


# --- small basis ------------------------------------------------------------

# label: (z letters, tail weight, tail class); a reduced label has no z letters

@lru_cache(maxsize=None)
def small_word_labels(spec: AlgebroidSpec, s: int, n: int, mod: int
                      ) -> Tuple[Tuple, ...]:
    """Harmonic word classes at word length s and weight n."""
    out = []
    for b in range(0, s + 1 if spec.variant == "full" else 1):
        for zs in _zweight_tuples(b, n):
            tail_n = n - sum(zs)
            con = reduced_contraction(tail_n, s - b, mod)
            for j in range(con.h_dim(s - b)):
                out.append((zs, tail_n, j))
    return tuple(out)


@lru_cache(maxsize=None)
def _zweight_tuples(b: int, n_max: int) -> Tuple[Tuple[int, ...], ...]:
    if b == 0:
        return ((),)
    out = []
    for w in range(5, n_max + 1, 5):
        for rest in _zweight_tuples(b - 1, n_max - w):
            out.append((w,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _pi_word(word: Word, mod: int) -> Tuple[Tuple[Tuple, int], ...]:
    """Projection of a word onto harmonic labels (monomial untouched)."""
    blocks, tailw = split_blocks(word)
    coeff = 1
    zs = []
    for f in blocks:
        if len(f) != 1 or f[0] % 5 != 0:
            return ()
        coeff = coeff * int(block_contraction(f[0], 1, mod).pi[1][0, 0]) % mod
        zs.append(f[0])
    tail_n, st = sum(tailw), len(tailw)
    con = reduced_contraction(tail_n, st, mod)
    if con.h_dim(st) == 0:
        return ()
    col = con.pi[st][:, _cell_index(tail_n, st)[tailw]]
    return tuple(((tuple(zs), tail_n, int(j)), coeff * int(col[j]) % mod)
                 for j in np.nonzero(col)[0])


@lru_cache(maxsize=None)
def _iota_label(s: int, label: Tuple, mod: int) -> Tuple[Tuple[Word, int], ...]:
    zs, tail_n, j = label
    coeff = 1
    for w in zs:
        coeff = coeff * int(block_contraction(w, 1, mod).iota[1][0, 0]) % mod
    st = s - len(zs)
    con = reduced_contraction(tail_n, st, mod)
    col = con.iota[st][:, j]
    return tuple((zs + con.words[st][i], coeff * int(col[i]) % mod)
                 for i in np.nonzero(col)[0])


def _label_runs(spec: AlgebroidSpec, s: int, t: int, mod: int
                ) -> Tuple[Tuple[Tuple, int], ...]:
    """(label, coefficient degree) runs of the small basis at (s, t).

    The basis is label-major: each harmonic label of weight n is followed by
    the whole coefficient piece of degree t - 8n."""
    if s < 0 or t % R_DEG:
        return ()
    return tuple((label, t - R_DEG * n) for n in range(t // R_DEG + 1)
                 for label in small_word_labels(spec, s, n, mod))


def small_basis(spec: AlgebroidSpec, s: int, t: int, mod: int
                ) -> Tuple[Tuple[Tuple, Monomial], ...]:
    """Deterministic basis of the transferred complex at (s, t)."""
    return tuple((label, mono) for label, d in _label_runs(spec, s, t, mod)
                 for mono in coefficient_piece(spec, d))


# --- perturbation series on word blocks (see the module docstring) --------

Blocks = Dict[Word, np.ndarray]


@lru_cache(maxsize=None)
def _piece_index(spec: AlgebroidSpec, d: int) -> Dict[Monomial, int]:
    return {m: i for i, m in enumerate(coefficient_piece(spec, d))}


@lru_cache(maxsize=None)
def _eta_matrices(spec: AlgebroidSpec, d: int, mod: int
                  ) -> Tuple[Tuple[int, np.ndarray], ...]:
    """delta on the coefficient piece of degree d, one matrix per slot weight.

    Returns (w, T) pairs: T maps the piece of degree d to the piece of
    degree d - 8w by the weight-w part of the right-unit tail, so delta
    sends the block of a word to T times it at (w,) + word.  T is kept in
    the smallest unsigned dtype that holds a residue."""
    items = eta_items_L if spec.variant == "full" else eta_items
    piece = coefficient_piece(spec, d)
    entries: Dict[int, List[Tuple[Monomial, int, int]]] = {}
    for col, mono in enumerate(piece):
        for w, mono2, cf in items(spec, mono, mod):
            entries.setdefault(w, []).append((mono2, col, cf))
    out = []
    for w in sorted(entries):
        index = _piece_index(spec, d - R_DEG * w)
        mat = np.zeros((len(index), len(piece)), np.min_scalar_type(mod - 1))
        monos, cols, cfs = zip(*entries[w])
        mat[[index[m] for m in monos], cols] = cfs
        mat.setflags(write=False)
        out.append((w, mat))
    return tuple(out)


def _delta_blocks(spec: AlgebroidSpec, blocks: Blocks, t: int, mod: int
                  ) -> Blocks:
    # (w,) + word names its source, so every output block has one term;
    # the products run on the block's nonzero rows and columns only
    out: Blocks = {}
    for word, blk in blocks.items():
        rows = np.flatnonzero(blk.any(axis=1))
        cols = np.flatnonzero(blk.any(axis=0))
        sub = blk[np.ix_(rows, cols)]
        for w, mat in _eta_matrices(spec, t - R_DEG * sum(word), mod):
            prod = matmul_mod(mat[:, rows], sub, mod)
            if prod.any():
                new = np.zeros((len(mat), blk.shape[1]), dtype=np.int64)
                new[:, cols] = prod
                out[(w,) + word] = new
    return out


def _h_blocks(blocks: Blocks, mod: int) -> Blocks:
    out: Blocks = {}
    for word, blk in blocks.items():
        for w2, cf in _h_word(word, mod):
            if w2 in out:
                out[w2] += cf * blk
            else:
                out[w2] = cf * blk
    out = {w: v % mod for w, v in out.items()}
    return {w: v for w, v in out.items() if v.any()}


@lru_cache(maxsize=None)
def transferred_matrix(spec: AlgebroidSpec, s: int, t: int, mod: int
                       ) -> np.ndarray:
    """Matrix of the perturbed differential small(s, t) -> small(s+1, t),
    the sum pi delta (h delta)^k iota over k >= 0."""
    offsets: Dict[Tuple, int] = {}
    height = 0
    for label, d in _label_runs(spec, s + 1, t, mod):
        offsets[label] = height
        height += len(coefficient_piece(spec, d))
    src = [(label, len(coefficient_piece(spec, d)))
           for label, d in _label_runs(spec, s, t, mod)]
    width = sum(size for _, size in src)
    out = np.zeros((height, width), dtype=np.int64)
    if not width or not height:
        return out
    blocks: Blocks = {}
    col = 0
    for label, size in src:
        diag = (np.arange(size), col + np.arange(size))
        for word, cf in _iota_label(s, label, mod):
            if word not in blocks:
                blocks[word] = np.zeros((size, width), dtype=np.int64)
            blocks[word][diag] += cf
        col += size
    blocks = {w: v % mod for w, v in blocks.items()}
    while blocks:
        blocks = _delta_blocks(spec, blocks, t, mod)
        for word, blk in blocks.items():
            for label, cf in _pi_word(word, mod):
                row = offsets.get(label)
                if row is None:
                    raise AssertionError("projection left the small basis")
                part = out[row:row + len(blk)]
                part[:] = (part + cf * blk) % mod
        blocks = _h_blocks(blocks, mod)
    return out


def ext_dim(spec: AlgebroidSpec, s: int, t: int) -> int:
    """Mod-5 cohomology dimension at (s, t) via the transferred complex."""
    dim = len(small_basis(spec, s, t, 5))
    if dim == 0:
        return 0
    r_below = rank_gf5(transferred_matrix(spec, s - 1, t, 5)) if s else 0
    r_here = rank_gf5(transferred_matrix(spec, s, t, 5))
    return dim - r_below - r_here


# --- integral structure -----------------------------------------------------

def partitions_2345(n: int) -> int:
    """Partitions of n into parts 2, 3, 4, 5: the rank of the rational
    polynomial ring on c2..c5 in degree 8n."""
    count = 0
    for x5 in range(n // 5 + 1):
        for x4 in range((n - 5 * x5) // 4 + 1):
            rest = n - 5 * x5 - 4 * x4
            count += sum(1 for x3 in range(rest // 3 + 1)
                         if (rest - 3 * x3) % 2 == 0)
    return count


class PrecisionExhausted(ValueError):
    """Working mod 5^K can no longer tell torsion from free rank."""


def certified_free_rank(dim: int, valuations: Sequence[int], s: int, t: int,
                        k_power: int) -> int:
    """Free rank of H^{s,t} from its cochain dimension and the elementary
    divisor valuations, read mod 5^K, of the differentials into and out of
    it.

    Raises PrecisionExhausted unless K >= 2 and every valuation stays at
    most K-2, so each torsion exponent is exact, and the free rank equals
    the rational rank, so no divisor of 5^K read as zero: rationally
    H^{s>0} = 0, and H^0 is the polynomial ring on c2..c5."""
    if k_power < 2 or any(v > k_power - 2 for v in valuations):
        raise PrecisionExhausted(
            f"torsion precision exhausted at K = {k_power}; raise K")
    free = dim - len(valuations)
    rational = partitions_2345(t // R_DEG) if s == 0 else 0
    if free != rational:
        raise PrecisionExhausted(
            f"free rank {free} of H^{(s, t)} is not the rational rank"
            f" {rational} at K = {k_power}; raise K")
    return free


@lru_cache(maxsize=None)
def differential_valuations(spec: AlgebroidSpec, s: int, t: int, k_power: int
                            ) -> Tuple[int, ...]:
    """Elementary divisor valuations, read mod 5^K, of the transferred
    differential out of (s, t)."""
    return tuple(diagonal_valuations(
        transferred_matrix(spec, s, t, 5 ** k_power), k_power))


def integral_structure(spec: AlgebroidSpec, s: int, t: int, k_power: int
                       ) -> Tuple[int, Tuple[int, ...]]:
    """(free rank, torsion exponents) of H^{s,t} over Z_(5).

    Works mod 5^K on the transferred complex; certified_free_rank checks
    the answer against the precision and the rational rank."""
    if spec.quotient_level is not None:
        raise ValueError("integral structure needs the unquotiented spec")
    dim = len(small_basis(spec, s, t, 5 ** k_power))
    if dim == 0:
        return 0, ()
    v_below = differential_valuations(spec, s - 1, t, k_power) if s else ()
    v_here = differential_valuations(spec, s, t, k_power)
    free = certified_free_rank(dim, v_below + v_here, s, t, k_power)
    torsion = tuple(sorted(v for v in v_below if v > 0))
    return free, torsion
