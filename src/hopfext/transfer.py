"""Transfer of the cobar differential onto the critical-word basis.

The cobar complex in a fixed internal degree splits coefficient-side
(monomials) against word-side (bar slots).  The word-side part is
contracted by the wordcx module in closed form, by an acyclic matching on
words; each read of it here (h, iota pi or pi on a tensor factor of a
word) asks for the maps at that one word, so no word basis is enumerated.
This module perturbs that contraction by the coefficient-feeding part of
the differential, giving a small complex with the same cohomology.  All
the large-window computations (Ext tables, integral structure, spectral
sequence pages) run here.

The perturbation series pi delta sum_k (h delta)^k iota factors (Crainic,
arXiv math/0403266).  delta touches only coefficients: it multiplies a
chain on a word by a slot matrix T_w (rows of algebroid.letter_block) and
prepends the slot weight w to the word.  h, pi and iota only take scalar
combinations across words.  So the block of the transferred matrix from a
source label to a target label is a sum of c * T_seq over sequences seq of
slot weights, T_seq applying their matrices in order.  The scalars c come
from running the series on words alone, with no coefficient arrays; each
T_seq is memoised per piece degree, so cells that share a piece share it,
and is one float64 BLAS product (flinalg.matmul_mod, exact under its
bound) on its prefix.  The small basis is label-major over the coefficient
pieces, and its labels are the critical words.

For the full presentation, cochains are written in the extended letter
alphabet, where z = eta_R(a5), the right-unit image of the top base
generator, occupies its own letter: the letter of weight w is
z^(w div 5) r^(w mod 5).  delta's matrices are the right-unit block built
in letters (algebroid.letter_block), and the transfer data assembles
tensorially from block and tail contractions.  A reduced word is a letter
word with no blocks and a reduced block is its own letter block, so both
presentations share one path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .algebroid import (
    AlgebroidSpec,
    coefficient_piece,
    eta_block_offsets,
    letter_block,
)
from .flinalg import diagonal_valuations, matmul_mod, rank_gf5
from .gradedpoly import Monomial
from .invariants import partitions_2345
from .wordcx import (
    Contraction,
    block_contraction,
    critical_word,
    reduced_contraction,
    split_blocks,
)

Word = Tuple[int, ...]
R_DEG = 8


# --- per-word contraction actions ------------------------------------------

def _factor_maps(word: Word, mod: int) -> List[Tuple[Word, Contraction]]:
    """The tensor factors of a word, its z-terminated blocks and then its
    bounded tail, each with the Morse maps at it."""
    blocks, tailw = split_blocks(word)
    return [(f, block_contraction(f, mod)) for f in blocks] + \
        [(tailw, reduced_contraction(tailw, mod))]


def _tensor(parts: Sequence[Dict[Word, int]], mod: int) -> Dict[Word, int]:
    """Tensor product of per-factor images, as concatenated words.  Each
    part's words share one length, so no two products concatenate alike."""
    out: Dict[Word, int] = {(): 1}
    for part in parts:
        out = {w + w2: c * c2 % mod
               for w, c in out.items() for w2, c2 in part.items()}
    return out


@lru_cache(maxsize=None)
def _h_word(word: Word, mod: int) -> Tuple[Tuple[Word, int], ...]:
    """Homotopy applied to a single word, as (lower word, coeff) pairs.

    The word factors into z-terminated blocks and a bounded tail (a
    reduced word is all tail); h acts on one factor, iota pi on the later
    ones."""
    factors = _factor_maps(word, mod)
    out: Dict[Word, int] = {}
    prefix: Word = ()
    for i, (f, con) in enumerate(factors):
        sign = -1 if len(prefix) % 2 else 1
        parts = [{prefix: sign}, con.h] + [g.proj for _, g in factors[i + 1:]]
        for w, c in _tensor(parts, mod).items():
            out[w] = (out.get(w, 0) + c) % mod
        prefix = prefix + f
    return tuple((w, c) for w, c in out.items() if c)


# --- small basis ------------------------------------------------------------

# label: a critical extended word, its z letters then a critical bounded word

@lru_cache(maxsize=None)
def small_word_labels(spec: AlgebroidSpec, s: int, n: int) -> Tuple[Word, ...]:
    """Critical words at word length s and weight n."""
    out = []
    for b in range(0, s + 1 if spec.variant == "full" else 1):
        for zs in _zweight_tuples(b, n):
            tail = critical_word(n - sum(zs))
            if tail is not None and len(tail) == s - b:
                out.append(zs + tail)
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
def _pi_word(word: Word, mod: int) -> Tuple[Tuple[Word, int], ...]:
    """Projection of a word onto the critical words (monomial untouched)."""
    return tuple(_tensor([con.pi for _, con in _factor_maps(word, mod)],
                         mod).items())


@lru_cache(maxsize=None)
def _iota_label(label: Word, mod: int) -> Tuple[Tuple[Word, int], ...]:
    # each factor of a critical word is critical, so its proj is its iota
    return tuple(_tensor([con.proj for _, con in _factor_maps(label, mod)],
                         mod).items())


def _label_runs(spec: AlgebroidSpec, s: int, t: int
                ) -> Tuple[Tuple[Word, int], ...]:
    """(label, coefficient degree) runs of the small basis at (s, t).

    The basis is label-major: each harmonic label of weight n is followed by
    the whole coefficient piece of degree t - 8n."""
    if s < 0 or t % R_DEG:
        return ()
    return tuple((label, t - R_DEG * n) for n in range(t // R_DEG + 1)
                 for label in small_word_labels(spec, s, n))


def small_basis(spec: AlgebroidSpec, s: int, t: int
                ) -> Tuple[Tuple[Word, Monomial], ...]:
    """Deterministic basis of the transferred complex at (s, t)."""
    return tuple((label, mono) for label, d in _label_runs(spec, s, t)
                 for mono in coefficient_piece(spec, d))


# --- perturbation series, factored (see the module docstring) -------------

Seq = Tuple[int, ...]


@lru_cache(maxsize=None)
def _eta_matrices(spec: AlgebroidSpec, d: int, mod: int
                  ) -> Tuple[Tuple[int, np.ndarray], ...]:
    """delta on the coefficient piece of degree d, one matrix per slot weight.

    Returns (w, T) pairs: T maps the piece of degree d to the piece of
    degree d - 8w by the weight-w part of the right-unit tail, so delta
    sends a chain on a word to T times it at (w,) + word.  T is the
    letter-weight-w rows of algebroid.letter_block, a view, kept in the
    smallest unsigned dtype that holds a residue; the weight-0 rows die in
    Gamma / (left unit image), and a zero T is left out."""
    block = letter_block(spec, d // R_DEG, mod)
    offsets = eta_block_offsets(spec, d // R_DEG)
    mats = ((w, block[offsets[w]:offsets[w + 1]])
            for w in range(1, len(offsets) - 1))
    return tuple((w, mat) for w, mat in mats if mat.any())


@lru_cache(maxsize=None)
def _delta_product(spec: AlgebroidSpec, d: int, seq: Seq, mod: int
                   ) -> np.ndarray:
    """T_seq on the piece of degree d: the slot matrices of seq applied in
    order, each on the piece its predecessors reach, where _word_scalars
    has checked it is nonzero."""
    *head, w = seq
    mat = dict(_eta_matrices(spec, d - R_DEG * sum(head), mod))[w]
    if not head:
        return mat
    prev = _delta_product(spec, d, tuple(head), mod)
    return matmul_mod(mat, prev, mod).astype(mat.dtype)


def _word_scalars(spec: AlgebroidSpec, label: Word, d: int, mod: int
                  ) -> Dict[Tuple[Word, Seq], int]:
    """c(target label, seq) of the series from one source label on the
    piece of degree d, run on a scalar per (word, seq): delta prepends a
    slot weight w to the word and appends it to seq, trying only the
    weights whose slot matrix on the piece reached is nonzero, so the
    series ends once the piece is spent."""
    out: Dict[Tuple[Word, Seq], int] = {}
    chains: Dict[Seq, Dict[Word, int]] = {(): dict(_iota_label(label, mod))}
    while chains:
        chains = {seq + (w,): {(w,) + word: c for word, c in words.items()}
                  for seq, words in chains.items()
                  for w, _ in _eta_matrices(spec, d - R_DEG * sum(seq), mod)}
        nxt: Dict[Seq, Dict[Word, int]] = {}
        for seq, words in chains.items():
            low: Dict[Word, int] = {}
            for word, c in words.items():
                for target, cf in _pi_word(word, mod):
                    key = (target, seq)
                    out[key] = (out.get(key, 0) + c * cf) % mod
                for w2, cf in _h_word(word, mod):
                    low[w2] = (low.get(w2, 0) + c * cf) % mod
            low = {w2: c for w2, c in low.items() if c}
            if low:
                nxt[seq] = low
        chains = nxt
    return out


def transferred_matrix(spec: AlgebroidSpec, s: int, t: int, mod: int
                       ) -> np.ndarray:
    """Matrix of the perturbed differential small(s, t) -> small(s+1, t),
    the sum pi delta (h delta)^k iota over k >= 0, as sums of c * T_seq
    reduced after every add; a fresh array per call, since each caller
    memoises only what it reads again."""
    offsets: Dict[Word, int] = {}
    height = 0
    for label, d in _label_runs(spec, s + 1, t):
        offsets[label] = height
        height += len(coefficient_piece(spec, d))
    src = _label_runs(spec, s, t)
    width = sum(len(coefficient_piece(spec, d)) for _, d in src)
    out = np.zeros((height, width), dtype=np.int64)
    if not width or not height:
        return out
    col = 0
    for label, d in src:
        for (target, seq), c in _word_scalars(spec, label, d, mod).items():
            row = offsets.get(target)
            if row is None:
                raise AssertionError("projection left the small basis")
            if c:
                prod = _delta_product(spec, d, seq, mod)
                part = out[row:row + prod.shape[0], col:col + prod.shape[1]]
                part += np.int64(c) * prod
                part %= mod
        col += len(coefficient_piece(spec, d))
    return out


@lru_cache(maxsize=None)
def _rank_f5(spec: AlgebroidSpec, s: int, t: int) -> int:
    """F5 rank of the transferred differential out of (s, t)."""
    return rank_gf5(transferred_matrix(spec, s, t, 5))


def ext_dim(spec: AlgebroidSpec, s: int, t: int) -> int:
    """Mod-5 cohomology dimension at (s, t) via the transferred complex."""
    dim = len(small_basis(spec, s, t))
    if dim == 0:
        return 0
    r_below = _rank_f5(spec, s - 1, t) if s else 0
    return dim - r_below - _rank_f5(spec, s, t)


# --- integral structure -----------------------------------------------------

# 5-adic working precision K: the integral differentials are read mod 5^K.
# certified_free_rank trusts valuations up to K - 2, here 2, one more than
# the exponent-one torsion of H^{s>0} needs; reading at flinalg.K_MAX finds
# the same valuations (test_kpower_ceiling_agrees_with_default).
K_POWER = 4


class PrecisionExhausted(ValueError):
    """Working mod 5^K can no longer tell torsion from free rank."""


def certified_free_rank(dim: int, valuations: Sequence[int], s: int, t: int
                        ) -> int:
    """Free rank of H^{s,t} from its cochain dimension and the elementary
    divisor valuations, read mod 5^K, of the differentials into and out of
    it.

    Raises PrecisionExhausted unless every valuation stays at most K-2, so
    each torsion exponent is exact, and the free rank equals the rational
    rank, so no divisor of 5^K read as zero: rationally H^{s>0} = 0, and
    H^0 is the polynomial ring on c2..c5."""
    if any(v > K_POWER - 2 for v in valuations):
        raise PrecisionExhausted(
            f"torsion precision exhausted at K = {K_POWER}")
    free = dim - len(valuations)
    rational = partitions_2345(t // R_DEG) if s == 0 else 0
    if free != rational:
        raise PrecisionExhausted(
            f"free rank {free} of H^{(s, t)} is not the rational rank"
            f" {rational} at K = {K_POWER}")
    return free


@lru_cache(maxsize=None)
def differential_valuations(spec: AlgebroidSpec, s: int, t: int
                            ) -> Tuple[int, ...]:
    """Elementary divisor valuations, read mod 5^K, of the transferred
    differential out of (s, t)."""
    return tuple(diagonal_valuations(
        transferred_matrix(spec, s, t, 5 ** K_POWER), K_POWER))


def integral_valuations(spec: AlgebroidSpec, s: int, t: int
                        ) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """(certified free rank, valuations into, valuations out of) H^{s,t}
    over Z_(5), read mod 5^K on the transferred complex."""
    if spec.quotient_level is not None:
        raise ValueError("integral structure needs the unquotiented spec")
    dim = len(small_basis(spec, s, t))
    if dim == 0:
        return 0, (), ()
    below = differential_valuations(spec, s - 1, t) if s else ()
    here = differential_valuations(spec, s, t)
    return certified_free_rank(dim, below + here, s, t), below, here


def integral_structure(spec: AlgebroidSpec, s: int, t: int
                       ) -> Tuple[int, Tuple[int, ...]]:
    """(free rank, torsion exponents) of H^{s,t} over Z_(5)."""
    free, below, _ = integral_valuations(spec, s, t)
    return free, tuple(sorted(v for v in below if v > 0))
